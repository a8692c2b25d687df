"""The benchmark's workloads: inputs made from the seed, one round of operations,
and the checks that each operation's output must pass.

A round is a fixed list of operations.  Every round of a run repeats the same
operations on the same inputs, so each round must print the same bytes; the
checks run once, on the first measured round, against `oracle`.
"""

from __future__ import annotations

import io
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

SLACK_TOL = -1e-9
# Agreement between a reported value and the oracle's (relative above 1).
VALUE_TOL = 1e-9
# Agreement of a reported value with a closed form computed from the same row.
FORMULA_TOL = 1e-12
BIN_TOL = 1e-9

SMALL_GRID = "0.3,0.5,0.7,1,1.5,2,3"
ANGLE_CASES = ((3.0, 8), (1.0, 16), (5.0, 4))  # (width, nbins); (3, 8) is the CLI default
ANGLE_ALPHA = 2.0
ANGLE_TRUNCATION = 50


@dataclass
class Result:
    """What one operation produced."""

    code: int | None  # exit code; None when the call raised
    rows: list
    text: str  # canonical output, compared across rounds
    first_row_at: float | None = None
    error: str | None = None


@dataclass
class Op:
    label: str
    run: Callable[[], Result]
    check: Callable[[list], list]  # rows -> list of problems


@dataclass
class Workload:
    ops: list
    warmup: list  # run once, untimed, before the measured rounds


class _Capture(io.StringIO):
    """stdout stand-in that notes when the first row arrives."""

    def __init__(self):
        super().__init__()
        self.first_at = None

    def write(self, s):
        if self.first_at is None and s:
            self.first_at = time.perf_counter()
        return super().write(s)


def cli_op(unravel, label: str, argv: list, check) -> Op:
    def run() -> Result:
        out, err = _Capture(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            code = unravel.cli.main(argv)  # looked up per call, so a traced binding is used
        except Exception as exc:  # the operation failed; the run goes on and counts it
            code, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = err.getvalue().strip() or None
        finally:
            sys.stdout, sys.stderr = saved
        text = out.getvalue()
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        return Result(code, rows, text, out.first_at, error)

    return Op(label, run, check)


def call_op(label: str, fn: Callable[[], list], check) -> Op:
    def run() -> Result:
        try:
            rows = fn()
        except Exception as exc:  # the operation failed; the run goes on and counts it
            return Result(None, [], "", None, f"{type(exc).__name__}: {exc}")
        return Result(0, rows, json.dumps(rows), None, None)

    return Op(label, run, check)


# ---------------------------------------------------------------- checks


class Problems(list):
    def close(self, what: str, got, want, tol: float = VALUE_TOL) -> None:
        if got is None or not abs(got - want) <= tol * max(1.0, abs(want)):
            self.append(f"{what}: got {got!r}, expected {want!r}")

    def true(self, what: str, ok: bool) -> None:
        if not ok:
            self.append(what)


def _check_row_common(pr: Problems, row: dict) -> None:
    """Properties every report row must have, whatever produced it."""
    where = row.get("check_name")
    if "slack" in row:
        pr.true(f"{where}: slack {row['slack']!r} < {SLACK_TOL}", row["slack"] >= SLACK_TOL)
        # The sandwich row reports min(mid - lower, upper - mid) as its slack.
        if "lhs" in row and "rhs" in row and where != "mixed_ensemble_sandwich":
            pr.close(f"{where}: slack = lhs - rhs", row["slack"], row["lhs"] - row["rhs"], FORMULA_TOL)
    if "alpha" in row and "beta" in row:
        beta, mu = oracle.conjugate(row["alpha"])
        pr.close(f"{where}: beta", row["beta"], beta, FORMULA_TOL)
        pr.close(f"{where}: mu", row["mu"], mu, FORMULA_TOL)


def _check_bound(pr: Problems, row: dict, kind: str, lhs: float, factor: float) -> None:
    """A Tsallis or Renyi uncertainty row: rhs from its own factor, lhs and factor
    against the oracle."""
    where = row.get("check_name")
    _check_row_common(pr, row)
    f = row["factor"]
    pr.true(f"{where}: factor {f!r} outside (0, 1]", 0.0 < f <= 1.0 + 1e-10)
    if kind == "tsallis":
        pr.close(f"{where}: rhs = ln_mu(factor^-2)", row["rhs"], oracle.alpha_log(f**-2, row["mu"]), FORMULA_TOL)
    else:
        pr.close(f"{where}: rhs = -2 ln(factor)", row["rhs"], -2.0 * math.log(f), FORMULA_TOL)
    pr.close(f"{where}: lhs", row["lhs"], lhs)
    pr.close(f"{where}: factor", f, factor)


def _pair_entropy(kind: str, p, q, alpha: float) -> float:
    beta, _ = oracle.conjugate(alpha)
    return oracle.entropy(p, alpha, kind) + oracle.entropy(q, beta, kind)


def _check_extremal_rows(pr: Problems, rows: list, kraus, rho, unitaries, grid) -> None:
    """Theorem-1 rows: the Gram spectrum beats every sampled remixing."""
    pi = oracle.gram(kraus, rho)
    lambdas = oracle.spectrum(pi)
    diags = oracle.remixed_diagonals(pi, unitaries)
    pr.true(f"expected {len(grid)} theorem-1 rows, got {len(rows)}", len(rows) == len(grid))
    for row, alpha in zip(rows, grid):
        _check_row_common(pr, row)
        pr.close(f"{row['check_name']}: alpha", row["alpha"], alpha, 0.0)
        pr.close(f"{row['check_name']}: rhs (extremal entropy)", row["rhs"], oracle.tsallis(lambdas, alpha))
        pr.close(
            f"{row['check_name']}: lhs (best remixing)",
            row["lhs"],
            min(oracle.tsallis(d, alpha) for d in diags),
        )


def check_sweep(unravel, dim: int, trials: int, seed: int, grid: list, remixings: int):
    """Rows of `unravel sweep`.  The instances are drawn again with the package's
    public generators under the sweep's seed layout (trial base = seed + 1000 t,
    state, channel, remixings, POVM M and POVM N at base + 0..4)."""
    linalg, channels, bounds = unravel.linalg, unravel.channels, unravel.bounds

    def check(rows: list) -> list:
        pr = Problems()
        per_trial = 1 + len(grid) + 2 * sum(1 for a in grid if a > 0.5)
        pr.true(f"expected {trials * per_trial} rows, got {len(rows)}", len(rows) == trials * per_trial)
        for t in range(trials):
            block = rows[t * per_trial : (t + 1) * per_trial]
            if len(block) != per_trial:
                break
            base = seed + 1000 * t
            rho = linalg.random_density(dim, dim, base)
            kraus = list(channels.random_unraveling(dim, dim, base + 1).kraus_ops)
            us = linalg.haar_random_unitaries(len(kraus), remixings, base + 2)
            m = list(bounds.random_projective_povm(dim, base + 3).elements)
            n = list(bounds.random_projective_povm(dim, base + 4).elements)
            g = oracle.g_factor(m, n, rho)
            f = oracle.f_factor(m, n, rho)
            fb = oracle.f_bar(m, n)
            pr.true(f"trial {t}: oracle chain g <= f <= fbar <= 1 broken ({g}, {f}, {fb})",
                    g <= f + 1e-12 and f <= fb + 1e-12 and fb <= 1.0 + 1e-10)
            chain = block[0]
            pr.true(f"trial {t}: first row is {chain.get('check_name')}", chain.get("check_name") == "factor_chain")
            _check_row_common(pr, chain)
            pr.close(f"trial {t}: factor_chain factor (g)", chain["factor"], g)
            pr.close(f"trial {t}: factor_chain slack", chain["slack"], min(f - g, fb - f, 1.0 + 1e-10 - fb))
            pr.true(f"trial {t}: seed {chain.get('seed')} != {base}", chain.get("seed") == base)
            theorem1 = [r for r in block if r.get("check_name") == "theorem1_tsallis"]
            _check_extremal_rows(pr, theorem1, kraus, rho, us, grid)
            p, q = oracle.probabilities(m, rho), oracle.probabilities(n, rho)
            relations = [r for r in block if r.get("check_name") in ("theorem2_tsallis", "renyi_relation")]
            expected = [(a, k) for a in grid if a > 0.5 for k in ("tsallis", "renyi")]
            pr.true(f"trial {t}: {len(relations)} relation rows, expected {len(expected)}",
                    len(relations) == len(expected))
            for row, (alpha, kind) in zip(relations, expected):
                pr.close(f"trial {t}: relation alpha", row.get("alpha"), alpha, 0.0)
                _check_bound(pr, row, kind, _pair_entropy(kind, p, q, alpha), g)
        return pr

    return check


# ---------------------------------------------------------------- inputs


def _ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2)


def _density(rng, d: int) -> np.ndarray:
    g = _ginibre(rng, d, d)
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def _isometry(rng, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, rows, cols))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _kraus(rng, d: int, n: int) -> list:
    return list(_isometry(rng, n * d, d).reshape(n, d, d))


def _projective(rng, d: int) -> list:
    u = _isometry(rng, d, d)
    return [np.outer(u[:, k], u[:, k].conj()) for k in range(d)]


def _general_povm(rng, d: int, n: int) -> list:
    pieces = [g @ g.conj().T for g in (_ginibre(rng, d, d) for _ in range(n))]
    w, v = np.linalg.eigh(sum(pieces))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return [(x + x.conj().T) / 2 for x in (inv_root @ s @ inv_root for s in pieces)]


def _to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def write_instance(path: Path, rng, d: int, n_kraus: int, seed: int) -> dict:
    inst = {
        "dim": d,
        "seed": seed,
        "rho": _density(rng, d),
        "kraus": _kraus(rng, d, n_kraus),
        "povm_m": _projective(rng, d),
        "povm_n": _general_povm(rng, d, 3),
    }
    doc = {k: (v if k in ("dim", "seed") else _to_json(v) if k == "rho" else [_to_json(x) for x in v])
           for k, v in inst.items()}
    path.write_text(json.dumps(doc))
    # Check against the values the program reads back from the file.
    return {k: (v if k in ("dim", "seed") else _from_json(doc[k])) for k, v in inst.items()}


def _from_json(data) -> np.ndarray | list:
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 3:
        return arr[..., 0] + 1j * arr[..., 1]
    return list(arr[..., 0] + 1j * arr[..., 1])


# ---------------------------------------------------------------- workloads


def sweep_small(unravel, seed: int, workdir: Path) -> Workload:
    """d = 2 sweep plus `extremal --in` and `uncertainty --in` on written instances."""
    rng = np.random.default_rng([seed, 1])
    grid = [float(a) for a in SMALL_GRID.split(",")]
    trials, remixings = 10, 100
    ops = []
    # Four short sweeps rather than one long one, so that the first command, whose
    # first row `first_row_s` times, is a small part of the round.
    for k in range(4):
        s = int(rng.integers(0, 1_000_000))
        ops.append(cli_op(
            unravel,
            f"sweep d=2 #{k}",
            ["sweep", "--dim", "2", "--trials", str(trials), "--alpha-grid", SMALL_GRID,
             "--remixings", str(remixings), "--seed", str(s)],
            check_sweep(unravel, 2, trials, s, grid, remixings),
        ))
    for k, n_kraus in enumerate((2, 3, 4, 4)):
        path = workdir / f"sweep_small-{k}.json"
        inst = write_instance(path, rng, 2, n_kraus, int(rng.integers(0, 1_000_000)))
        ops.append(cli_op(unravel, f"extremal {path.name}",
                          ["extremal", "--in", str(path), "--alpha-grid", SMALL_GRID, "--remixings", "200"],
                          _check_extremal_cli(unravel, inst, grid, 200)))
        alpha = float(rng.uniform(0.6, 3.0))
        for factor in ("g", "f", "fbar"):
            for kind in ("tsallis", "renyi"):
                ops.append(cli_op(unravel, f"uncertainty {path.name} {factor} {kind}",
                                  ["uncertainty", "--in", str(path), "--alpha", repr(alpha),
                                   "--factor", factor, "--kind", kind],
                                  _check_uncertainty_cli(inst, alpha, factor, kind)))
    return Workload(ops, warmup=ops)


def _check_extremal_cli(unravel, inst: dict, grid: list, remixings: int):
    def check(rows: list) -> list:
        pr = Problems()
        if not rows or rows[0].get("check_name") != "extremal_summary":
            return ["extremal: first row is not extremal_summary"]
        kraus, rho = inst["kraus"], inst["rho"]
        lambdas = oracle.spectrum(oracle.gram(kraus, rho))
        got = np.asarray(rows[0]["lambdas"])
        pr.true(f"extremal lambdas {got} != Gram spectrum {lambdas}",
                got.shape == lambdas.shape and np.allclose(got, lambdas, rtol=0, atol=VALUE_TOL))
        # The extremal set must be a Kraus set of the same channel whose Gram matrix
        # at rho is diagonal with the lambdas on the diagonal.
        ext = _from_json(rows[0]["extremal_kraus"])
        d = rho.shape[0]
        pr.true("extremal Kraus set is not complete",
                np.allclose(sum(b.conj().T @ b for b in ext), np.eye(d), atol=1e-9))
        pr.true("extremal Gram matrix is not diag(lambdas)",
                np.allclose(oracle.gram(ext, rho), np.diag(lambdas), atol=1e-9))
        us = unravel.linalg.haar_random_unitaries(len(kraus), remixings, inst["seed"])
        _check_extremal_rows(pr, rows[1:], kraus, rho, us, grid)
        return pr

    return check


def _check_uncertainty_cli(inst: dict, alpha: float, factor: str, kind: str):
    def check(rows: list) -> list:
        pr = Problems()
        if len(rows) != 1:
            return [f"uncertainty: {len(rows)} rows, expected 1"]
        m, n, rho = inst["povm_m"], inst["povm_n"], inst["rho"]
        p, q = oracle.probabilities(m, rho), oracle.probabilities(n, rho)
        want = oracle.factor(factor, m, n, rho)
        g, f, fb = (oracle.factor(k, m, n, rho) for k in ("g", "f", "fbar"))
        pr.true(f"oracle chain g <= f <= fbar <= 1 broken ({g}, {f}, {fb})",
                g <= f + 1e-12 and f <= fb + 1e-12 and fb <= 1.0 + 1e-10)
        _check_bound(pr, rows[0], kind, _pair_entropy(kind, p, q, alpha), want)
        return pr

    return check


def sweep_large(unravel, seed: int, workdir: Path) -> Workload:
    """A d = 64 sweep trial: the top of the dimension range the linalg tolerances claim.

    One trial is the whole round, so that a run repeats it as often as it can:
    at ~4 s a trial, every repetition counts towards the median.  Each seed is
    another trial.
    """
    s = int(np.random.default_rng([seed, 2]).integers(0, 1_000_000))
    op = cli_op(unravel, "sweep d=64", ["sweep", "--dim", "64", "--trials", "1", "--seed", str(s)],
                check_sweep(unravel, 64, 1, s, [1.5, 2.0, 3.0], 100))  # the sweep's default grid
    # A full round would take as long as a measured one; a d = 8 trial runs the same code.
    warmup = [cli_op(unravel, "warm-up sweep", ["sweep", "--dim", "8", "--trials", "1"], lambda rows: [])]
    return Workload([op], warmup)


def search_demos(unravel, seed: int, workdir: Path) -> Workload:
    """The Renyi search, the DFT and angle demos, the ensemble bounds and phi-min."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    # alpha >= 1 puts mu on the Fourier side, where basis states saturate ln_mu(d).
    dft_seed, dft_alpha = int(rng.integers(0, 1_000_000)), float(rng.uniform(1.0, 3.0))
    # The first command: long enough (~0.4 s) for `first_row_s` to span several probes.
    ops.append(cli_op(unravel, "demo dft",
                      ["demo", "dft", "--dim", "8", "--alpha", repr(dft_alpha), "--trials", "2000",
                       "--seed", str(dft_seed)],
                      _check_dft(unravel, 8, dft_alpha, 2000, dft_seed)))
    ens_seed, ens_alpha = int(rng.integers(0, 1_000_000)), float(rng.uniform(0.3, 3.0))
    ops.append(cli_op(unravel, "ensemble",
                      ["ensemble", "--dim", "3", "--members", "4", "--alpha", repr(ens_alpha),
                       "--trials", "150", "--seed", str(ens_seed)],
                      _check_ensemble(unravel, 3, 4, ens_alpha, 150, ens_seed)))
    # The angle cases do not depend on the seed: they are the worked example.
    for width, nbins in ANGLE_CASES:
        ops.append(cli_op(unravel, f"demo angle width={width} nbins={nbins}",
                          ["demo", "angle", "--alpha", repr(ANGLE_ALPHA), "--nbins", str(nbins),
                           "--width", repr(width)],
                          _check_angle(unravel, width, nbins)))
    # Fixed, unlike the other inputs: the size of the feasible set it allocates
    # follows gamma and alpha, and it sets the workload's peak memory.
    gamma, phi_alpha = 2.0, 2.0
    ops.append(cli_op(unravel, "phi-min",
                      ["phi-min", "--gamma", repr(gamma), "--alpha", repr(phi_alpha)],
                      _check_phi_min(gamma, phi_alpha)))
    for d, n_kraus in ((2, 3), (3, 4), (4, 3)):
        rho = _density(rng, d)
        a, b = _kraus(rng, d, n_kraus), _kraus(rng, d, n_kraus)
        alpha = float(rng.uniform(1.2, 3.0))
        search_seed = int(rng.integers(0, 1_000_000))
        ops.append(_renyi_pair_op(unravel, rho, a, b, alpha, search_seed))
    return Workload(ops, warmup=ops)


SEARCH_RESTARTS, SEARCH_ITERATIONS = 6, 150


def _renyi_pair_op(unravel, rho, a_ops, b_ops, alpha: float, search_seed: int) -> Op:
    ua = unravel.Unraveling(tuple(a_ops))
    ub = unravel.Unraveling(tuple(b_ops))
    orders = unravel.conjugate_order(alpha)
    cfg = unravel.SearchConfig(alpha=alpha, restarts=SEARCH_RESTARTS,
                               iterations=SEARCH_ITERATIONS, seed=search_seed)

    def call() -> list:
        rep = unravel.extremal_pair_renyi(ua, ub, rho, orders, cfg)
        return [{"check_name": "extremal_pair_renyi", "d": rho.shape[0], "alpha": rep.orders.alpha,
                 "beta": rep.orders.beta, "mu": rep.orders.mu, "lhs": rep.lhs, "rhs": rep.rhs,
                 "slack": rep.slack, "factor": rep.factor}]

    def check(rows: list) -> list:
        pr = Problems()
        if len(rows) != 1:
            return [f"extremal_pair_renyi: {len(rows)} rows"]
        row = rows[0]
        _check_row_common(pr, row)
        f = row["factor"]
        pr.true(f"renyi pair: factor {f!r} outside (0, 1]", 0.0 < f <= 1.0 + 1e-10)
        pr.close("renyi pair: rhs = -2 ln(factor)", row["rhs"], -2.0 * math.log(f), FORMULA_TOL)
        beta, _ = oracle.conjugate(alpha)
        pi_a = oracle.gram(a_ops, rho)
        lam_b = oracle.spectrum(oracle.gram(b_ops, rho))
        searched = row["lhs"] - oracle.renyi(lam_b, beta)
        extremal = oracle.renyi(oracle.spectrum(pi_a), alpha)
        given = oracle.renyi(np.real(np.diag(pi_a)), alpha)
        pr.true(f"renyi pair: searched minimum {searched!r} above the Gram-extremal {extremal!r}",
                searched <= extremal + 1e-12)
        pr.true(f"renyi pair: searched minimum {searched!r} above the input {given!r}",
                searched <= given + 1e-12)
        return pr

    return call_op(f"extremal_pair_renyi d={rho.shape[0]} n={len(a_ops)}", call, check)


def _check_dft(unravel, d: int, alpha: float, trials: int, seed: int):
    """Rows of `demo dft`: the basis state saturates ln_mu(d); random states are
    drawn again as the demo draws them (Ginibre columns from one generator)."""

    def check(rows: list) -> list:
        pr = Problems()
        if len(rows) != trials + 1:
            return [f"demo dft: {len(rows)} rows, expected {trials + 1}"]
        beta, mu = oracle.conjugate(alpha)
        bound = oracle.alpha_log(float(d), mu)
        basis = rows[0]
        _check_row_common(pr, basis)
        pr.true(f"dft basis-state slack {basis['slack']!r} not within 1e-12 of 0", abs(basis["slack"]) <= 1e-12)
        pr.close("dft basis lhs = H_alpha(uniform)", basis["lhs"], oracle.tsallis(np.full(d, 1.0 / d), alpha))
        pr.close("dft basis rhs = ln_mu(d)", basis["rhs"], bound, FORMULA_TOL)
        gen = np.random.default_rng(seed)
        for t, row in enumerate(rows[1:]):
            psi = unravel.linalg.ginibre(gen, d, 1).ravel()
            psi = psi / np.linalg.norm(psi)
            _check_row_common(pr, row)
            pr.close(f"dft trial {t}: rhs", row["rhs"], bound, FORMULA_TOL)
            pr.close(f"dft trial {t}: factor", row["factor"], 1.0 / math.sqrt(d), FORMULA_TOL)
            want = oracle.tsallis(oracle.dft_probabilities(psi), alpha) + oracle.tsallis(np.abs(psi) ** 2, beta)
            pr.close(f"dft trial {t}: lhs", row["lhs"], want)
        return pr

    return check


def _check_ensemble(unravel, d: int, members: int, alpha: float, trials: int, seed: int):
    """Rows of `ensemble`, with the ensembles drawn again under the command's seed
    layout: state at base, mixing unitary at base + 1, weights at base + 2,
    members at base + 3 + k."""
    linalg = unravel.linalg

    def check(rows: list) -> list:
        pr = Problems()
        if len(rows) != 2 * trials:
            return [f"ensemble: {len(rows)} rows, expected {2 * trials}"]
        for t in range(trials):
            base = seed + 1000 * t
            pure, mixed = rows[2 * t], rows[2 * t + 1]
            rho = linalg.random_density(d, d, base)
            lam = np.clip(oracle.spectrum(rho), 0.0, None)
            u = linalg.haar_random_unitary(members, base + 1)
            k = min(members, d)
            weights = (np.abs(u[:, :k]) ** 2) @ lam[:k]
            weights = weights[weights > 1e-14]
            _check_row_common(pr, pure)
            pr.close(f"ensemble {t}: state entropy", pure["rhs"], oracle.tsallis(lam, alpha))
            pr.close(f"ensemble {t}: weight entropy", pure["lhs"], oracle.tsallis(weights / weights.sum(), alpha))
            w = np.random.default_rng(base + 2).dirichlet(np.ones(members))
            omegas = [linalg.random_density(d, d, base + 3 + j) for j in range(members)]
            hs = [oracle.quantum_tsallis(om, alpha) for om in omegas]
            lower = sum(wi * h for wi, h in zip(w, hs))
            mid = oracle.quantum_tsallis(sum(wi * om for wi, om in zip(w, omegas)), alpha)
            upper = sum(wi**alpha * h for wi, h in zip(w, hs)) + oracle.tsallis(w, alpha)
            pr.true(f"ensemble {t}: oracle sandwich broken ({lower}, {mid}, {upper})",
                    lower <= mid + 1e-12 and mid <= upper + 1e-12)
            _check_row_common(pr, mixed)
            pr.close(f"ensemble {t}: sandwich lower", mixed["rhs"], lower)
            pr.close(f"ensemble {t}: sandwich upper", mixed["lhs"], upper)
            pr.close(f"ensemble {t}: sandwich slack", mixed["slack"], min(mid - lower, upper - mid))
        return pr

    return check


def _check_angle(unravel, width: float, nbins: int):
    """Rows of `demo angle`, and the bins behind them against the exact integrals."""

    def check(rows: list) -> list:
        pr = Problems()
        if [r.get("check_name") for r in rows] != ["angle_uniform", "angle_gaussian"]:
            return [f"demo angle: rows {[r.get('check_name') for r in rows]}"]
        beta, mu = oracle.conjugate(ANGLE_ALPHA)
        bound = oracle.alpha_log(float(nbins), mu)
        coeffs = oracle.gaussian_coefficients(ANGLE_TRUNCATION, width)
        exact = oracle.exact_bin_probabilities(coeffs, nbins)
        state = unravel.demos.gaussian_wavepacket(ANGLE_TRUNCATION, width, nbins)
        bins = unravel.demos.bin_probabilities(state)
        err = float(np.max(np.abs(bins - exact)))
        pr.true(f"angle width={width} nbins={nbins}: bins off the exact integrals by {err:.2e} > {BIN_TOL:.0e}",
                err <= BIN_TOL)
        uniform = np.full(nbins, 1.0 / nbins)
        for row, p, q in ((rows[0], uniform, [1.0]), (rows[1], exact, np.abs(coeffs) ** 2)):
            _check_row_common(pr, row)
            pr.close(f"{row['check_name']}: rhs = ln_mu(nbins)", row["rhs"], bound, FORMULA_TOL)
            pr.close(f"{row['check_name']}: factor", row["factor"], 1.0 / math.sqrt(nbins), FORMULA_TOL)
            # A bin error of BIN_TOL moves H_alpha by at most sum_k |dH/dp_k| BIN_TOL.
            tol = BIN_TOL * sum(ANGLE_ALPHA * x ** (ANGLE_ALPHA - 1) for x in p) / (ANGLE_ALPHA - 1)
            want = oracle.tsallis(p, ANGLE_ALPHA) + oracle.tsallis(q, beta)
            pr.true(f"{row['check_name']}: lhs {row['lhs']!r} vs exact {want!r} beyond {tol:.1e}",
                    abs(row["lhs"] - want) <= tol)
        pr.true(f"angle_uniform: slack {rows[0]['slack']!r} not within 1e-12 of 0", abs(rows[0]["slack"]) <= 1e-12)
        return pr

    return check


def _check_phi_min(gamma: float, alpha: float):
    def check(rows: list) -> list:
        pr = Problems()
        if len(rows) != 1:
            return [f"phi-min: {len(rows)} rows"]
        row = rows[0]
        _check_row_common(pr, row)
        pr.close("phi-min: rhs = closed form", row["rhs"], oracle.phi_min(gamma, alpha), FORMULA_TOL)
        pr.true(f"phi-min: grid minimum {row['lhs']!r} more than 1e-4 above the closed form",
                row["slack"] <= 1e-4)
        return pr

    return check


WORKLOADS = {"sweep_small": sweep_small, "sweep_large": sweep_large, "search_demos": search_demos}
