"""Command-line front end.

Loads or generates problem instances, runs the verification sweeps and the
demonstrations, and emits one report row per line as JSON (default) or CSV.
Exit codes: 0 when every reported slack is >= -1e-9, 1 when one is below (or
NaN), 2 for bad input, 3 for any other failure, reported as an error line on
stderr in place of a traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import bounds, channels, demos, ensembles, linalg
from .entropy import as_prob_vector, conjugate_order, tsallis_entropy

SLACK_TOL = -1e-9

ROW_FIELDS = [
    "check_name",
    "d",
    "alpha",
    "beta",
    "mu",
    "factor_kind",
    "lhs",
    "rhs",
    "slack",
    "factor",
    "seed",
    "wall_time_ms",
]


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]


def matrix_from_json(data, name: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid matrix {name!r}: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"invalid matrix {name!r}: expected nested [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _int_field(doc: dict, key: str, least: int | None = None) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"instance field {key!r} must be a JSON integer, got {json.dumps(value)}")
    if least is not None and value < least:
        raise ValueError(f"instance field {key!r} must be >= {least}, got {value}")
    return value


def _matrix_list(doc: dict, key: str) -> tuple:
    items = doc[key]
    if not isinstance(items, list):
        raise ValueError(f"instance field {key!r} must be a list of matrices")
    return tuple(matrix_from_json(m, f"{key}[{i}]") for i, m in enumerate(items))


def _check_dim(dim: int, key: str, found: int) -> None:
    if found != dim:
        raise ValueError(f"instance field 'dim' is {dim}, but {key!r} acts on dimension {found}")


def load_instance(path: str, needs: tuple = ()) -> dict:
    """Read an instance file.  `needs` names the fields a command requires; they,
    `dim` and `seed` are checked before any matrix is built, and `dim` must match
    the file's operators before the default rho = I/dim is built."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read instance file {path!r}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"instance file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("instance file must hold a JSON object")
    for key in ("dim", *needs):
        if key not in doc:
            raise ValueError(f"instance file misses required field {key!r}")
    dim = _int_field(doc, "dim", least=1)
    # the seed feeds numpy's generators, which take no negative seed
    out = {"dim": dim, "seed": _int_field(doc, "seed", least=0) if "seed" in doc else 0}
    if "kraus" in doc:
        out["kraus"] = channels.Unraveling(_matrix_list(doc, "kraus"))
        _check_dim(dim, "kraus", out["kraus"].dim_in)
    for key in ("povm_m", "povm_n"):
        if key in doc:
            out[key] = bounds.Povm(_matrix_list(doc, key))
            _check_dim(dim, key, out[key].dim)
    # rho is validated by the command that uses it, once
    out["rho"] = matrix_from_json(doc["rho"], "rho") if "rho" in doc else np.eye(dim) / dim
    return out


class Reporter:
    """Writes each row to the stream as it is made, flushed, so a reader sees
    whole rows while a run goes on and keeps them if it is killed."""

    def __init__(self, fmt: str, timing: bool, stream):
        self.fmt = fmt
        self.timing = timing
        self.stream = stream
        self.violated = False
        self._writer = None
        self._t0 = time.perf_counter()

    def row(self, check_name: str, **fields):
        row = {k: None for k in ROW_FIELDS}
        row["check_name"] = check_name
        row.update(fields)
        if self.timing:
            row["wall_time_ms"] = round((time.perf_counter() - self._t0) * 1000.0, 3)
        else:
            row.pop("wall_time_ms")
        if row.get("slack") is not None and not row["slack"] >= SLACK_TOL:
            self.violated = True  # NaN counts as a violation
        if self.fmt == "json":
            self.stream.write(json.dumps({k: v for k, v in row.items() if v is not None}) + "\n")
        else:
            if self._writer is None:
                self._writer = csv.DictWriter(self.stream, fieldnames=ROW_FIELDS)
                self._writer.writeheader()
            self._writer.writerow({k: row.get(k) for k in ROW_FIELDS})
        self.stream.flush()

    def obj(self, payload: dict):
        self.stream.write(json.dumps(payload) + "\n")
        self.stream.flush()

    @property
    def exit_code(self) -> int:
        return 1 if self.violated else 0


def _report_fields(report: bounds.BoundReport, **extra):
    return dict(
        alpha=report.orders.alpha,
        beta=report.orders.beta,
        mu=report.orders.mu,
        lhs=report.lhs,
        rhs=report.rhs,
        slack=report.slack,
        factor=report.factor,
        **extra,
    )


def _parse_grid(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _count(least: int = 1):
    """argparse type for an int >= least."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return parse


def _theorem1(lambdas: np.ndarray, gram: np.ndarray, remixings: int, seed: int):
    """Row fields per order: least Tsallis entropy over `remixings` Haar-random
    remixings of the Gram matrix (lhs) vs that of its spectrum (rhs)."""
    us = linalg.haar_random_unitaries(lambdas.size, remixings, seed)
    probs = channels.remixed_probabilities(gram, us)

    def fields(alpha: float) -> dict:
        h_ex = tsallis_entropy(lambdas, alpha)
        h_remix = float(tsallis_entropy(probs, alpha).min())
        return dict(alpha=alpha, lhs=h_remix, rhs=h_ex, slack=h_remix - h_ex)

    return fields


def cmd_extremal(args, rep: Reporter) -> None:
    inst = load_instance(args.infile, needs=("kraus",))
    a = inst["kraus"]
    result = channels.extremal_unraveling(a, inst["rho"])
    rep.obj(
        {
            "check_name": "extremal_summary",
            "lambdas": [float(x) for x in result.lambdas],
            "extremal_kraus": [matrix_to_json(k) for k in result.extremal.kraus_ops],
        }
    )
    theorem1 = _theorem1(result.lambdas, result.gram, args.remixings, inst["seed"])
    for alpha in _parse_grid(args.alpha_grid):
        rep.row("extremal_vs_remixings", d=a.dim_in, seed=inst["seed"], **theorem1(alpha))


def cmd_uncertainty(args, rep: Reporter) -> None:
    inst = load_instance(args.infile, needs=("povm_m", "povm_n"))
    orders = conjugate_order(args.alpha)
    check = (
        bounds.tsallis_uncertainty_check if args.kind == "tsallis" else bounds.renyi_uncertainty_check
    )
    report = check(inst["povm_m"], inst["povm_n"], inst["rho"], orders, args.factor)
    rep.row(
        f"{args.kind}_uncertainty",
        d=inst["dim"],
        factor_kind=args.factor,
        seed=inst["seed"],
        **_report_fields(report),
    )


def cmd_sweep(args, rep: Reporter) -> None:
    grid = _parse_grid(args.alpha_grid)
    orders = [conjugate_order(alpha) for alpha in grid if alpha > 0.5]
    for trial in range(args.trials):
        base = args.seed + 1000 * trial
        rho = linalg.random_density(args.dim, args.dim, base)
        # the spectrum of the Gram matrix, as extremal_unraveling computes it, without its Kraus set
        gram = channels.gram_matrix(channels.random_unraveling(args.dim, args.dim, base + 1), rho)
        lambdas = as_prob_vector(linalg.hermitian_eig(gram)[0])
        theorem1 = _theorem1(lambdas, gram, args.remixings, base + 2)
        m = bounds.random_projective_povm(args.dim, base + 3)
        n = bounds.random_projective_povm(args.dim, base + 4)
        # one validation of rho and one g serve the chain row and every relation row; the
        # drawn rho is exactly Hermitian, so validation leaves it as is and _f takes it unchecked
        g, reports = bounds._uncertainty_check(m, n, rho, orders, "g", ("tsallis", "renyi"))
        f = bounds._f(m, n, rho)
        fb = bounds.f_bar(m, n)
        chain = min(f - g, fb - f, 1.0 + 1e-10 - fb)
        rep.row("factor_chain", d=args.dim, slack=chain, factor=g, seed=base)
        reports = iter(reports)
        for alpha in grid:
            rep.row("theorem1_tsallis", d=args.dim, seed=base, **theorem1(alpha))
            if alpha <= 0.5:
                continue
            for name in ("theorem2_tsallis", "renyi_relation"):
                rep.row(name, d=args.dim, factor_kind="g", seed=base, **_report_fields(next(reports)))


def cmd_demo(args, rep: Reporter) -> None:
    orders = conjugate_order(args.alpha)

    def row(name: str, d: int, report: bounds.BoundReport) -> None:
        rep.row(name, d=d, factor_kind="fbar", seed=args.seed, **_report_fields(report))

    if args.which == "dft":
        basis = np.zeros(args.dim)
        basis[0] = 1.0
        row("dft_basis_state", args.dim, demos.dft_uncertainty_demo(basis, orders))
        rng = np.random.default_rng(args.seed)
        for trial in range(args.trials):
            psi = linalg.ginibre(rng, args.dim, 1).ravel()
            psi /= np.linalg.norm(psi)
            row("dft_random_state", args.dim, demos.dft_uncertainty_demo(psi, orders))
    else:
        uniform = np.zeros(2 * args.truncation + 1)
        uniform[args.truncation] = 1.0
        state = demos.AngleState(uniform, args.nbins)
        row("angle_uniform", args.nbins, demos.angle_momentum_demo(state, orders))
        packet = demos.gaussian_wavepacket(args.truncation, args.width, args.nbins)
        row("angle_gaussian", args.nbins, demos.angle_momentum_demo(packet, orders))


def cmd_ensemble(args, rep: Reporter) -> None:
    for trial in range(args.trials):
        base = args.seed + 1000 * trial
        rho = linalg.random_density(args.dim, args.dim, base)
        pure = ensembles.ensemble_from_state(rho, args.members, base + 1)
        res = ensembles.pure_ensemble_bounds_check(pure, args.alpha, "tsallis")
        rep.row(
            "pure_ensemble_bound",
            d=args.dim,
            alpha=args.alpha,
            lhs=res.ensemble_entropy,
            rhs=res.state_entropy,
            slack=res.ensemble_entropy - res.state_entropy,
            seed=base,
        )
        rng = np.random.default_rng(base + 2)
        weights = rng.dirichlet(np.ones(args.members))
        members = tuple(
            linalg.random_density(args.dim, args.dim, base + 3 + k) for k in range(args.members)
        )
        mixed = ensembles.MixedEnsemble(weights, members)
        lower, mid, upper = ensembles.mixed_ensemble_bounds_check(mixed, args.alpha)
        rep.row(
            "mixed_ensemble_sandwich",
            d=args.dim,
            alpha=args.alpha,
            lhs=upper,
            rhs=lower,
            slack=min(mid - lower, upper - mid),
            seed=base,
        )


def cmd_phi_min(args, rep: Reporter) -> None:
    problem = bounds.PhiProblem(gamma=args.gamma, alpha=args.alpha)
    analytic, numeric = bounds.phi_min_verify(problem, args.grid)
    rep.row(
        "phi_min",
        alpha=args.alpha,
        lhs=numeric,
        rhs=analytic,
        slack=numeric - analytic,
        factor=args.gamma,
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="unravel", description=__doc__)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--timing", action="store_true", help="include wall_time_ms in rows")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("extremal", help="Gram spectrum and extremal-vs-remixing sweep")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--alpha-grid", default="0.3,0.7,1.0,1.5,2,5")
    s.add_argument("--remixings", type=_count(), default=200)
    s.set_defaults(func=cmd_extremal)

    s = sub.add_parser("uncertainty", help="one uncertainty bound report")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--factor", choices=("g", "f", "fbar"), default="g")
    s.add_argument("--kind", choices=("tsallis", "renyi"), default="tsallis")
    s.set_defaults(func=cmd_uncertainty)

    s = sub.add_parser("sweep", help="randomized verification sweep")
    s.add_argument("--dim", type=_count(), required=True)
    s.add_argument("--trials", type=_count(0), required=True)
    s.add_argument("--alpha-grid", default="1.5,2,3")
    s.add_argument("--remixings", type=_count(), default=100)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_sweep)

    s = sub.add_parser("demo", help="worked examples")
    s.add_argument("which", choices=("dft", "angle"))
    s.add_argument("--dim", type=_count(), default=2)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--trials", type=_count(0), default=0)
    s.add_argument("--nbins", type=_count(), default=8)
    s.add_argument("--L", dest="truncation", type=int, default=50)
    s.add_argument("--width", type=float, default=3.0)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_demo)

    s = sub.add_parser("ensemble", help="ensemble entropy bounds sweep")
    s.add_argument("--dim", type=_count(), required=True)
    s.add_argument("--members", type=_count(), required=True)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--trials", type=_count(0), required=True)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_ensemble)

    s = sub.add_parser("phi-min", help="constrained-minimum verifier")
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--grid", type=int, default=2000)
    s.set_defaults(func=cmd_phi_min)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rep = Reporter(args.format, args.timing, sys.stdout)
    try:
        args.func(args, rep)
    except ValueError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    except Exception as exc:
        sys.stderr.write(json.dumps({"error": f"{type(exc).__name__}: {exc}"}) + "\n")
        return 3
    return rep.exit_code


if __name__ == "__main__":
    sys.exit(main())
