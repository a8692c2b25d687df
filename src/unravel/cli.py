"""Command-line front end.

Loads or generates problem instances, runs the verification sweeps and the
demonstrations, and emits one report row per line as JSON (default) or CSV.
Exit codes: 0 when every reported slack is >= -1e-9, 1 when one is below (or
NaN), 2 for bad input, 3 for any other failure, reported as an error line on
stderr in place of a traceback; a reader that closes stdout or stderr early
(`| head`) gives 3 as well.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import select
import sys
import time

import numpy as np

from . import bounds, channels, demos, ensembles, linalg
from .entropy import _entropy, _normalized, conjugate_order

SLACK_TOL = -1e-9

# Stacked elements per block of trials in `sweep`, `demo dft` and `ensemble`: the
# complex entries that all the stages of a block draw (each stage draws its own
# when it starts), so memory stays bounded whatever --trials is.  The first block
# holds one trial, so the first rows never wait for a full block.
BLOCK_ELEMENTS = 1 << 16

# The fields of a report row: the order of the keys in each JSON row (keys not
# listed here follow, in the order given), and the CSV header.  Reporter.table
# renders a block's rows from its columns; each JSON line is json.dumps of the
# row's dict, byte for byte, and --timing gives one wall_time_ms per table.
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
    """Writes rows to the stream as they are made, flushed, so a reader sees
    whole rows while a run goes on and keeps them if it is killed: each table
    of rows as few writes of whole lines as PIPE_BUF allows, each flushed.

    A table is a list of row shapes, (check_name, fields) pairs.  A field whose
    value is a list is a column, one number per trial, with the same count in
    every column of the table; every other field is constant.  The table's
    rows are those of its shapes in order for trial 0, then for trial 1, and so
    on; a table without columns is one trial.  Each row is written as
    json.dumps of a dict of its fields in ROW_FIELDS order, then the other keys
    in the order given, less the fields that are None (or in the CSV bytes that
    csv.DictWriter writes for the ROW_FIELDS).
    """

    def __init__(self, fmt: str, timing: bool, stream):
        self.fmt = fmt
        self.timing = timing
        self.stream = stream
        self.violated = False
        self._csv = io.StringIO()  # the csv writer writes here, and the text is taken out
        self._writer = None
        self._t0 = time.perf_counter()

    def row(self, check_name: str, **fields):
        self.table([(check_name, fields)])

    def table(self, shapes) -> None:
        """Write the rows of a table (see the class) as one piece of text."""
        for _, fields in shapes:
            slack = fields.get("slack")
            slacks = slack if isinstance(slack, list) else [] if slack is None else [slack]
            if not all(s >= SLACK_TOL for s in slacks):
                self.violated = True  # NaN counts as a violation
        wall_time_ms = round((time.perf_counter() - self._t0) * 1000.0, 3) if self.timing else None
        rows = [_ordered(name, fields, wall_time_ms) for name, fields in shapes]
        self._write(_json_table(rows) if self.fmt == "json" else self._csv_table(rows))

    def _csv_table(self, rows: list) -> str:
        """The table's CSV lines, the header first in a run's first table."""
        trials = next((len(v) for row in rows for v in row.values() if isinstance(v, list)), 1)
        # zip(*list), not zip(*iterator): unpacking an iterator builds its argument tuple
        # by resizing, and each such tuple, once freed, is one more entry on CPython's
        # free list of its size (to 2000): memory that grows with the blocks of a run
        per_shape = [
            zip(*[v if isinstance(v, list) else itertools.repeat(v, trials) for v in map(row.get, ROW_FIELDS)])
            for row in rows
        ]
        lines = list(itertools.chain.from_iterable(zip(*per_shape)))
        if not lines:
            return ""
        if self._writer is None:
            self._writer = csv.writer(self._csv)
            self._writer.writerow(ROW_FIELDS)
        self._writer.writerows(lines)
        text = self._csv.getvalue()
        self._csv.seek(0)
        self._csv.truncate()
        return text

    def obj(self, payload: dict):
        """Write a JSON object line, in JSON output only: CSV has no columns for it."""
        if self.fmt == "json":
            self._write(json.dumps(payload) + "\n")

    def _write(self, text: str) -> None:
        """Write text in pieces of whole lines, each flushed, of at most PIPE_BUF
        bytes unless one line is longer.  POSIX makes a pipe write of at most
        PIPE_BUF bytes atomic, so a run killed while a reader is behind leaves
        no part of a row in the pipe; one write of a large table would leave
        what fitted.  The rows are ASCII, so characters count bytes."""
        start = 0
        while start < len(text):
            stop = text.rfind("\n", start, start + select.PIPE_BUF) + 1 or text.find("\n", start) + 1 or len(text)
            self.stream.write(text[start:stop])
            self.stream.flush()
            start = stop

    @property
    def exit_code(self) -> int:
        return 1 if self.violated else 0


def _ordered(check_name: str, fields: dict, wall_time_ms) -> dict:
    """A row shape's fields in row order: ROW_FIELDS, then the other keys as given."""
    row = dict.fromkeys(ROW_FIELDS)
    row["check_name"] = check_name
    row.update(fields)
    row["wall_time_ms"] = wall_time_ms
    return row


def _cells(values: list) -> list:
    """The JSON text of each value, from one encoder call over the list.  The
    encoder separates the items with ", ", which no number's text holds; values
    whose text does (a string with ", ", say) are encoded one by one."""
    cells = json.dumps(values)[1:-1].split(", ")
    return cells if len(cells) == len(values) else [json.dumps(v) for v in values]


def _json_table(rows: list) -> str:
    """The table's JSON lines.  One trial's lines are a template that holds the
    keys and the constants, encoded in one json.dumps call, and a %s for each
    column's cell; each column is encoded with one json.dumps call.  A table
    without columns is one trial with no cells."""
    shapes = [{k: v for k, v in row.items() if v is not None} for row in rows]
    columns = [v for fields in shapes for v in fields.values() if isinstance(v, list)]
    keys = [k for fields in shapes for k in fields]
    text = _cells(keys + [v for fields in shapes for v in fields.values() if not isinstance(v, list)])
    key_text, value_text = iter(text), iter(text[len(keys) :])
    # a NUL marks each cell, since the encoder writes no control character
    template = "".join(
        "{" + ", ".join([f"{next(key_text)}: {chr(0) if isinstance(v, list) else next(value_text)}" for v in fields.values()]) + "}\n"
        for fields in shapes
    )
    template = template.replace("%", "%%").replace(chr(0), "%s")
    cells = zip(*[_cells(column) for column in columns]) if columns else [()]
    return "".join(map(template.__mod__, cells))  # see _csv_table


def _report_fields(report: bounds.BoundReport, **extra):
    """A report's fields for a row shape: arrays of a stacked report as columns."""
    lhs, rhs, slack, factor = (
        v.tolist() if isinstance(v, np.ndarray) else v for v in (report.lhs, report.rhs, report.slack, report.factor)
    )
    orders = report.orders
    return dict(alpha=orders.alpha, beta=orders.beta, mu=orders.mu, lhs=lhs, rhs=rhs, slack=slack, factor=factor, **extra)


def _positive(text: str) -> float:
    """argparse type for a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text.strip()}")
    return value


def _orders(text: str) -> list[float]:
    """argparse type for a non-empty comma-separated list of entropy orders, each
    finite and > 0."""
    orders = [_positive(t) for t in text.split(",") if t.strip()]
    if not orders:
        raise argparse.ArgumentTypeError(f"needs at least one order, got {text!r}")
    return orders


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


def _theorem1(lambdas: np.ndarray, probs: np.ndarray, alpha: float) -> tuple:
    """The least Tsallis entropy of the remixed distributions probs (lhs) and
    that of the Gram spectrum lambdas (rhs), both normalized where they were
    built: one value each for one instance, lambdas (n,) and probs
    (remixings, n); one per trial for stacks, lambdas (T, n) and probs
    (T, remixings, n)."""
    return _entropy(probs, alpha, "tsallis").min(axis=-1), _entropy(lambdas, alpha, "tsallis")


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
    us = linalg.haar_random_unitaries(a.n_ops, args.remixings, inst["seed"])
    probs = channels.remixed_probabilities(result.gram, us)
    # one (lhs, rhs) pair per order, as two columns
    lhs, rhs = np.reshape([_theorem1(result.lambdas, probs, alpha) for alpha in args.alpha_grid], (-1, 2)).T
    columns = dict(alpha=args.alpha_grid, lhs=lhs.tolist(), rhs=rhs.tolist(), slack=(lhs - rhs).tolist())
    rep.table([("extremal_vs_remixings", dict(d=a.dim_in, seed=inst["seed"], **columns))])


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


def _trial_seeds(seed: int):
    """draw for _stream_trials: the base seeds seed + 1000·t of trials start..stop-1,
    Python ints at any size."""
    return lambda start, stop: range(seed + 1000 * start, seed + 1000 * stop, 1000)


def cmd_sweep(args, rep: Reporter) -> None:
    d, grid = args.dim, args.alpha_grid
    orders = [conjugate_order(alpha) for alpha in grid if alpha > 0.5]

    def compute(bases: range):
        # each stage draws its trials' Ginibre arrays when it starts: those of random_density,
        # random_unraveling, haar_random_unitaries and the two random_projective_povm, at base + 0..4
        rho, w, v = linalg.density_spectrum(linalg._densities(linalg.ginibre_stack(bases, d, d)), name="rho", vectors=True)
        kraus = channels._isometry_kraus(linalg.ginibre_stack([b + 1 for b in bases], d * d, d), d)
        channels._check_complete(kraus)
        gram = channels._gram(kraus, rho)
        del kraus  # before the remixings are drawn
        lambdas = _normalized(linalg._descending_eig(gram)[0])
        probs = channels.remixed_probabilities(
            gram, linalg.positive_qr(linalg.ginibre_stack([b + 2 for b in bases], args.remixings, d, d))
        )
        m = bounds._projective(linalg.positive_qr(linalg.ginibre_stack([b + 3 for b in bases], d, d)))
        n = bounds._projective(linalg.positive_qr(linalg.ginibre_stack([b + 4 for b in bases], d, d)))
        g, reports = bounds._reports(m, n, (rho,), orders, "g", ("tsallis", "renyi"))
        f, fb = bounds._f(m, n, w, v), bounds._f_bar(m, n)
        chain = np.minimum(np.minimum(f - g, fb - f), 1.0 + 1e-10 - fb)
        seed = list(bases)
        table = [("factor_chain", dict(d=d, slack=chain.tolist(), factor=g.tolist(), seed=seed))]
        relation = iter(reports)
        for alpha in grid:
            lhs, rhs = _theorem1(lambdas, probs, alpha)
            theorem1 = dict(alpha=alpha, lhs=lhs.tolist(), rhs=rhs.tolist(), slack=(lhs - rhs).tolist())
            table.append(("theorem1_tsallis", dict(d=d, seed=seed, **theorem1)))
            if alpha > 0.5:
                for name in ("theorem2_tsallis", "renyi_relation"):
                    table.append((name, dict(d=d, factor_kind="g", seed=seed, **_report_fields(next(relation)))))
        return table

    _stream_trials(rep, args.trials, d * d * (d + args.remixings + 3), _trial_seeds(args.seed), compute)


def _stream_trials(rep: Reporter, trials: int, per_trial: int, draw, compute) -> None:
    """Run trials 0..trials-1 in blocks of at most BLOCK_ELEMENTS // per_trial,
    the first block of trial 0 alone, and write each block's rows before the
    next block starts.

    draw(start, stop) gives the inputs of trials start..stop-1 as one sliceable
    object (a range of base seeds, or an array with one row per trial);
    compute(inputs) makes one kernel call per quantity over those trials, each
    stage drawing its seeded arrays when it starts, and returns their rows as a
    table of Reporter.table, in trial order.  If a block of several trials
    raises, compute runs again on one trial at a time: the rows of the trials
    before the one that raises are written, and its error propagates.
    """
    size = max(1, BLOCK_ELEMENTS // per_trial)
    start = 0
    while start < trials:
        stop = min(start + size, trials) if start else 1
        inputs = draw(start, stop)
        try:
            tables = [compute(inputs)]
        except Exception:
            if len(inputs) == 1:
                raise
            tables = (compute(inputs[i : i + 1]) for i in range(len(inputs)))
        for table in tables:
            rep.table(table)
        start = stop


def cmd_demo(args, rep: Reporter) -> None:
    orders = conjugate_order(args.alpha)

    def fields(d: int, report: bounds.BoundReport) -> dict:
        return dict(d=d, factor_kind="fbar", seed=args.seed, **_report_fields(report))

    if args.which == "dft":
        d = args.dim
        basis = np.zeros(d)
        basis[0] = 1.0
        rep.row("dft_basis_state", **fields(d, demos.dft_uncertainty_demo(basis, orders)))
        rng = np.random.default_rng(args.seed)

        def compute(z: np.ndarray):
            # each trial's real parts, then its imaginary parts: the stream that
            # linalg.ginibre(rng, d, 1) draws trial by trial
            psi = linalg._complex_gaussian(z[:, 0], z[:, 1])
            psi /= linalg.vector_norm(psi)[:, None]
            return [("dft_random_state", fields(d, demos.dft_uncertainty_demo(psi, orders)))]

        _stream_trials(rep, args.trials, d, lambda start, stop: rng.standard_normal((stop - start, 2, d)), compute)
    else:
        uniform = np.zeros(2 * args.truncation + 1)
        uniform[args.truncation] = 1.0
        state = demos.AngleState(uniform, args.nbins)
        rep.row("angle_uniform", **fields(args.nbins, demos.angle_momentum_demo(state, orders)))
        packet = demos.gaussian_wavepacket(args.truncation, args.width, args.nbins)
        rep.row("angle_gaussian", **fields(args.nbins, demos.angle_momentum_demo(packet, orders)))


def cmd_ensemble(args, rep: Reporter) -> None:
    d, m, alpha = args.dim, args.members, args.alpha

    def compute(bases: range):
        # seeds: the state at base, the mixing unitary at base + 1, the mixture's
        # weights at base + 2 and its members at base + 3 + k; the Ginibre draws of
        # random_density and haar_random_unitary, each drawn when its stage starts
        _, w, v = linalg.density_spectrum(linalg._densities(linalg.ginibre_stack(bases, d, d)), name="rho", vectors=True)
        weights, states = ensembles._pure_members(w, v, linalg.positive_qr(linalg.ginibre_stack([b + 1 for b in bases], m, m)))
        state_h, weight_h = ensembles._pure_bounds(weights, states, alpha, "tsallis")
        mix_weights = np.stack([np.random.default_rng(b + 2).dirichlet(np.ones(m)) for b in bases])
        members = linalg.ginibre_stack([b + 3 + k for b in bases for k in range(m)], d, d).reshape(len(bases), m, d, d)
        members, spectra = linalg.density_spectrum(linalg._densities(members), name="member")
        lower, mid, upper = ensembles._sandwich(_normalized(mix_weights), members, spectra, alpha)
        common = dict(d=d, alpha=alpha, seed=list(bases))
        pure = dict(lhs=weight_h.tolist(), rhs=state_h.tolist(), slack=(weight_h - state_h).tolist())
        mixed = dict(lhs=upper.tolist(), rhs=lower.tolist(), slack=np.minimum(mid - lower, upper - mid).tolist())
        return [("pure_ensemble_bound", dict(common, **pure)), ("mixed_ensemble_sandwich", dict(common, **mixed))]

    _stream_trials(rep, args.trials, (m + 1) * d * d + m * m, _trial_seeds(args.seed), compute)


def cmd_phi_min(args, rep: Reporter) -> None:
    problem = bounds.PhiProblem(gamma=args.gamma, alpha=args.alpha)
    analytic, numeric = bounds.phi_min_verify(problem)
    rep.row(
        "phi_min",
        alpha=args.alpha,
        lhs=numeric,
        rhs=analytic,
        slack=numeric - analytic,
        factor=args.gamma,
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; main looks each command's function
    up when it runs."""
    p = argparse.ArgumentParser(prog="unravel", description=__doc__)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--timing", action="store_true", help="include wall_time_ms in rows")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("extremal", help="Gram spectrum and extremal-vs-remixing sweep")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--alpha-grid", type=_orders, default="0.3,0.7,1.0,1.5,2,5")
    s.add_argument("--remixings", type=_count(), default=200)

    s = sub.add_parser("uncertainty", help="one uncertainty bound report")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--factor", choices=("g", "f", "fbar"), default="g")
    s.add_argument("--kind", choices=("tsallis", "renyi"), default="tsallis")

    s = sub.add_parser("sweep", help="randomized verification sweep")
    s.add_argument("--dim", type=_count(), required=True)
    s.add_argument("--trials", type=_count(0), required=True)
    s.add_argument("--alpha-grid", type=_orders, default="1.5,2,3")
    s.add_argument("--remixings", type=_count(), default=100)
    s.add_argument("--seed", type=_count(0), default=0)

    s = sub.add_parser("demo", help="worked examples")
    s.add_argument("which", choices=("dft", "angle"))
    s.add_argument("--dim", type=_count(), default=2)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--trials", type=_count(0), default=0)
    s.add_argument("--nbins", type=_count(), default=8)
    s.add_argument("--L", dest="truncation", type=_count(0), default=50)
    s.add_argument("--width", type=_positive, default=3.0)
    s.add_argument("--seed", type=_count(0), default=0)

    s = sub.add_parser("ensemble", help="ensemble entropy bounds sweep")
    s.add_argument("--dim", type=_count(), required=True)
    s.add_argument("--members", type=_count(), required=True)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--trials", type=_count(0), required=True)
    s.add_argument("--seed", type=_count(0), default=0)

    s = sub.add_parser("phi-min", help="constrained-minimum verifier")
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--alpha", type=float, required=True)
    return p


def _fail(message: str, code: int) -> int:
    """Write the error line to stderr and return the exit code, also when stderr
    is a closed pipe."""
    try:
        sys.stderr.write(json.dumps({"error": message}) + "\n")
        sys.stderr.flush()
    except BrokenPipeError:
        _discard(sys.stderr)
    return code


def _discard(stream) -> None:
    """Point a standard stream whose reader has gone at the null device, so the
    interpreter's flush at exit finds no broken pipe (which would print a
    complaint and change the exit code)."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no descriptor behind it, so nothing is flushed to one at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    rep = Reporter(args.format, args.timing, sys.stdout)
    try:
        command(args, rep)
    except ValueError as exc:
        return _fail(str(exc), 2)
    except BrokenPipeError as exc:
        _discard(sys.stdout)
        return _fail(f"{type(exc).__name__}: {exc}", 3)
    except Exception as exc:
        return _fail(f"{type(exc).__name__}: {exc}", 3)
    return rep.exit_code


if __name__ == "__main__":
    sys.exit(main())
