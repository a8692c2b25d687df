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
import math
import os
import select
import sys
import time

import numpy as np

from . import bounds, channels, demos, ensembles, linalg
from .entropy import _entropy, _normalized, conjugate_order

SLACK_TOL = -1e-9

# The fields of a report row: the order of the keys in each JSON row (keys not
# listed here follow, in the order given), and the CSV header.  Reporter.table
# renders a block's rows from its columns with one json.dumps call; each line is
# json.dumps of the row's dict, byte for byte.  --timing: one wall_time_ms a table.
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
    in the order given, less the fields that are None, from one json.dumps call
    a table (_json_table); or as csv.DictWriter writes the ROW_FIELDS.
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
        trials = next((len(v) for _, fields in shapes for v in fields.values() if isinstance(v, list)), 1)
        for _, fields in shapes:
            slack = fields.get("slack")
            slacks = slack if isinstance(slack, list) else [] if slack is None else [slack]
            if trials and not all(s >= SLACK_TOL for s in slacks):
                self.violated = True  # NaN counts as a violation; a table of no trials has no row
        wall_time_ms = round((time.perf_counter() - self._t0) * 1000.0, 3) if self.timing else None
        rows = [_ordered(name, fields, wall_time_ms) for name, fields in shapes]
        self._write(_json_table(rows) if self.fmt == "json" else self._csv_table(rows, trials))

    def _csv_table(self, rows: list, trials: int) -> str:
        """The table's CSV lines, the header first in a run's first table."""
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
    """The table's JSON lines, from one json.dumps call (_cells) over its keys and
    constants in row order, then its cells in trial order.  One trial's lines are a
    template of the keys and constants with a %s for each column's cell, filled by
    each trial's cells in turn.  A table without columns is one trial with no cells."""
    shapes = [{k: v for k, v in row.items() if v is not None} for row in rows]
    columns = [v for fields in shapes for v in fields.values() if isinstance(v, list)]
    values = [x for fields in shapes for k, v in fields.items() for x in ((k,) if isinstance(v, list) else (k, v))]
    start, values = len(values), values + [None] * sum(map(len, columns))
    for i, column in enumerate(columns):
        values[start + i :: len(columns)] = column
    text = iter(_cells(values))  # held by this iterator alone, so the cells are freed before the join
    # a NUL marks each cell, since the encoder writes no control character
    template = "".join(
        "{" + ", ".join([f"{next(text)}: {chr(0) if isinstance(v, list) else next(text)}" for v in fields.values()]) + "}\n"
        for fields in shapes
    )
    template = template.replace("%", "%%").replace(chr(0), "%s")
    cells = zip(*[text] * len(columns)) if columns else [()]
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


def _theorem1(lambdas: np.ndarray, slices, grid: list) -> tuple:
    """The least Tsallis entropy of the remixed distributions (lhs) and that of the
    Gram spectrum lambdas (rhs), both normalized where they were built, at the K
    orders of the grid: (K,) each for lambdas (n,) and slices (r, n); (K, T) for
    stacks, lambdas (T, n) and slices (T, r, n).  Each slice along the remixing axis
    (_remixed) is folded in with np.minimum, exact since no entropy is -0.0 and NaN
    propagates either way; its entropies take the grid in chunks whose stacked terms
    hold at most linalg.BLOCK_ELEMENTS entries beyond one order's."""

    def least(probs: np.ndarray) -> np.ndarray:
        step = 1 + linalg.BLOCK_ELEMENTS // probs.size
        chunks = [grid[i : i + step] for i in range(0, len(grid), step)]
        return np.concatenate([_entropy(probs, orders, "tsallis").min(axis=-1) for orders in chunks])

    return functools.reduce(np.minimum, map(least, slices)), _entropy(lambdas, grid, "tsallis")


def _remixed(pi: np.ndarray, slices):
    """channels.remixed_probabilities(pi, linalg.positive_qr(z)), lazily, for Gram matrices pi
    (..., n, n) and each slice z (..., r, n, n) of the Ginibre draw of their R remixings
    (linalg.ginibre_slices): a slice is made unitary and applied when the caller asks for it,
    so no R-long draw, stack of unitaries or product is held.  QR, the stacked product and
    vecdot each act per matrix, so the slices change no bit."""
    return (channels.remixed_probabilities(pi, linalg.positive_qr(z)) for z in slices)


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
    # haar_random_unitaries' draw, drawn, made unitary and applied a slice at a time
    states = linalg._seed_states((inst["seed"],))
    slices = linalg.ginibre_slices(states, args.remixings, a.n_ops, a.n_ops)
    lhs, rhs = _theorem1(result.lambdas, (probs[0] for probs in _remixed(result.gram, slices)), args.alpha_grid)
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


def _run_plan(rep: Reporter, trials: int, seed: int, plan: list, compute) -> None:
    """Run a stacked command's trials (_stream_trials) from its plan, the (fill, shape)
    stages of a trial: stage k of trial t fills from seed seed + 1000·t + k.  compute(bases,
    draw) yields the row groups of the trials with base seeds bases, each as soon as it is
    made; draw(k) is stage k's fill over them, made when called, in any order of the stages,
    from the seeds of every stage, hashed once per block."""

    def block(bases: range):
        states = linalg._seed_states([b + k for k in range(len(plan)) for b in bases]).reshape(len(plan), -1, 4)
        return compute(bases, lambda k: plan[k][0](states[k], *plan[k][1]))

    per_trial = sum(math.prod(shape) for _, shape in plan)
    _stream_trials(rep, trials, per_trial, lambda start, stop: range(seed + 1000 * start, seed + 1000 * stop, 1000), block)


def cmd_sweep(args, rep: Reporter) -> None:
    d, grid = args.dim, args.alpha_grid
    orders = [conjugate_order(alpha) for alpha in grid if alpha > 0.5]

    # the draws of random_density, random_unraveling, haar_random_unitaries and the two
    # random_projective_povm; the remixings (stage 2) are drawn, made and applied a slice at a time
    plan = [(linalg.ginibre_stack, (d, d)), (linalg.ginibre_stack, (d * d, d))]
    plan += [(linalg.ginibre_slices, (args.remixings, d, d))] + [(linalg.ginibre_stack, (d, d))] * 2

    def compute(bases: range, draw):
        # every check of a trial's draws comes before its first group: the state's, the
        # Kraus set's completeness and the POVM pair's, so bad input leaves no part of a trial
        rho, w, v = linalg.density_spectrum(linalg._densities(draw(0)), vectors=True)
        kraus, x = channels._isometry_factors(draw(1), d)  # blocks and Cholesky QR factors; d = 1 (square): operators, None
        m, n = bounds._projective_pair(np.stack([draw(3), draw(4)]))
        p, q, g, inverse_square = bounds._factor(m, n, (rho,), "g")  # the outcome weights, g and g^-2
        f, fb = bounds._f(m, n, w, v), bounds._f_bar(m, n)
        del m, n, w, v  # the POVM roots and the eigenvectors, once the row is made
        chain = np.minimum(np.minimum(f - g, fb - f), 1.0 + 1e-10 - fb)
        seed, factor = list(bases), g.tolist()
        # the factor_chain row reads only rho and the POVM pair (g, f and f_bar), so it
        # leaves before the relation entropies, the Gram matrix and the remixings
        yield [("factor_chain", dict(d=d, slack=chain.tolist(), factor=factor, seed=seed))]
        reports = bounds._relations(p, q, g, inverse_square, orders, ("tsallis", "renyi"))
        gram = channels._gram(kraus, channels._factored_state(x, rho))
        del kraus  # before the remixings are drawn
        lambdas = _normalized(linalg._descending_eig(gram)[0])
        remixed, extremal = _theorem1(lambdas, _remixed(gram, draw(2)), grid)
        table = []
        # per order > 1/2: its orders, then the tsallis and the renyi relation's columns
        relations = zip(orders, *[zip(r.lhs.tolist(), r.rhs.tolist(), r.slack.tolist()) for r in reports])
        for alpha, lhs, rhs, slack in zip(grid, remixed.tolist(), extremal.tolist(), (remixed - extremal).tolist()):
            table.append(("theorem1_tsallis", dict(d=d, seed=seed, alpha=alpha, lhs=lhs, rhs=rhs, slack=slack)))
            if alpha > 0.5:
                o, *kinds = next(relations)
                for name, (lhs, rhs, slack) in zip(("theorem2_tsallis", "renyi_relation"), kinds):
                    columns = dict(alpha=o.alpha, beta=o.beta, mu=o.mu, lhs=lhs, rhs=rhs, slack=slack, factor=factor)
                    table.append((name, dict(d=d, factor_kind="g", seed=seed, **columns)))
        yield table

    _run_plan(rep, args.trials, args.seed, plan, compute)


def _stream_trials(rep: Reporter, trials: int, per_trial: int, draw, compute) -> None:
    """Run trials 0..trials-1 in blocks of at most linalg.BLOCK_ELEMENTS // per_trial,
    the first block of trial 0 alone, so the first rows never wait for a full block,
    and write each block's rows before the next block starts.

    draw(start, stop) gives the inputs of trials start..stop-1 as one sliceable
    object (a range of base seeds, or an array with one row per trial);
    compute(inputs) makes one kernel call per quantity over those trials, each
    stage drawing its seeded arrays when it starts, and yields their rows in groups
    (lists of row shapes of Reporter.table), each as soon as it is made.  A block of one
    trial writes each group at once, so a trial's early rows do not wait for its late
    stages.  A block of several trials writes its groups' shapes as one table after the
    last group: the table interleaves the rows by trial, so its bytes are those of the
    groups written in turn, and an error leaves no part of the block.  If a block of
    several trials meets bad input (ValueError, numpy's LinAlgError too), compute runs
    again on one trial at a time: the rows of the trials before the one that raises are
    written, and its error propagates; if none raises, the block's error ends the run as
    a fault (exit 3), after their rows.  Any other error propagates at once: no block is
    computed twice.
    """
    size = max(1, linalg.BLOCK_ELEMENTS // per_trial)
    start = 0
    while start < trials:
        stop = min(start + size, trials) if start else 1
        inputs = draw(start, stop)
        if len(inputs) == 1:
            for group in compute(inputs):
                rep.table(group)
        else:
            try:
                table = [shape for group in compute(inputs) for shape in group]
            except ValueError as exc:
                for i in range(len(inputs)):
                    for group in compute(inputs[i : i + 1]):
                        rep.table(group)
                raise RuntimeError(
                    f"trials {start}..{stop - 1} raised {type(exc).__name__} as a block, and none alone: {exc}"
                ) from exc
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
            # not normalized in place: a block that meets bad input runs again on its own inputs
            psi = z / linalg.vector_norm(z)[:, None]
            yield [("dft_random_state", fields(d, demos.dft_uncertainty_demo(psi, orders)))]

        # the trials' draws are those of linalg.ginibre(rng, d) trial by trial
        _stream_trials(rep, args.trials, d, lambda start, stop: linalg.ginibre_draws(rng, stop - start, d), compute)
    else:
        uniform = np.zeros(2 * args.truncation + 1)
        uniform[args.truncation] = 1.0
        state = demos.AngleState(uniform, args.nbins)
        rep.row("angle_uniform", **fields(args.nbins, demos.angle_momentum_demo(state, orders)))
        packet = demos.gaussian_wavepacket(args.truncation, args.width, args.nbins)
        rep.row("angle_gaussian", **fields(args.nbins, demos.angle_momentum_demo(packet, orders)))


def cmd_ensemble(args, rep: Reporter) -> None:
    d, m, alpha = args.dim, args.members, args.alpha

    # the state, the mixing unitary, the mixture's weights and its members
    plan = [(linalg.ginibre_stack, (d, d)), (linalg.ginibre_stack, (m, m)), (linalg.exponential_stack, (m,))]
    plan += [(linalg.ginibre_stack, (d, d))] * m

    def compute(bases: range, draw):
        _, w, v = linalg.density_spectrum(linalg._densities(draw(0)), vectors=True)
        weights, states = ensembles._pure_members(w, v, linalg.positive_qr(draw(1)))
        state_h, weight_h = ensembles._pure_bounds(weights, states, alpha, "tsallis")
        common = dict(d=d, alpha=alpha, seed=list(bases))
        pure = dict(lhs=weight_h.tolist(), rhs=state_h.tolist(), slack=(weight_h - state_h).tolist())
        # numpy's dirichlet(np.ones(m)) bit for bit: gamma(1) draws, times 1 / their left-to-right sum
        e = draw(2)
        mix_weights = _normalized(e * (1 / np.add.accumulate(e, axis=-1)[:, -1:]))
        members = linalg._densities(np.stack([draw(3 + k) for k in range(m)], axis=1))
        members, spectra = linalg.density_spectrum(members, name="member")
        # every check of a trial's draws (its state's, its members') comes before its first
        # group, so bad input leaves no part of a trial; the sandwich is computed after it
        yield [("pure_ensemble_bound", dict(common, **pure))]
        lower, mid, upper = ensembles._sandwich(mix_weights, members, spectra, alpha)
        mixed = dict(lhs=upper.tolist(), rhs=lower.tolist(), slack=np.minimum(mid - lower, upper - mid).tolist())
        yield [("mixed_ensemble_sandwich", dict(common, **mixed))]

    _run_plan(rep, args.trials, args.seed, plan, compute)


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

    demo = sub.add_parser("demo", help="worked examples").add_subparsers(dest="which", required=True)
    s = demo.add_parser("dft", help="DFT pair: the basis state and seeded random states")
    s.add_argument("--dim", type=_count(), default=2)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--trials", type=_count(0), default=0)
    s.add_argument("--seed", type=_count(0), default=0)
    s = demo.add_parser("angle", help="angle and angular momentum: the uniform state and a Gaussian packet")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--nbins", type=_count(), default=8)
    s.add_argument("--L", dest="truncation", type=_count(0), default=50)
    s.add_argument("--width", type=_positive, default=3.0)
    s.set_defaults(seed=0)  # the angle states draw nothing; their rows keep seed 0

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
