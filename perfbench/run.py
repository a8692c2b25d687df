"""Benchmark for `unravel`: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.  The
run measures set-up in fresh interpreters, then repeats whole rounds of the
workload's operations in this process until S seconds have passed (their times
rescaled to a reference host speed, see `Gauge`), checks the outputs against
`oracle`, and prints one JSON object as its last line.  With
--trace 0 that object carries the end-to-end metrics; with --trace 1 untraced
and traced rounds alternate and it carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib.metadata
import json
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process makes the load on a 2-core machine, so BLAS and OpenMP are pinned to
# one thread before numpy loads; set-up children inherit the same environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench-runs"

SETUP_SAMPLES = 15
PROBE_PERIOD_S = 0.05
# Round times are reported at the host speed at which one `Gauge` probe takes this
# long, about its median time on the host of the reference figures.
PROBE_S = 0.002
IMPORTTIME_SAMPLES = 3
READY = "import sys, unravel, unravel.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_fresh_import() -> float:
    """Seconds from starting an interpreter to `unravel.cli` being imported in it."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"fresh interpreter failed to import unravel.cli (exit {code})")
    return ready


def scipy_import_us(importtime: str) -> int:
    """Cumulative microseconds of the outermost scipy imports in `-X importtime` output."""
    entries = []
    for line in importtime.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(3)), int(m.group(2)), m.group(4).split(".")[0] == "scipy"))
    # Children print before their parents; walk backwards to see each entry's ancestors.
    total, stack = 0, []
    for depth, cumulative, is_scipy in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if is_scipy and not any(s for _, s in stack):
            total += cumulative
        stack.append((depth, is_scipy))
    return total


def scipy_import_seconds() -> float:
    """Seconds a fresh interpreter spends importing scipy under `import unravel.cli`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import unravel.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True)
    return scipy_import_us(proc.stderr) / 1e6


def blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded in this process, read from the library."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.strip().endswith(".so")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment() -> dict:
    # Versions from the installed metadata: importing scipy here would put its
    # import in this process even where `unravel` no longer loads it.
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "blas_threads": blas_threads(),
    }


def import_package():
    if not (SRC / "unravel" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'unravel'} not found; run from the root of an unravel checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import unravel
    import unravel.cli

    if Path(unravel.__file__).resolve().parent != (SRC / "unravel").resolve():
        sys.exit(f"error: imported unravel from {unravel.__file__}, not from {SRC}")
    return unravel


class Gauge:
    """Gauges the host's speed while the rounds run.

    This host's other tenants slow the process by up to 2x, in stretches from a
    fraction of a second to minutes, and CPU time inside the VM grows with wall
    time.  So a timer signal runs a small fixed piece of work, independent of
    `unravel`, every PROBE_PERIOD_S seconds, and records when it ran and how long
    it took.  An interval's time less the probes in it, divided by the mean
    probe time in it, moves far less than the interval's time does.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.big = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.small = rng.standard_normal((2, 2))
        self.small = self.small + self.small.T
        self.probes = []  # (start, seconds)

    def _probe(self, signum, frame) -> None:
        # The mix the workloads spend their time on: LAPACK on a 64 x 64 complex
        # matrix, the interpreter's loop, and numpy calls on tiny arrays.
        np = self.np
        start = time.perf_counter()
        for _ in range(2):
            np.linalg.svd(self.big, compute_uv=False)
        total = 0
        for i in range(2_000):
            total += i * i
        for _ in range(20):
            np.linalg.eigvalsh(self.small)
            np.abs(self.small).sum()
        self.probes.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._probe(None, None)  # so that even a round shorter than the period has one near it
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def at_reference_speed(self, start: float, end: float) -> float:
        """The time from start to end less the probes in it, rescaled to the host
        speed at which a probe takes PROBE_S."""
        inside = [s for t, s in self.probes if start <= t < end]
        # An interval shorter than the probe period is gauged by the nearest probe.
        speed = inside or [min(self.probes, key=lambda p: abs(p[0] - start))[1]]
        return (end - start - sum(inside)) * PROBE_S / (sum(speed) / len(speed))

    def at_run_speed(self, seconds: float) -> float:
        """A time taken between the rounds, rescaled by the run's median probe."""
        return seconds * PROBE_S / statistics.median(s for _, s in self.probes)


class Round:
    """One pass over the workload's operations: its time, its first row's time,
    and each operation's output.

    Only the first round keeps its outputs; a later round keeps whether each
    output repeats the first round's, so the live heap does not grow with the
    number of rounds.
    """

    def __init__(self, ops, gauge, first=None):
        self.results, self.repeats = [], []
        with gauge or contextlib.nullcontext():
            start = time.perf_counter()
            for i, op in enumerate(ops):
                res = op.run()
                if i == 0:
                    # An operation that printed nothing has its first row at its end.
                    first_row = res.first_row_at or time.perf_counter()
                if first is None:
                    self.results.append(res)
                else:
                    self.repeats.append(res.text == first.results[i].text and res.code == first.results[i].code)
            end = time.perf_counter()
        self.raw_s = end - start
        if gauge:
            self.wall_s = gauge.at_reference_speed(start, end)
            self.first_row_s = gauge.at_reference_speed(start, first_row)
        else:
            self.wall_s, self.first_row_s = self.raw_s, first_row - start
        self.traced, self.spans = False, None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    unravel = import_package()
    import spec
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "env": environment()}

    time_fresh_import()  # untimed: fills the byte-code and page caches
    if args.trace:
        info["scipy_import_s"] = [scipy_import_seconds() for _ in range(IMPORTTIME_SAMPLES)]

    inputs = OUT / f"{args.workload}-seed{args.seed}-inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](unravel, args.seed, inputs)
    for op in wl.warmup:
        op.run()

    # Whole rounds until they have taken the given time.  The set-up samples are
    # spread between them, so a stretch of slow host time cannot fall on all of them.
    # Traced rounds carry no probes: a probe would land in the self time of the span it interrupts.
    trace = tracer.Tracer(unravel) if args.trace else None
    gauge = None if trace else Gauge()
    setup = []
    rounds = []
    measured = 0.0
    while True:
        while not trace and len(setup) < SETUP_SAMPLES * min(1.0, measured / args.seconds):
            setup.append(time_fresh_import())
        if rounds and measured >= args.seconds and (not trace or len(rounds) >= 2):
            break
        traced = trace is not None and len(rounds) % 2 == 1
        if traced:
            mark = len(trace.spans)
            trace.install()
        try:
            r = Round(wl.ops, gauge, rounds[0] if rounds else None)
        finally:
            if traced:
                trace.uninstall()
        r.traced, r.spans = traced, (mark, len(trace.spans)) if traced else None
        rounds.append(r)
        measured += r.raw_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(time_fresh_import())

    # Check the first round against the oracle; later rounds must repeat it exactly.
    first_results = rounds[0].results
    verdicts = []
    for op, res in zip(wl.ops, first_results):
        if res.code != 0 or res.error:
            verdicts.append([f"exit {res.code}: {res.error}"])
        else:
            verdicts.append(list(op.check(res.rows)))
    failed = sum(bool(problems) for problems in verdicts)
    for r in rounds[1:]:
        for repeats, problems in zip(r.repeats, verdicts):
            if not repeats and "output differs between rounds" not in problems:
                problems.append("output differs between rounds")
            failed += bool(problems)
    # An output that differs between rounds, or (traced) a call count that does, is not a measurement.
    correct = all(all(r.repeats) for r in rounds[1:])
    attempted = len(rounds) * len(wl.ops)
    info["failures"] = {op.label: problems[:5] for op, problems in zip(wl.ops, verdicts) if problems}
    for label, problems in info["failures"].items():
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)

    untraced = [r for r in rounds if not r.traced]
    info["rounds"] = [{"traced": r.traced, "raw_s": r.raw_s, "wall_s": r.wall_s, "first_row_s": r.first_row_s}
                      for r in rounds]
    info["probes"] = gauge.probes if gauge else []
    # Only rows of operations that passed every check count as verified.
    rows_per_round = sum(len(res.rows) for res, problems in zip(first_results, verdicts) if not problems)
    wall_s = statistics.median(r.wall_s for r in untraced)

    if trace:
        traced_rounds = [r for r in rounds if r.traced]
        per_round = [trace.round_metrics(trace.spans[a:b]) for a, b in (r.spans for r in traced_rounds)]
        info["calls_repeat_across_rounds"] = tracer.counts_repeat(per_round)
        if not info["calls_repeat_across_rounds"]:
            print("FAILED: call counts differ between traced rounds", file=sys.stderr)
            correct = False
        info["untraced_functions"] = trace.missing
        values = tracer.summarize(per_round)
        values["setup.scipy_import_s"] = statistics.median(info["scipy_import_s"])
        values["trace.overhead_s"] = statistics.median(r.wall_s for r in traced_rounds) - wall_s
        trace.write(OUT / f"{args.workload}-seed{args.seed}-spans.tsv.gz")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec.per_layer()}
    else:
        info["setup_s"] = setup
        # No probe runs during a set-up sample, so it is rescaled by the run's speed as a whole.
        metrics = {
            "setup_s": {"value": gauge.at_run_speed(statistics.median(setup)), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "checks_per_s": {"value": rows_per_round / wall_s, "unit": "1/s"},
            "first_row_s": {"value": statistics.median(r.first_row_s for r in untraced), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    info["rows_per_round"] = rows_per_round
    info["ops_per_round"] = len(wl.ops)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(info, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
