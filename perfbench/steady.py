"""Steadiness check: two alternating sets of benchmark runs on the same code.

    python3 perfbench/steady.py [--seed0 K]

Runs `perfbench/run.py` 2 x RUNS times per workload, alternating set A and
set B, each run with its own seed (K, K + 1, ...).  For every end-to-end metric
it prints each set's median and quartiles, the spread (Q3 - Q1)/median of each
set and of all runs, and whether the sets agree: every spread within the
metric's bound, the two medians apart by no more than the bound in either
direction, and the same share of failed operations.  It then makes two traced
runs per workload (seeds K and K + 1) and checks that every count they report
is the same.  Exits 1 when any check disagrees.  Run from the root of the
checkout; raw results go to perfbench-runs/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

BOUNDS = {name: (unit, better, bound) for name, unit, better, bound in spec.END_TO_END}
RUNS = 5  # per set and workload


def run_once(workload: str, seed: int, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def compare(results: dict) -> bool:
    ok = True
    for workload, sets in results.items():
        print(f"\n{workload}")
        shares = {s: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for s, runs in sets.items()}
        same_share = len(set(shares.values())) == 1
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        print(f"  failed share A {shares['A']:.6f}  B {shares['B']:.6f}  {'same' if same_share else 'DIFFERENT'};"
              f" correct {correct}")
        ok &= same_share and correct
        print(f"  {'metric':<14}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
        for name, (unit, better, bound) in BOUNDS.items():
            per = {s: stats([r["metrics"][name]["value"] for r in runs]) for s, runs in sets.items()}
            per["all"] = stats([r["metrics"][name]["value"] for runs in sets.values() for r in runs])
            shift = (per["B"]["median"] - per["A"]["median"]) / per["A"]["median"]
            verdicts = []
            if max(per[s]["spread"] for s in per) > bound:
                verdicts.append("SPREAD")
            if abs(shift) > bound:
                verdicts.append("SETS APART")
            ok &= not verdicts
            for s, st in per.items():
                tail = (f"{bound:>7}  {' '.join(verdicts) or 'agree'} (B vs A {shift:+.3f})"
                        if s == "all" else "")
                print(f"  {name if s == 'A' else '':<14}{s:>4}{st['median']:>14.6g}{st['q1']:>14.6g}"
                      f"{st['q3']:>14.6g}{st['spread']:>9.4f}{tail}")
    return ok


def compare_counts(workload: str, traced: list) -> bool:
    """Every count of two traced runs must be the same."""
    first, second = ({k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in traced)
    differ = sorted(k for k in first if first[k] != second[k])
    ok = not differ and all(r["correct"] for r in traced)
    print(f"  traced counts {'same' if not differ else 'DIFFERENT: ' + ', '.join(differ)}"
          f" over {len(first)} counts; correct {all(r['correct'] for r in traced)}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed0", type=int, default=100)
    args = ap.parse_args()
    names = [n for n, _ in spec.WORKLOADS]
    results = {w: {"A": [], "B": []} for w in names}
    for i in range(2 * RUNS):
        side = "AB"[i % 2]
        for w in names:
            r = run_once(w, args.seed0 + i)
            results[w][side].append(r)
            print(f"run {i + 1}/{2 * RUNS} set {side} {w} seed {args.seed0 + i}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()), flush=True)
    traced = {w: [run_once(w, args.seed0 + i, trace=1) for i in range(2)] for w in names}
    out = Path("perfbench-runs")
    out.mkdir(exist_ok=True)
    (out / f"steady-{int(time.time())}.json").write_text(json.dumps({"runs": results, "traced": traced}, indent=1))
    ok = compare(results)
    for w in names:
        print(f"\n{w}")
        ok &= compare_counts(w, traced[w])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
