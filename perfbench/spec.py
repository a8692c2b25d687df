"""The benchmark's fixed form: workloads and metrics.

`python3 perfbench/spec.py` writes BENCHMARK.json at the root of the
checkout from these tables, so the file and the benchmark cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

import tracer

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = [
    ("sweep_small",
     "d = 2 sweep with extremal and uncertainty commands: Python per-call overhead dominates, LAPACK does little"),
    ("sweep_large",
     "d = 64 sweeps: LAPACK dominates (f-bar's 4096 SVDs per trial); per-call overhead is negligible"),
    ("search_demos",
     "Renyi search, DFT and angle demos, ensembles and phi-min: the scipy users and layers no sweep runs"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("checks_per_s", "1/s", "higher", 0.25),
    ("first_row_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

EXTRA_PER_LAYER = [("setup.scipy_import_s", "s"), ("trace.overhead_s", "s")]


def per_layer() -> list:
    return tracer.metric_names() + EXTRA_PER_LAYER


def document() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in per_layer()],
    }


def render() -> str:
    return json.dumps(document(), indent=2) + "\n"


if __name__ == "__main__":
    Path("BENCHMARK.json").write_text(render())
