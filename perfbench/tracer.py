"""Out-of-program tracer: wraps the public functions of each `unravel` module.

Functions are imported by name across modules (`from .linalg import
check_density`), so a function is rebound in every `unravel.*` namespace that
holds it; classes get their `__init__` wrapped (construction) and listed
methods their class attribute.  Spans (id, parent id, function, start, end)
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import statistics
import sys
import time
from pathlib import Path

# Layer -> traced names.  A bare class name means construction; `Class.method`
# a method.  `search.expm` is scipy's expm as bound in `unravel.search`.
LAYERS = {
    "linalg": ["check_density", "check_hermitian", "check_unitary", "hermitian_eig", "psd_sqrt_hermitian",
               "matrix_norms", "haar_random_unitaries", "haar_unitary_from_rng", "random_density"],
    "entropy": ["as_prob_vector", "tsallis_entropy", "renyi_entropy", "quantum_entropy", "alpha_log"],
    "channels": ["Unraveling", "Unraveling.stacked", "gram_matrix", "extremal_unraveling", "remix",
                 "remixed_probabilities", "random_unraveling"],
    "bounds": ["Povm", "Povm.stacked", "povm_probabilities", "g_factor", "f_factor", "f_bar",
               "tsallis_uncertainty_check", "renyi_uncertainty_check", "random_projective_povm",
               "phi_min_verify"],
    "ensembles": ["ensemble_from_state", "MixedEnsemble", "pure_ensemble_bounds_check",
                  "mixed_ensemble_bounds_check"],
    "demos": ["dft_uncertainty_demo", "bin_probabilities", "angle_momentum_demo", "gaussian_wavepacket"],
    "search": ["renyi_extremal_search", "extremal_pair_renyi", "expm"],
    "cli": ["main"],
}

TRACED = [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]

# Derived counts: calls of the inner function made under the outer one.
NESTED_COUNTS = {"search.objective_evals": ("entropy.renyi_entropy", "search.renyi_extremal_search")}


def metric_names() -> list:
    """Every per-layer metric the traced run reports, in order, with its unit."""
    out = []
    for qual in TRACED:
        out += [(f"{qual}.calls", "count"), (f"{qual}.self_s", "s")]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [(name, "count") for name in NESTED_COUNTS]
    return out


class Tracer:
    def __init__(self, package):
        self.names = list(TRACED)
        self.spans = []  # (id, parent, name index, start, end)
        self.missing = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for idx, qual in enumerate(self.names):
            layer, _, name = qual.partition(".")
            self._plan(modules, getattr(package, layer, None), name, idx)

    def _plan(self, modules, module, name: str, idx: int) -> None:
        owner_name, _, method = name.partition(".")
        target = getattr(module, owner_name, None) if module is not None else None
        if target is None or (method and method not in vars(target)):
            self.missing.append(self.names[idx])
            return
        if method:
            self._patches.append((target, method, vars(target)[method], self._wrap(vars(target)[method], idx)))
        elif isinstance(target, type):
            init = vars(target)["__init__"]
            self._patches.append((target, "__init__", init, self._wrap(init, idx)))
        else:
            wrapper = self._wrap(target, idx)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._patches.append((mod, attr, target, wrapper))

    def _wrap(self, fn, idx: int):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, idx, start, end))

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def round_metrics(self, spans) -> dict:
        """Calls and self time per traced name over one round's spans."""
        child = {}
        for sid, parent, idx, start, end in spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for sid, parent, idx, start, end in spans:
            calls[idx] += 1
            self_s[idx] += (end - start) - child.get(sid, 0.0)
        out = {}
        for qual, n, s in zip(self.names, calls, self_s):
            out[f"{qual}.calls"] = n
            out[f"{qual}.self_s"] = s
        for layer, names in LAYERS.items():
            out[f"{layer}.self_s"] = sum(out[f"{layer}.{name}.self_s"] for name in names)
        parent_of = {sid: (parent, idx) for sid, parent, idx, _, _ in spans}
        for metric, (inner, outer) in NESTED_COUNTS.items():
            i_in, i_out = self.names.index(inner), self.names.index(outer)
            count = 0
            for sid, parent, idx, _, _ in spans:
                if idx != i_in:
                    continue
                while parent in parent_of:
                    parent, p_idx = parent_of[parent]
                    if p_idx == i_out:
                        count += 1
                        break
            out[metric] = count
        return out

    def write(self, path: Path) -> None:
        """One line per span: id, parent id, name, start and end (perf_counter s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid, parent, idx, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{self.names[idx]}\t{start!r}\t{end!r}\n")


def counts_repeat(per_round: list) -> bool:
    """Whether every traced round made the same calls as the first one."""
    return all(r[k] == per_round[0][k] for r in per_round for k in r if isinstance(r[k], int))


def summarize(per_round: list) -> dict:
    """Per-layer metrics over traced rounds: counts from the first round, times as
    the median over the rounds."""
    return {key: first if isinstance(first, int) else statistics.median(r[key] for r in per_round)
            for key, first in per_round[0].items()}
