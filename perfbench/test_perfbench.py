"""Tests of the benchmark's own parts: the oracle on hand values, the tracer,
the import-time parser and BENCHMARK.json.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402

Z = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
X = [np.outer(_H[:, k], _H[:, k].conj()) for k in range(2)]


def _random_instance(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    m = [np.outer(q[:, k], q[:, k].conj()) for k in range(d)]
    pieces = [h @ h.conj().T for h in (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                                       for _ in range(3))]
    w, v = np.linalg.eigh(sum(pieces))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    n = [inv_root @ s @ inv_root for s in pieces]
    return rho, m, n


class TestEntropies:
    def test_uniform_four(self):
        p = [0.25] * 4
        assert oracle.tsallis(p, 2.0) == pytest.approx(0.75, abs=1e-15)
        assert oracle.renyi(p, 2.0) == pytest.approx(math.log(4), abs=1e-15)
        assert oracle.tsallis(p, 1.0) == pytest.approx(math.log(4), abs=1e-15)
        assert oracle.renyi(p, 0.5) == pytest.approx(math.log(4), abs=1e-14)

    def test_point_mass_is_zero(self):
        for alpha in (0.3, 1.0, 2.0):
            assert oracle.tsallis([1.0, 0.0], alpha) == 0.0
            assert oracle.renyi([1.0, 0.0], alpha) == 0.0

    def test_alpha_log(self):
        assert oracle.alpha_log(4.0, 2.0) == pytest.approx(0.75, abs=1e-15)
        assert oracle.alpha_log(math.e, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_conjugate(self):
        beta, mu = oracle.conjugate(2.0)
        assert beta == pytest.approx(2.0 / 3.0) and mu == 2.0
        beta, mu = oracle.conjugate(0.75)
        assert beta == pytest.approx(1.5) and mu == pytest.approx(1.5)


class TestFactors:
    def test_qubit_mub_fbar(self):
        assert oracle.f_bar(Z, X) == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_pure_state_g_equals_f(self):
        rho = Z[0]
        assert oracle.g_factor(Z, X, rho) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert oracle.f_factor(Z, X, rho) == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_identical_projectors(self):
        assert oracle.g_factor(Z, Z, np.eye(2) / 2) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed_mub(self):
        # |tr(M_i N_j I/2)| = 1/4 with p_i = q_j = 1/2
        assert oracle.g_factor(Z, X, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-15)

    def test_chain_and_thin_fbar(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 5):
            rho, m, n = _random_instance(rng, d)
            g, f, fb = (oracle.factor(k, m, n, rho) for k in ("g", "f", "fbar"))
            assert g <= f + 1e-12 and f <= fb + 1e-12 and fb <= 1 + 1e-10

            def root(x):
                w, v = np.linalg.eigh(x)
                return (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T

            brute = max(np.linalg.norm(root(a) @ root(b), 2) for a in m for b in n)
            assert fb == pytest.approx(brute, abs=1e-12)


class TestGram:
    def test_depolarizing_spectrum(self):
        p = 0.4
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        weights = [math.sqrt(1 - 3 * p / 4)] + [math.sqrt(p / 4)] * 3
        kraus = [w * np.asarray(s, dtype=complex) for w, s in zip(weights, paulis)]
        pi = oracle.gram(kraus, np.eye(2) / 2)
        assert np.allclose(pi, np.diag([1 - 3 * p / 4, p / 4, p / 4, p / 4]), atol=1e-15)
        assert np.allclose(oracle.spectrum(pi), [1 - 3 * p / 4, p / 4, p / 4, p / 4], atol=1e-15)

    def test_remixing_by_identity_gives_diagonal(self):
        pi = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        assert np.allclose(oracle.remixed_diagonals(pi, [np.eye(2)])[0], [0.7, 0.3])


class TestDemos:
    @pytest.mark.parametrize("d", [2, 3, 8])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 3.0])
    def test_dft_basis_saturates(self, d, alpha):
        beta, mu = oracle.conjugate(alpha)
        e = np.zeros(d, dtype=complex)
        e[0] = 1.0
        lhs = oracle.tsallis(oracle.dft_probabilities(e), alpha) + oracle.tsallis(np.abs(e) ** 2, beta)
        assert lhs == pytest.approx(oracle.alpha_log(float(d), mu), abs=1e-13)

    def test_uniform_angle_state(self):
        assert np.allclose(oracle.exact_bin_probabilities([0, 1, 0], 8), 1 / 8, atol=1e-15)

    def test_two_mode_angle_state(self):
        # |Psi|^2 = (1 + cos phi)/(2 pi) for c_0 = c_1 = 1/sqrt 2
        c = [0.0, 1 / math.sqrt(2), 1 / math.sqrt(2)]
        want = [(math.pi / 2 + 1), (math.pi / 2 - 1), (math.pi / 2 - 1), (math.pi / 2 + 1)]
        assert np.allclose(oracle.exact_bin_probabilities(c, 4), np.array(want) / (2 * math.pi), atol=1e-15)

    def test_gaussian_coefficients_normalized(self):
        assert np.linalg.norm(oracle.gaussian_coefficients(50, 3.0)) == pytest.approx(1.0, abs=1e-15)

    def test_phi_min_hand_case(self):
        assert oracle.phi_min(2.0, 2.0) == pytest.approx(7 / 8, abs=1e-15)


def test_scipy_import_parser():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       10 |         10 |       scipy._lib",
        "import time:       20 |         30 |     scipy",
        "import time:        5 |          5 |       numpy.linalg",
        "import time:       40 |         45 |     numpy",
        "import time:       15 |         15 |     scipy.linalg",
        "import time:        1 |         91 |   unravel.search",
        "import time:        2 |         93 | unravel",
    ])
    assert run.scipy_import_us(text) == 45


def test_gauge_rescales_by_the_probes_inside():
    gauge = run.Gauge()
    gauge.probes = [(0.5, 0.004), (1.5, 0.004), (5.0, 0.001)]
    # 2 s with 8 ms of probes at twice the probe's reference time
    assert gauge.at_reference_speed(0.0, 2.0) == pytest.approx((2.0 - 0.008) * run.PROBE_S / 0.004)
    # no probe inside: the nearest one gauges the interval
    assert gauge.at_reference_speed(4.0, 4.5) == pytest.approx(0.5 * run.PROBE_S / 0.001)
    # set-up, between the rounds: the run's median probe
    assert gauge.at_run_speed(0.8) == pytest.approx(0.8 * run.PROBE_S / 0.004)


def test_tracer_counts_and_restores():
    import unravel
    import unravel.cli

    original = unravel.entropy.tsallis_entropy
    t = tracer.Tracer(unravel)
    assert t.missing == []
    t.install()
    try:
        unravel.tsallis_entropy([0.5, 0.5], 2.0)  # re-export in the package namespace
        unravel.channels.random_unraveling(2, 2, 0)  # builds an Unraveling
    finally:
        t.uninstall()
    assert unravel.entropy.tsallis_entropy is original and unravel.tsallis_entropy is original
    metrics = t.round_metrics(t.spans)
    assert metrics["entropy.tsallis_entropy.calls"] == 1
    assert metrics["entropy.as_prob_vector.calls"] == 1
    assert metrics["channels.Unraveling.calls"] == 1
    assert metrics["channels.random_unraveling.calls"] == 1
    child = metrics["entropy.as_prob_vector.self_s"]
    total = sum(end - start for _, _, idx, start, end in t.spans if t.names[idx] == "entropy.tsallis_entropy")
    assert metrics["entropy.tsallis_entropy.self_s"] == pytest.approx(total - child)


def test_benchmark_json_matches_spec():
    import workloads

    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.document()
    assert [name for name, _ in spec.WORKLOADS] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec.document()["per_layer"]]
    assert len(names) == len(set(names)) <= 128


def test_summarize_takes_first_counts_and_median_times():
    rounds = [{"a.calls": 3, "a.self_s": 1.0}, {"a.calls": 3, "a.self_s": 3.0}, {"a.calls": 3, "a.self_s": 2.5}]
    assert tracer.summarize(rounds) == {"a.calls": 3, "a.self_s": 2.5}
    assert tracer.counts_repeat(rounds)
    rounds[2]["a.calls"] = 4
    assert not tracer.counts_repeat(rounds)
    assert tracer.summarize(rounds)["a.calls"] == 3
