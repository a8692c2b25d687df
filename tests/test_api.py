"""The package API that the benchmark harness in perfbench/ calls.

The harness runs outside this suite, so an API break that only it would see is
caught here: each call below has the form perfbench/workloads.py uses.
"""

import json

import numpy as np
import pytest

import unravel
import unravel.cli


def test_every_exported_name_resolves():
    missing = [name for name in unravel.__all__ if not hasattr(unravel, name)]
    assert missing == []


def _renyi(p, alpha):
    p = p[p > 0]
    return float(np.log(np.sum(p**alpha)) / (1.0 - alpha))


def _gram_spectrum(kraus, rho):
    """Eigenvalues of Pi_ij = tr(A_i rho A_j†), clipped at 0."""
    pi = np.einsum("iab,bc,jac->ij", kraus, rho, kraus.conj())
    return np.clip(np.linalg.eigvalsh(pi), 0.0, None)


@pytest.mark.parametrize("d, n_kraus", [(2, 3), (3, 4), (4, 3)])
def test_extremal_pair_renyi(d, n_kraus):
    rng = np.random.default_rng([d, n_kraus])
    rho = unravel.random_density(d, d, int(rng.integers(1_000_000)))
    a, b = (unravel.channels.random_unraveling(d, n_kraus, int(rng.integers(1_000_000))).kraus_ops for _ in "ab")
    ua, ub = unravel.Unraveling(tuple(a)), unravel.Unraveling(tuple(b))
    alpha = float(rng.uniform(1.2, 3.0))
    orders = unravel.conjugate_order(alpha)
    cfg = unravel.SearchConfig(alpha=alpha, restarts=6, iterations=150, seed=int(rng.integers(1_000_000)))
    rep = unravel.extremal_pair_renyi(ua, ub, rho, orders, cfg)
    # the alpha side is the Renyi entropy of its Gram spectrum, the exact minimum over remixings
    alpha_side = rep.lhs - _renyi(_gram_spectrum(b, rho), orders.beta)
    assert abs(alpha_side - _renyi(_gram_spectrum(a, rho), alpha)) <= 1e-12
    assert rep.slack >= -1e-9


def test_instance_generators():
    d, seed = 3, 11
    rho = unravel.linalg.random_density(d, d, seed)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    kraus = list(unravel.channels.random_unraveling(d, d, seed + 1).kraus_ops)
    us = unravel.linalg.haar_random_unitaries(len(kraus), 5, seed + 2)
    assert us.shape == (5, d, d)
    u = unravel.linalg.haar_random_unitary(4, seed + 3)
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-9
    m = list(unravel.bounds.random_projective_povm(d, seed + 4).elements)
    assert np.linalg.norm(sum(m) - np.eye(d)) < 1e-9
    psi = unravel.linalg.ginibre(np.random.default_rng(seed), d, 1).ravel()
    assert psi.shape == (d,)


def test_angle_bins():
    state = unravel.demos.gaussian_wavepacket(50, 3.0, 8)
    bins = unravel.demos.bin_probabilities(state)
    assert bins.shape == (8,)
    assert bins.sum() == pytest.approx(1.0, abs=1e-12)


def test_cli_main(capsys):
    code = unravel.cli.main(["phi-min", "--gamma", "2", "--alpha", "2"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    assert [r["check_name"] for r in rows] == ["phi_min"]
