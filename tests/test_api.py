"""The package API that the benchmark harness in perfbench/ calls.

The harness runs outside this suite, so an API break that only it would see is
caught here: each call below has the form perfbench/workloads.py uses.  The
value types compare and hash by identity.
"""

import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import unravel
import unravel.cli

from helpers import renyi_rows


def test_every_exported_name_resolves():
    missing = [name for name in unravel.__all__ if not hasattr(unravel, name)]
    assert missing == []


def test_readme_python_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})


def test_readme_cli_runs(tmp_path, monkeypatch, capsys):
    # every `unravel ...` line of the README's sh blocks, the --in ones on a written instance.json
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
        for line in block.splitlines()
        if line.startswith("unravel ")
    ]
    assert lines
    monkeypatch.chdir(tmp_path)
    enc = unravel.cli.matrix_to_json
    kraus = unravel.channels.random_unraveling(2, 3, 1).kraus_ops
    m, n = (unravel.bounds.random_projective_povm(2, seed).elements for seed in (2, 3))
    instance = dict(
        dim=2,
        kraus=[enc(k) for k in kraus],
        povm_m=[enc(e) for e in m],
        povm_n=[enc(e) for e in n],
        rho=enc(unravel.random_density(2, 2, 4)),
    )
    (tmp_path / "instance.json").write_text(json.dumps(instance))
    for line in lines:
        code = unravel.cli.main(shlex.split(line)[1:])
        err = capsys.readouterr().err
        assert (line, code, err) == (line, 0, "")


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
    alpha_side = rep.lhs - renyi_rows(_gram_spectrum(b, rho), orders.beta)
    assert abs(alpha_side - renyi_rows(_gram_spectrum(a, rho), alpha)) <= 1e-12
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


_RHO = unravel.random_density(2, 2, 4)


@pytest.mark.parametrize(
    "make",
    [
        lambda: unravel.Unraveling(unravel.channels.random_unraveling(2, 3, 1).kraus_ops),
        lambda: unravel.Povm(unravel.bounds.random_projective_povm(2, 2).elements),
        lambda: unravel.bounds.random_projective_povm(2, 2),
        lambda: unravel.PureEnsemble([0.5, 0.5], [[1, 0], [0, 1]]),
        lambda: unravel.ensemble_from_state(_RHO, 3, 5),
        lambda: unravel.MixedEnsemble([0.5, 0.5], [_RHO, np.eye(2) / 2]),
        lambda: unravel.AngleState([0, 1, 0], 4),
    ],
    ids=["Unraveling", "Povm", "Povm-factored", "PureEnsemble", "PureEnsemble-built", "MixedEnsemble", "AngleState"],
)
def test_value_types_compare_by_identity(make):
    a, b = make(), make()
    assert (a == a, a != a, a == b, a != b) == (True, False, False, True)
    assert hash(a) == hash(a) and len({a, b, a}) == 2


_A = unravel.channels.random_unraveling(2, 3, 1)
_M, _N = (unravel.bounds.random_projective_povm(2, seed) for seed in (2, 3))
_ORDERS = unravel.conjugate_order(2.0)
_HUGE = [[0.5, 1e200], [0.0, 0.5]]
# each public function or type that takes an array, at an entry of 1e200, or of 1e308 where a sum
# is what overflows; the id's part before "-" names it
_HUGE_ENTRY_CALLS = {
    "Unraveling": lambda: unravel.Unraveling([_HUGE, np.eye(2)]),
    "Povm": lambda: unravel.Povm([_HUGE, np.eye(2)]),
    "remix": lambda: unravel.remix(_A, np.diag([1e200, 1.0, 1.0])),
    "apply_channel": lambda: unravel.apply_channel(_A, _HUGE),
    "gram_matrix": lambda: unravel.gram_matrix(_A, _HUGE),
    "effect_probabilities": lambda: unravel.effect_probabilities(_A, _HUGE),
    "extremal_unraveling": lambda: unravel.extremal_unraveling(_A, _HUGE),
    "unraveling_entropy": lambda: unravel.unraveling_entropy(_A, _HUGE, 2.0),
    "povm_probabilities": lambda: unravel.povm_probabilities(_M, _HUGE),
    "g_factor": lambda: unravel.g_factor(_M, _N, _HUGE),
    "f_factor": lambda: unravel.f_factor(_M, _N, _HUGE),
    "tsallis_uncertainty_check": lambda: unravel.tsallis_uncertainty_check(_M, _N, _HUGE, _ORDERS, "f"),
    "renyi_uncertainty_check": lambda: unravel.renyi_uncertainty_check(_M, _N, _HUGE, _ORDERS),
    "extremal_pair_tsallis": lambda: unravel.extremal_pair_tsallis(_A, _A, _HUGE, _ORDERS),
    "extremal_pair_renyi": lambda: unravel.extremal_pair_renyi(_A, _A, _HUGE, _ORDERS, unravel.SearchConfig(2.0)),
    "quantum_entropy": lambda: unravel.quantum_entropy(_HUGE, 2.0),
    "ensemble_from_state": lambda: unravel.ensemble_from_state(_HUGE, 3, 5),
    "tsallis_entropy-1e200": lambda: unravel.tsallis_entropy([1e200, 0.5], 2.0),
    "tsallis_entropy-1e308": lambda: unravel.tsallis_entropy([1e308, 1e308], 2.0),
    "renyi_entropy-1e200": lambda: unravel.renyi_entropy([1e200, 0.5], 2.0),
    "renyi_entropy-1e308": lambda: unravel.renyi_entropy([1e308, 1e308], 2.0),
    "PureEnsemble-weights": lambda: unravel.PureEnsemble([1e308, 1e308], [[1, 0], [0, 1]]),
    "PureEnsemble-states": lambda: unravel.PureEnsemble([0.5, 0.5], [[1e200, 0], [0, 1]]),
    "MixedEnsemble-weights": lambda: unravel.MixedEnsemble([1e308, 1e308], [_RHO, np.eye(2) / 2]),
    "MixedEnsemble-members": lambda: unravel.MixedEnsemble([0.5, 0.5], [_HUGE, np.eye(2) / 2]),
    "dft_uncertainty_demo-vector": lambda: unravel.dft_uncertainty_demo([1e200, 0], _ORDERS),
    "dft_uncertainty_demo-stack": lambda: unravel.dft_uncertainty_demo([[1, 0], [1e200, 0]], _ORDERS),
    "AngleState": lambda: unravel.AngleState([0, 1e200, 0], 4),
}
# value types, and functions of scalars or of objects checked when they were built; alpha_log
# takes any x >= 0
_TAKES_NO_OUTSIDE_ARRAY = {
    "BoundReport", "ConjugateOrders", "ExtremalResult", "PhiProblem", "SearchConfig", "alpha_log",
    "angle_momentum_demo", "conjugate_order", "ensemble_density", "f_bar", "haar_random_unitary",
    "mixed_ensemble_bounds_check", "phi_min_verify", "povm_from_unraveling",
    "pure_ensemble_bounds_check", "random_density",
}


def test_huge_entry_table_covers_every_array_argument():
    assert {key.split("-")[0] for key in _HUGE_ENTRY_CALLS} | _TAKES_NO_OUTSIDE_ARRAY == set(unravel.__all__)


@pytest.mark.parametrize("call", _HUGE_ENTRY_CALLS.values(), ids=_HUGE_ENTRY_CALLS.keys())
def test_huge_entry_fails_the_entry_bound_without_warning(call):
    # every entry of a valid state, operator, distribution or amplitude vector has modulus <= 1,
    # so check_entries rejects a huge one before any sum, product or norm of it overflows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="has an entry of modulus at least"):
            call()
    assert caught == []
