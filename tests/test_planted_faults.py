"""Planted faults: each row kind of every command turns negative, and the command
exits 1, when the one kernel behind it is wrong.

Each test patches one kernel through monkeypatch and runs the command in-process
through cli.main.  A fault must fail rows of its own check names only, so that a
failing row says which quantity broke.  The faults sit above the smallest that
each row catches at these sizes (CHANGES.md lists those margins)."""

import json

import numpy as np
import pytest

from unravel import bounds, cli, demos, ensembles, linalg
from unravel.channels import random_unraveling

from helpers import x_basis_povm, z_basis_povm

SWEEP = ["sweep", "--dim", "2", "--trials", "200", "--alpha-grid", "0.7,1,1.5,2,3"]
DFT = ["demo", "dft", "--dim", "8", "--alpha", "2", "--trials", "200"]
ANGLE = ["demo", "angle", "--alpha", "2"]
ENSEMBLE = ["ensemble", "--dim", "3", "--members", "4", "--alpha", "2", "--trials", "200"]
PHI_MIN = ["phi-min", "--gamma", "2", "--alpha", "2"]


def _failing(capsys, argv) -> tuple[int, set]:
    """The exit code and the check names of the rows whose slack fails the gate."""
    code = cli.main(argv)
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return code, {r["check_name"] for r in rows if "slack" in r and not r["slack"] >= cli.SLACK_TOL}


def _scaled(kernel, factor: float):
    return lambda *args: kernel(*args) * factor


def _flattened(eig, eps: float):
    """_descending_eig with the spectrum moved a fraction eps towards its mean: more
    entropy than the Gram matrix has, at the same eigenvectors."""

    def flat(h):
        w, v = eig(h)
        return (1 - eps) * w + eps * w.mean(axis=-1, keepdims=True), v

    return flat


def _sharpened(normalized, power: float):
    """_normalized of x**power: mass moved to the likelier outcomes, so less entropy,
    while a point mass or a uniform distribution stays as it is."""
    return lambda x: normalized(np.maximum(x, 0.0) ** power)


def _moved(kernel, position: int, factor: float):
    """kernel with the output at `position` of the tuple it returns scaled by factor."""

    def moved(*args):
        out = list(kernel(*args))
        out[position] = out[position] * factor
        return tuple(out)

    return moved


@pytest.fixture
def extremal_argv(tmp_path):
    path = tmp_path / "inst.json"
    kraus = [cli.matrix_to_json(k) for k in random_unraveling(3, 2, seed=12).kraus_ops]
    path.write_text(json.dumps({"dim": 3, "seed": 12, "kraus": kraus}))
    return ["extremal", "--in", str(path)]


@pytest.fixture
def uncertainty_argv(tmp_path):
    # the z and x bases at the state |0>, on which the Renyi relation is tight
    path = tmp_path / "zx.json"
    fields = {"dim": 2, "rho": cli.matrix_to_json(np.diag([1.0, 0.0]).astype(complex))}
    for key, povm in (("povm_m", z_basis_povm()), ("povm_n", x_basis_povm())):
        fields[key] = [cli.matrix_to_json(m) for m in povm.elements]
    path.write_text(json.dumps(fields))
    return ["uncertainty", "--in", str(path), "--alpha", "2"]


def test_clean_runs_pass(capsys, extremal_argv, uncertainty_argv):
    renyi_argv = [*uncertainty_argv, "--kind", "renyi"]
    for argv in (SWEEP, extremal_argv, uncertainty_argv, renyi_argv, DFT, ANGLE, ENSEMBLE, PHI_MIN):
        assert _failing(capsys, argv) == (0, set())


def test_f_bar_below_f_fails_factor_chain(capsys, monkeypatch):
    # for rank-one POVMs and a full-rank state, f = f_bar exactly
    monkeypatch.setattr(bounds, "_f_bar", _scaled(bounds._f_bar, 1 - 1e-6))
    assert _failing(capsys, SWEEP) == (1, {"factor_chain"})


def test_flattened_gram_spectrum_fails_theorem1(capsys, monkeypatch, extremal_argv):
    eig = linalg._descending_eig
    for argv, eps, name in ((SWEEP, 1e-3, "theorem1_tsallis"), (extremal_argv, 1e-1, "extremal_vs_remixings")):
        monkeypatch.setattr(linalg, "_descending_eig", _flattened(eig, eps))
        assert _failing(capsys, argv) == (1, {name})


def test_small_g_fails_both_relations(capsys, monkeypatch):
    # g x 0.9 raises both right-hand sides; factor_chain only gains, as f - g grows
    monkeypatch.setattr(bounds, "_g", _scaled(bounds._g, 0.9))
    assert _failing(capsys, SWEEP) == (1, {"theorem2_tsallis", "renyi_relation"})


def test_small_g_fails_the_uncertainty_rows(capsys, monkeypatch, uncertainty_argv):
    g = bounds._g
    for kind, factor in (("renyi", 1 - 1e-9), ("tsallis", 0.6)):
        monkeypatch.setattr(bounds, "_g", _scaled(g, factor))
        assert _failing(capsys, [*uncertainty_argv, "--kind", kind]) == (1, {f"{kind}_uncertainty"})


def test_high_demo_bound_fails_the_saturating_states(capsys, monkeypatch):
    # ln_mu(d) and ln_mu(nbins) high by 1e-8: the DFT basis state and the uniform angle
    # state meet their bounds, while the random and Gaussian states sit far above them
    monkeypatch.setattr(demos, "alpha_log", _scaled(demos.alpha_log, 1 + 1e-8))
    assert _failing(capsys, DFT) == (1, {"dft_basis_state"})
    assert _failing(capsys, ANGLE) == (1, {"angle_uniform"})


def test_sharpened_demo_distributions_fail_the_other_states(capsys, monkeypatch):
    # the basis and uniform states' distributions are point masses and uniform, which
    # sharpening keeps; it takes large powers to bring the others below their bounds
    normalized = demos._normalized
    for argv, power, name in ((DFT, 2.5, "dft_random_state"), (ANGLE, 41.0, "angle_gaussian")):
        monkeypatch.setattr(demos, "_normalized", _sharpened(normalized, power))
        assert _failing(capsys, argv) == (1, {name})


def test_low_weight_entropy_fails_pure_ensemble_bound(capsys, monkeypatch):
    # _pure_bounds gives (state entropy, weight entropy); the weights' is the lhs
    monkeypatch.setattr(ensembles, "_pure_bounds", _moved(ensembles._pure_bounds, 1, 0.8))
    assert _failing(capsys, ENSEMBLE) == (1, {"pure_ensemble_bound"})


def test_low_mixture_entropy_fails_mixed_ensemble_sandwich(capsys, monkeypatch):
    # _sandwich gives (lower, mid, upper); mid is the entropy of the mixture
    monkeypatch.setattr(ensembles, "_sandwich", _moved(ensembles._sandwich, 1, 0.94))
    assert _failing(capsys, ENSEMBLE) == (1, {"mixed_ensemble_sandwich"})


def test_wrong_analytic_minimum_fails_phi_min(capsys, monkeypatch):
    # xi0 low by eps puts the analytic minimum (1 - xi0)/(alpha - 1) above the edge minimum,
    # by eps/8 here: 1.25e-8 at eps = 1e-7, which only the exact edge minimum sees
    xi0 = bounds.PhiProblem.xi0.fget
    for eps in (1e-5, 1e-7):
        monkeypatch.setattr(bounds.PhiProblem, "xi0", property(lambda problem, eps=eps: xi0(problem) * (1 - eps)))
        assert _failing(capsys, PHI_MIN) == (1, {"phi_min"})
