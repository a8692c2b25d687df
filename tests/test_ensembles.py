import numpy as np
import pytest

from unravel import linalg
from unravel.ensembles import (
    MixedEnsemble,
    PureEnsemble,
    _pure_bounds,
    _pure_members,
    _sandwich,
    ensemble_density,
    ensemble_from_state,
    mixed_ensemble_bounds_check,
    pure_ensemble_bounds_check,
)
from unravel.entropy import _normalized, quantum_entropy, tsallis_entropy


def _pure_ensemble(weights, vecs):
    return PureEnsemble(np.asarray(weights, float), tuple(np.asarray(v, complex) for v in vecs))


class TestEnsembleDensity:
    def test_orthogonal_mixture(self):
        e = _pure_ensemble([0.5, 0.5], [[1, 0], [0, 1]])
        assert np.allclose(ensemble_density(e), np.eye(2) / 2)

    def test_single_member(self):
        rho = linalg.random_density(3, 2, seed=0)
        e = MixedEnsemble(np.array([1.0]), (rho,))
        assert np.allclose(ensemble_density(e), rho)

    def test_summation_oracle(self):
        rng = np.random.default_rng(1)
        weights = rng.dirichlet(np.ones(5))
        vecs = [v / np.linalg.norm(v) for v in (rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))]
        e = _pure_ensemble(weights, vecs)
        oracle = sum(p * np.outer(v, v.conj()) for p, v in zip(weights, vecs))
        assert np.linalg.norm(ensemble_density(e) - oracle) < 1e-12


class TestEnsembleFromState:
    def test_identity_mixing_gives_eigen_ensemble(self):
        rho = linalg.random_density(3, 3, seed=2)
        w, v = linalg._descending_eig(rho)
        e = ensemble_from_state(rho, 3, seed=None)
        assert np.allclose(e.weights, w, atol=1e-12)
        for k, psi in enumerate(e.states):
            overlap = abs(np.vdot(v[:, k], psi))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_states_are_one_array(self):
        e = ensemble_from_state(linalg.random_density(3, 3, seed=7), 4, seed=8)
        assert isinstance(e.states, np.ndarray) and e.states.shape == (4, 3) and e.dim == 3
        with pytest.raises(ValueError, match="state 1 is not normalized"):
            _pure_ensemble([0.5, 0.5], [[1, 0], [np.nan, 0]])

    def test_maximally_mixed_qubit(self):
        e = ensemble_from_state(np.eye(2) / 2, 2, seed=3)
        assert np.linalg.norm(ensemble_density(e) - np.eye(2) / 2) < 1e-10

    def test_reconstruction_and_unistochastic_weights(self):
        rho = linalg.random_density(3, 3, seed=4)
        m = 6
        e = ensemble_from_state(rho, m, seed=5)
        assert np.linalg.norm(ensemble_density(e) - rho) < 1e-10
        u = linalg.haar_random_unitary(m, 5)
        s = np.abs(u) ** 2
        assert np.allclose(s.sum(axis=0), 1.0, atol=1e-10)
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-10)
        lam = np.zeros(m)
        lam[:3] = np.clip(linalg._descending_eig(rho)[0], 0, None)
        assert np.allclose(e.weights, s @ lam, atol=1e-10)

    def test_reconstruction_across_seeds(self):
        rho = linalg.random_density(2, 2, seed=6)
        for seed in range(10):
            e = ensemble_from_state(rho, 4, seed=seed)
            assert np.linalg.norm(ensemble_density(e) - rho) < 1e-10

    def test_m_below_rank_rejected(self):
        rho = linalg.random_density(3, 3, seed=7)
        with pytest.raises(ValueError):
            ensemble_from_state(rho, 2, seed=0)


class TestPureEnsembleBounds:
    def test_eigen_ensemble_saturates(self):
        rho = linalg.random_density(3, 3, seed=8)
        e = ensemble_from_state(rho, 3, seed=None)
        for alpha in (0.5, 1.0, 2.0, 5.0):
            res = pure_ensemble_bounds_check(e, alpha, "tsallis")
            assert res.state_entropy == pytest.approx(res.ensemble_entropy, abs=1e-12)

    def test_hand_assembled_qubit_ensemble(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        e = _pure_ensemble([0.5, 0.5], [[1, 0], plus])
        res = pure_ensemble_bounds_check(e, 2.0, "tsallis")
        rho = ensemble_density(e)
        assert res.state_entropy == pytest.approx(quantum_entropy(rho, 2.0, "tsallis"), abs=1e-12)
        assert res.ensemble_entropy == pytest.approx(0.5)
        assert res.state_entropy < res.ensemble_entropy

    def test_shannon_limit(self):
        for seed in range(10):
            rho = linalg.random_density(3, 3, seed=20 + seed)
            e = ensemble_from_state(rho, 4, seed=seed)
            res = pure_ensemble_bounds_check(e, 1.0, "tsallis")
            vn = quantum_entropy(rho, 1.0, "tsallis")
            assert res.state_entropy == pytest.approx(vn, abs=1e-10)
            assert res.state_entropy <= res.ensemble_entropy + 1e-10

    def test_tsallis_bound_random(self):
        for seed in range(20):
            rho = linalg.random_density(2, 2, seed=40 + seed)
            e = ensemble_from_state(rho, 3, seed=seed)
            for alpha in (0.5, 2.0, 5.0):
                res = pure_ensemble_bounds_check(e, alpha, "tsallis")
                assert res.in_premise
                assert res.state_entropy <= res.ensemble_entropy + 1e-10

    def test_renyi_premise_flag(self):
        rho = linalg.random_density(2, 2, seed=60)
        e = ensemble_from_state(rho, 2, seed=0)
        assert pure_ensemble_bounds_check(e, 0.5, "renyi").in_premise
        res = pure_ensemble_bounds_check(e, 2.0, "renyi")
        assert not res.in_premise

    def test_renyi_bound_below_one(self):
        for seed in range(10):
            rho = linalg.random_density(3, 3, seed=70 + seed)
            e = ensemble_from_state(rho, 4, seed=seed)
            for alpha in (0.3, 0.7):
                res = pure_ensemble_bounds_check(e, alpha, "renyi")
                assert res.state_entropy <= res.ensemble_entropy + 1e-10


class TestMixedEnsembleBounds:
    def _random_mixed(self, dim, n, seed):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(n))
        members = tuple(linalg.random_density(dim, dim, seed=seed * 100 + k) for k in range(n))
        return MixedEnsemble(weights, members)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_member_rejected_in_one_pass(self, monkeypatch, entry):
        # the member stack is tested for finiteness once, in check_hermitian, before any product
        passes, isfinite = [], np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda x, *a, **k: passes.append(np.shape(x)) or isfinite(x, *a, **k))
        members = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])]).astype(complex)
        MixedEnsemble([0.5, 0.5], members)
        assert [s for s in passes if len(s) == 3] == [(2, 2, 2)]
        members[0, 1, 1] = entry
        with pytest.raises(ValueError, match="member has non-finite entries"):
            MixedEnsemble([0.5, 0.5], members)

    def test_identical_members(self):
        om = linalg.random_density(2, 2, seed=80)
        weights = np.array([0.3, 0.7])
        e = MixedEnsemble(weights, (om, om))
        alpha = 2.0
        lower, mid, upper = mixed_ensemble_bounds_check(e, alpha)
        h_om = quantum_entropy(om, alpha, "tsallis")
        assert lower == pytest.approx(h_om, abs=1e-12)
        assert mid == pytest.approx(h_om, abs=1e-10)
        extra = float(np.dot(weights**alpha, [h_om, h_om]) + tsallis_entropy(weights, alpha)) - h_om
        assert upper - mid == pytest.approx(extra, abs=1e-10)

    def test_pure_members_reduce_to_pure_bound(self):
        vecs = [np.array([1, 0], complex), np.array([1, 1], complex) / np.sqrt(2)]
        weights = np.array([0.4, 0.6])
        e = MixedEnsemble(weights, tuple(np.outer(v, v.conj()) for v in vecs))
        lower, mid, upper = mixed_ensemble_bounds_check(e, 2.0)
        assert lower == pytest.approx(0.0, abs=1e-12)
        pe = PureEnsemble(weights, tuple(vecs))
        res = pure_ensemble_bounds_check(pe, 2.0, "tsallis")
        assert mid == pytest.approx(res.state_entropy, abs=1e-12)
        assert upper >= mid - 1e-12

    def test_sandwich_random(self):
        for seed in range(25):
            e = self._random_mixed(3, 3, seed=seed + 1)
            for alpha in (0.5, 1.0, 2.0, 5.0):
                lower, mid, upper = mixed_ensemble_bounds_check(e, alpha)
                assert lower <= mid + 1e-10
                assert mid <= upper + 1e-10

    def test_shannon_limit_matches_classical_bounds(self):
        e = self._random_mixed(3, 3, seed=99)
        for alpha in (1 - 1e-9, 1 + 1e-9):
            lower, mid, upper = mixed_ensemble_bounds_check(e, alpha)
            l1, m1, u1 = mixed_ensemble_bounds_check(e, 1.0)
            assert lower == pytest.approx(l1, abs=1e-6)
            assert mid == pytest.approx(m1, abs=1e-6)
            assert upper == pytest.approx(u1, abs=1e-6)

    def test_holds_the_spectra_that_validated_its_members(self):
        e = self._random_mixed(3, 4, seed=6)
        assert e.members.shape == (4, 3, 3) and e.dim == 3
        assert np.array_equal(e.spectra, np.linalg.eigvalsh(e.members))

    def test_member_eigenvalue_within_psd_tolerance(self):
        # an eigenvalue of -5e-11 passes the PSD check, and the sandwich holds
        e = MixedEnsemble([0.4, 0.6], (np.diag([1 + 5e-11, -5e-11]), np.eye(2) / 2))
        for alpha in (0.5, 1.0, 2.0):
            lower, mid, upper = mixed_ensemble_bounds_check(e, alpha)
            assert lower <= mid + 1e-12 and mid <= upper + 1e-12

    def test_names_offending_member(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="member 1 is not PSD"):
            MixedEnsemble(np.array([0.5, 0.5]), (np.eye(2) / 2, bad))
        with pytest.raises(ValueError, match="disagree in length"):
            MixedEnsemble(np.array([1.0]), (np.eye(2) / 2, np.eye(2) / 2))


class TestStackedKernels:
    def test_one_stack_matches_one_element_views(self):
        # the public checks call the same kernels on one ensemble
        rng = np.random.default_rng(11)
        d, m, alpha = 3, 5, 1.7
        rhos = np.stack([linalg.random_density(d, d, seed=s) for s in range(6)])
        us = np.stack([linalg.haar_random_unitary(m, 100 + s) for s in range(6)])
        _, w, v = linalg.density_spectrum(rhos, vectors=True)
        weights, states = _pure_members(w, v, us)
        state_h, weight_h = _pure_bounds(weights, states, alpha, "tsallis")
        mix = _normalized(rng.dirichlet(np.ones(m), size=6))  # as MixedEnsemble holds them
        members = np.stack([[linalg.random_density(d, d, seed=200 + 10 * s + k) for k in range(m)] for s in range(6)])
        sandwich = _sandwich(mix, members, np.linalg.eigvalsh(members), alpha)
        for t in range(6):
            e = ensemble_from_state(rhos[t], m, seed=100 + t)
            assert np.array_equal(e.weights, weights[t])
            res = pure_ensemble_bounds_check(e, alpha, "tsallis")
            assert res.state_entropy == pytest.approx(state_h[t], abs=1e-14)
            assert res.ensemble_entropy == pytest.approx(weight_h[t], abs=1e-14)
            one = mixed_ensemble_bounds_check(MixedEnsemble(mix[t], tuple(members[t])), alpha)
            assert list(one) == [float(b[t]) for b in sandwich]

    def test_rank_above_members_rejected_in_a_stack(self):
        rhos = np.stack([np.diag([1.0, 0.0, 0.0]), np.eye(3) / 3]).astype(complex)
        _, w, v = linalg.density_spectrum(rhos, vectors=True)
        with pytest.raises(ValueError, match=r"m = 2 is below rank\(rho\) = 3"):
            _pure_members(w, v, np.stack([np.eye(2, dtype=complex)] * 2))
