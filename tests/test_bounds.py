import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unravel import bounds, linalg
from unravel.bounds import (
    PhiProblem,
    Povm,
    f_bar,
    f_factor,
    g_factor,
    phi_min_verify,
    povm_from_unraveling,
    povm_probabilities,
    random_povm,
    random_projective_povm,
    renyi_uncertainty_check,
    tsallis_uncertainty_check,
)
from unravel.channels import effect_probabilities, random_unraveling
from unravel.demos import dft_matrix
from unravel.entropy import alpha_log, conjugate_order, tsallis_entropy

from helpers import depolarizing_unraveling, psd_sqrt, x_basis_povm, z_basis_povm


def _pure(psi):
    psi = np.asarray(psi, complex)
    return np.outer(psi, psi.conj())


class TestPovm:
    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            Povm((np.diag([0.5, 0.5]),))

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))

    def test_rejects_non_hermitian(self):
        skew = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="element 1 is not Hermitian"):
            Povm((np.eye(2) / 2, skew))

    def test_random_povm_valid(self):
        m = random_povm(3, 4, seed=0)
        assert m.n_outcomes == 4
        assert np.linalg.norm(sum(m.elements) - np.eye(3)) < 1e-9


class TestPovmProbabilities:
    def test_basis_projectors_on_basis_state(self):
        p = povm_probabilities(z_basis_povm(), _pure([1, 0]))
        assert np.allclose(p, [1.0, 0.0])

    def test_maximally_mixed(self):
        m = random_povm(3, 4, seed=1)
        p = povm_probabilities(m, np.eye(3) / 3)
        expected = [np.trace(x).real / 3 for x in m.elements]
        assert np.allclose(p, expected, atol=1e-12)

    def test_trace_oracle(self):
        m = random_povm(2, 3, seed=2)
        rho = linalg.random_density(2, 2, seed=3)
        p = povm_probabilities(m, rho)
        oracle = [np.trace(x @ rho).real for x in m.elements]
        assert np.allclose(p, oracle, atol=1e-12)


class TestPovmFromUnraveling:
    def test_unitary_channel(self):
        from unravel.channels import Unraveling

        m = povm_from_unraveling(Unraveling((linalg.haar_random_unitary(2, 0),)))
        assert np.allclose(m.elements[0], np.eye(2), atol=1e-12)

    def test_depolarizing(self):
        p = 0.6
        m = povm_from_unraveling(depolarizing_unraveling(p))
        weights = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
        for w, elem in zip(weights, m.elements):
            assert np.allclose(elem, w * np.eye(2), atol=1e-12)

    def test_consistency_with_effect_probabilities(self):
        a = random_unraveling(2, 3, seed=4)
        rho = linalg.random_density(2, 2, seed=5)
        assert np.allclose(
            povm_probabilities(povm_from_unraveling(a), rho),
            effect_probabilities(a, rho),
            atol=1e-12,
        )


class TestGFactor:
    def test_identical_rank1_projectors(self):
        m = z_basis_povm()
        rho = linalg.random_density(2, 2, seed=6)
        assert g_factor(m, m, rho) == pytest.approx(1.0, abs=1e-12)

    def test_zx_hand_values(self):
        m, n = z_basis_povm(), x_basis_povm()
        # on I/2: |tr(M_i N_j rho)| = 1/4, p_i = q_j = 1/2, so every ratio is 1/2
        assert g_factor(m, n, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)
        # on a pure basis state the overlap ratio is the MUB overlap 1/sqrt(2)
        assert g_factor(m, n, _pure([1, 0])) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_symmetry(self):
        m = random_projective_povm(3, seed=7)
        n = random_projective_povm(3, seed=8)
        rho = linalg.random_density(3, 3, seed=9)
        assert g_factor(m, n, rho) == pytest.approx(g_factor(n, m, rho), abs=1e-12)

    def test_at_most_one(self):
        for seed in range(10):
            m = random_povm(2, 3, seed=3 * seed)
            n = random_povm(2, 2, seed=3 * seed + 1)
            rho = linalg.random_density(2, 2, seed=3 * seed + 2)
            assert g_factor(m, n, rho) <= 1 + 1e-10


class TestFFactor:
    def test_pure_state_equals_g(self):
        m = random_projective_povm(3, seed=10)
        n = random_projective_povm(3, seed=11)
        rho = linalg.random_density(3, 1, seed=12)
        assert f_factor(m, n, rho) == pytest.approx(g_factor(m, n, rho), abs=1e-12)

    def test_zx_on_mixed(self):
        assert f_factor(z_basis_povm(), x_basis_povm(), np.eye(2) / 2) == pytest.approx(
            1 / np.sqrt(2), abs=1e-12
        )

    def test_chain(self):
        for dim, seed in [(3, seed) for seed in range(10)] + [(16, 0)]:
            m = random_projective_povm(dim, seed=100 + seed)
            n = random_projective_povm(dim, seed=200 + seed)
            rho = linalg.random_density(dim, dim, seed=300 + seed)
            g = g_factor(m, n, rho)
            f = f_factor(m, n, rho)
            fb = f_bar(m, n)
            assert g <= f + 1e-12
            assert f <= fb + 1e-12
            assert fb <= 1 + 1e-10


class TestFBar:
    def test_commuting_projectors(self):
        assert f_bar(z_basis_povm(), z_basis_povm()) == pytest.approx(1.0, abs=1e-12)

    def test_zx(self):
        assert f_bar(z_basis_povm(), x_basis_povm()) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_dft_bases(self):
        for d in (2, 3, 5):
            u = dft_matrix(d)
            comp = Povm(tuple(np.diag(np.eye(d)[k]).astype(complex) for k in range(d)))
            four = Povm(tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(d)))
            assert f_bar(comp, four) == pytest.approx(1 / np.sqrt(d), abs=1e-12)


def _f_bar_loop(m, n):
    """Reference f-bar: a dense square root per element, one SVD per outcome pair."""
    roots_m = [psd_sqrt(x) for x in m.elements]
    roots_n = [psd_sqrt(y) for y in n.elements]
    return max(np.linalg.norm(a @ b, 2) for a in roots_m for b in roots_n)


def _f_loop(m, n, rho):
    """Reference f: one eigenvector of rho and one outcome pair at a time."""
    w, v = np.linalg.eigh(rho)
    best = -np.inf
    for k in np.flatnonzero(w > bounds.P_ZERO_TOL):
        psi = v[:, k]
        for x in m.elements:
            for y in n.elements:
                p, q = np.vdot(psi, x @ psi).real, np.vdot(psi, y @ psi).real
                if p > bounds.P_ZERO_TOL and q > bounds.P_ZERO_TOL:
                    best = max(best, abs(np.vdot(psi, x @ y @ psi)) / np.sqrt(p * q))
    return best


@st.composite
def _povm_pair_and_state(draw):
    dim = draw(st.integers(1, 5))
    seed = st.integers(0, 2**32 - 1)

    def povm():
        kind = draw(st.sampled_from(["general", "projective", "coarse", "zero_element"]))
        if kind == "general":
            return random_povm(dim, draw(st.integers(1, 4)), draw(seed))
        rank1 = random_projective_povm(dim, draw(seed)).elements
        if kind == "projective":
            return Povm(rank1)
        if kind == "coarse":
            # projectors of unequal rank: the first two basis vectors share one outcome
            return Povm(np.concatenate([rank1[:2].sum(axis=0, keepdims=True), rank1[2:]]))
        return Povm(np.concatenate([rank1, np.zeros((1, dim, dim))]))

    m, n = povm(), povm()
    state = draw(st.sampled_from(["rank1", "uniform", "rank_deficient"]))
    if state == "uniform":
        rho = np.eye(dim) / dim
    else:
        rank = 1 if state == "rank1" else draw(st.integers(1, max(1, dim - 1)))
        rho = linalg.random_density(dim, rank, draw(seed))
    return m, n, rho


class TestBatchedFactorsMatchLoops:
    @given(_povm_pair_and_state())
    @settings(max_examples=200, deadline=None)
    def test_against_loop_oracle(self, case):
        m, n, rho = case
        assert abs(f_bar(m, n) - _f_bar_loop(m, n)) <= 1e-12
        assert abs(f_factor(m, n, rho) - _f_loop(m, n, linalg.check_density(rho))) <= 1e-12

    def test_no_admissible_pair_raises(self):
        # Povm's validation rejects a set with all-zero probabilities, so build one around it
        zero = object.__new__(Povm)
        object.__setattr__(zero, "elements", np.zeros((2, 2, 2), complex))
        for factor in (g_factor, f_factor):
            with pytest.raises(ValueError, match="degenerate"):
                factor(zero, z_basis_povm(), np.eye(2) / 2)
            with pytest.raises(ValueError, match="degenerate"):
                factor(z_basis_povm(), zero, np.eye(2) / 2)

    def test_f_bar_memory_is_linear_in_outcomes(self):
        # one stack of pair products would hold n^2 d^2 = 2^24 complex entries, 268 MB
        m, n = random_povm(64, 64, seed=70), random_povm(64, 64, seed=71)
        tracemalloc.start()
        try:
            fb = f_bar(m, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert 0 < fb <= 1 + 1e-10


class TestLemmaNormInequality:
    def test_norm_chain(self):
        # ||p||_a <= g^(2(1-b)/b) ||q||_b for conjugate orders with 1/2 < b < 1
        for seed in range(20):
            m = random_projective_povm(3, seed=400 + seed)
            n = random_projective_povm(3, seed=500 + seed)
            rho = linalg.random_density(3, 3, seed=600 + seed)
            g = g_factor(m, n, rho)
            p = povm_probabilities(m, rho)
            q = povm_probabilities(n, rho)
            for beta in (0.6, 0.75, 0.9):
                alpha = beta / (2 * beta - 1)
                lhs = np.sum(p**alpha) ** (1 / alpha)
                rhs = g ** (2 * (1 - beta) / beta) * np.sum(q**beta) ** (1 / beta)
                assert lhs <= rhs + 1e-10


class TestTsallisCheck:
    def test_commuting_saturation(self):
        m = z_basis_povm()
        report = tsallis_uncertainty_check(m, m, _pure([1, 0]), conjugate_order(2.0), "fbar")
        assert report.factor == pytest.approx(1.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.lhs == pytest.approx(0.0, abs=1e-12)

    def test_zx_basis_state_hand_values(self):
        orders = conjugate_order(2.0)
        report = tsallis_uncertainty_check(
            z_basis_povm(), x_basis_povm(), _pure([1, 0]), orders, "fbar"
        )
        # H_2(Z outcome) = 0; H_{2/3}(uniform) = 3(2^(1/3)-1); rhs = ln_2(2) = 0.5
        assert report.lhs == pytest.approx(3 * (2 ** (1 / 3) - 1), abs=1e-12)
        assert report.rhs == pytest.approx(0.5, abs=1e-12)
        assert report.slack >= 0

    def test_random_sweep(self):
        for seed in range(30):
            m = random_projective_povm(2, seed=700 + seed)
            n = random_projective_povm(2, seed=800 + seed)
            rho = linalg.random_density(2, 2, seed=900 + seed)
            for alpha in (1.5, 2.0, 3.0):
                orders = conjugate_order(alpha)
                for kind in ("g", "f", "fbar"):
                    report = tsallis_uncertainty_check(m, n, rho, orders, kind)
                    assert report.slack >= -1e-9

    def test_weaker_factors_give_weaker_bounds(self):
        m = random_projective_povm(3, seed=40)
        n = random_projective_povm(3, seed=41)
        rho = linalg.random_density(3, 3, seed=42)
        orders = conjugate_order(2.0)
        rhs = {
            k: tsallis_uncertainty_check(m, n, rho, orders, k).rhs for k in ("g", "f", "fbar")
        }
        assert rhs["f"] <= rhs["g"] + 1e-12
        assert rhs["fbar"] <= rhs["f"] + 1e-12


class TestCheckValidatesOnce:
    def test_one_check_density_per_call(self, monkeypatch):
        calls = []

        def counting(rho, name="rho"):
            calls.append(name)
            return linalg.check_density(rho, name)

        monkeypatch.setattr(bounds, "check_density", counting)
        m = random_povm(3, 4, seed=60)
        n = random_projective_povm(3, seed=61)
        rho = linalg.random_density(3, 3, seed=62)
        for check in (tsallis_uncertainty_check, renyi_uncertainty_check):
            for kind in ("g", "f", "fbar"):
                calls.clear()
                check(m, n, rho, conjugate_order(2.0), kind)
                assert len(calls) == 1


class TestRenyiCheck:
    def test_commuting_trivial(self):
        m = z_basis_povm()
        report = renyi_uncertainty_check(m, m, _pure([1, 0]), conjugate_order(2.0), "fbar")
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.slack >= -1e-12

    def test_zx_shannon_limit_hand_values(self):
        orders = conjugate_order(1.0)
        report = renyi_uncertainty_check(
            z_basis_povm(), x_basis_povm(), np.eye(2) / 2, orders, "fbar"
        )
        assert report.lhs == pytest.approx(2 * np.log(2), abs=1e-12)
        assert report.rhs == pytest.approx(np.log(2), abs=1e-12)
        assert report.slack == pytest.approx(np.log(2), abs=1e-12)

    def test_g_stronger_than_f_on_impure(self):
        stronger = 0
        total = 0
        for seed in range(20):
            m = random_projective_povm(2, seed=1000 + seed)
            n = random_projective_povm(2, seed=1100 + seed)
            rho = linalg.random_density(2, 2, seed=1200 + seed)
            orders = conjugate_order(2.0)
            rg = renyi_uncertainty_check(m, n, rho, orders, "g")
            rf = renyi_uncertainty_check(m, n, rho, orders, "f")
            assert rg.slack >= -1e-9 and rf.slack >= -1e-9
            total += 1
            if rg.rhs > rf.rhs:
                stronger += 1
        assert stronger >= 0.95 * total


class TestPhiMin:
    def test_gamma_one(self):
        analytic, numeric = phi_min_verify(PhiProblem(1.0, 2.0), grid_points=200)
        assert analytic == 0.0
        assert numeric == pytest.approx(0.0, abs=1e-12)

    def test_hand_case(self):
        problem = PhiProblem(2.0, 2.0)
        assert problem.xi0 == pytest.approx(1 / 8)
        analytic, numeric = phi_min_verify(problem, grid_points=2000)
        assert analytic == pytest.approx(7 / 8)
        assert numeric >= analytic - 1e-6
        assert numeric == pytest.approx(analytic, abs=1e-4)

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            PhiProblem(0.9, 2.0)

    def test_partial_derivative_signs(self):
        problem = PhiProblem(1.5, 2.0)
        rng = np.random.default_rng(0)
        eps = 1e-6
        count = 0
        while count < 100:
            xi = rng.uniform(0.05, 0.95)
            zeta = rng.uniform(1.05, problem.gamma - 0.05)
            if zeta < problem.gamma * xi ** (problem.beta / problem.alpha) + 0.01:
                continue
            dphi_dxi = (problem.phi(xi + eps, zeta) - problem.phi(xi - eps, zeta)) / (2 * eps)
            dphi_dzeta = (problem.phi(xi, zeta + eps) - problem.phi(xi, zeta - eps)) / (2 * eps)
            assert dphi_dxi < 0
            assert dphi_dzeta > 0
            count += 1

    def test_grid_min_matches_masked_grid(self):
        # reference: phi over the whole grid, masked to the feasible points
        for gamma in (1.0, 1.01, 1.5, 2.0, 7.3, 40.0):
            for alpha in (1.2, 2.0, 5.0):
                for grid in (2, 3, 17, 101, 400):
                    problem = PhiProblem(gamma, alpha)
                    xi = np.linspace(0.0, 1.0, grid)
                    zeta = np.linspace(1.0, gamma, grid) if gamma > 1 else np.ones(1)
                    feasible = zeta[None, :] >= gamma * (xi[:, None] ** (problem.beta / alpha))
                    masked = float(problem.phi(xi[:, None], zeta[None, :])[feasible].min())
                    assert bounds._feasible_grid_min(problem, grid) == masked

    def test_curve_derivative_positive(self):
        # d/dxi of phi along the constraint curve is positive on (xi0, 1]
        problem = PhiProblem(2.0, 2.0)
        a, b, xi0 = problem.alpha, problem.beta, problem.xi0
        xi = np.linspace(xi0 * 1.001, 1.0, 500)
        deriv = ((xi / xi0) ** (b / a) / xi - 1.0) / (a - 1.0)
        assert np.all(deriv > 0)


class TestBoundReportConsistency:
    def test_tsallis_matches_manual_assembly(self):
        m = random_projective_povm(2, seed=50)
        n = random_projective_povm(2, seed=51)
        rho = linalg.random_density(2, 2, seed=52)
        orders = conjugate_order(1.5)
        report = tsallis_uncertainty_check(m, n, rho, orders, "g")
        lhs = tsallis_entropy(povm_probabilities(m, rho), 1.5) + tsallis_entropy(
            povm_probabilities(n, rho), orders.beta
        )
        assert report.lhs == pytest.approx(lhs, abs=1e-12)
        assert report.rhs == pytest.approx(alpha_log(report.factor**-2, orders.mu), abs=1e-12)
        assert report.slack == pytest.approx(report.lhs - report.rhs, abs=1e-12)
