import numpy as np
import pytest

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

from helpers import depolarizing_unraveling, x_basis_povm, z_basis_povm


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
        for seed in range(10):
            m = random_projective_povm(3, seed=100 + seed)
            n = random_projective_povm(3, seed=200 + seed)
            rho = linalg.random_density(3, 3, seed=300 + seed)
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
        assert report.limit_extrapolated

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
