import tracemalloc

import numpy as np
import pytest

from unravel.demos import (
    AngleState,
    angle_momentum_demo,
    bin_probabilities,
    dft_uncertainty_demo,
    gaussian_wavepacket,
)
from unravel.entropy import alpha_log, conjugate_order, tsallis_entropy
from unravel.linalg import TOL_UNITARY

from helpers import bin_means, dft_matrix, momenta, psi_lb_norm, random_state_vector


def _momentum_state(coeffs, nbins):
    c = np.asarray(coeffs, complex)
    return AngleState(c / np.linalg.norm(c), nbins)


def _exact_bin_probs(state):
    """Fourier-coefficient oracle: integrate |Psi|^2 over each bin analytically."""
    ls = momenta(state)
    c = state.coeffs
    edges = np.linspace(0.0, 2 * np.pi, state.nbins + 1)
    p = np.zeros(state.nbins)
    for k in range(state.nbins):
        lo, hi = edges[k], edges[k + 1]
        total = 0.0 + 0.0j
        for i, li in enumerate(ls):
            for j, lj in enumerate(ls):
                m = lj - li
                if m == 0:
                    seg = hi - lo
                else:
                    seg = (np.exp(1j * m * hi) - np.exp(1j * m * lo)) / (1j * m)
                total += np.conj(c[i]) * c[j] * seg
        p[k] = (total / (2 * np.pi)).real
    return p


class TestDftMatrix:
    def test_dim_one(self):
        assert np.allclose(dft_matrix(1), [[1.0]])

    def test_dim_two_moduli(self):
        f = dft_matrix(2)
        assert np.allclose(np.abs(f), 1 / np.sqrt(2))

    def test_dim_five(self):
        f = dft_matrix(5)
        assert np.allclose(np.abs(f), 1 / np.sqrt(5), atol=1e-12)
        assert np.linalg.norm(f.conj().T @ f - np.eye(5)) < 1e-12

    def test_unitarity_range(self):
        for d in range(1, 9):
            f = dft_matrix(d)
            assert np.linalg.norm(f.conj().T @ f - np.eye(d)) < TOL_UNITARY


class TestDftDemo:
    def test_basis_state_saturation(self):
        for d in range(2, 9):
            for alpha in (1.5, 2.0, 3.0):
                basis = np.zeros(d)
                basis[0] = 1.0
                report = dft_uncertainty_demo(basis, conjugate_order(alpha))
                assert report.rhs == pytest.approx(alpha_log(d, alpha), abs=1e-12)
                assert abs(report.slack) <= 1e-10

    def test_state_within_norm_tolerance(self):
        # |c| = 1 + 8e-11 passes the unit-norm check, so its |c|^2, which sums to
        # 1 + 1.6e-10, is normalized, not rejected
        c = np.array([0.6, 0.8j]) * (1 + 8e-11)
        for alpha in (0.7, 1.0, 2.0):
            report = dft_uncertainty_demo(c, conjugate_order(alpha))
            assert report.slack >= -1e-9
            want = dft_uncertainty_demo(c / (1 + 8e-11), conjugate_order(alpha)).lhs
            assert report.lhs == pytest.approx(want, abs=1e-14)

    def test_basis_state_saturation_near_order_one(self):
        # the entropies are exact through alpha = 1, so no order near it loses the saturation
        for d in range(1, 17):
            basis = np.zeros(d)
            basis[0] = 1.0
            for alpha in (1.0, 1 - 1e-9, 1 + 1e-9, 1 - 1.3e-8, 1 + 1.3e-8, 1 + 1e-4):
                assert dft_uncertainty_demo(basis, conjugate_order(alpha)).slack >= -1e-12

    def test_uniform_state_saturation(self):
        # the DFT image of a uniform state is concentrated, so the saturating
        # assignment puts mu on the input-side distribution
        d = 4
        uniform = np.full(d, 1 / np.sqrt(d))
        report = dft_uncertainty_demo(uniform, conjugate_order(2 / 3))
        assert abs(report.slack) <= 1e-10

    def test_random_states(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 5):
            for _ in range(50):
                psi = random_state_vector(d, rng)
                for alpha in (1.5, 2.0, 3.0):
                    report = dft_uncertainty_demo(psi, conjugate_order(alpha))
                    assert report.slack >= -1e-10

    def test_duality_swap(self):
        # feeding DFT*c with swapped orders reproduces the entropy sum
        rng = np.random.default_rng(1)
        d = 4
        c = random_state_vector(d, rng)
        orders = conjugate_order(2.0)
        direct = dft_uncertainty_demo(c, orders)
        f = dft_matrix(d)
        # |F F c| is a permutation of |c|
        assert np.allclose(sorted(np.abs(f @ (f @ c)) ** 2), sorted(np.abs(c) ** 2), atol=1e-12)
        from unravel.entropy import ConjugateOrders

        swapped_orders = ConjugateOrders(orders.beta, orders.alpha, orders.mu)
        swapped = dft_uncertainty_demo(f @ c, swapped_orders)
        assert swapped.lhs == pytest.approx(direct.lhs, abs=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="state is not normalized"):
            dft_uncertainty_demo(np.array([1.0, 1.0]), conjugate_order(2.0))
        with pytest.raises(ValueError, match="state 1 is not normalized"):
            dft_uncertainty_demo(np.array([[1.0, 0.0], [1.0, 1.0]]), conjugate_order(2.0))
        with pytest.raises(ValueError, match="vector or a stack"):
            dft_uncertainty_demo(np.ones((1, 1, 1)), conjugate_order(2.0))

    def test_rejects_nan_state(self):
        # the norm check rejects NaN itself, before any probability is formed
        with pytest.raises(ValueError, match="state is not normalized"):
            dft_uncertainty_demo(np.array([np.nan, 0.0]), conjugate_order(2.0))

    def test_stack_matches_per_state(self):
        # one stacked call reports what a call per state reports, to the bit
        rng = np.random.default_rng(4)
        for d in (1, 2, 5, 8, 13, 64):
            states = np.stack([random_state_vector(d, rng) for _ in range(30)])
            for alpha in (0.6, 1.0, 2.5):
                orders = conjugate_order(alpha)
                stacked = dft_uncertainty_demo(states, orders)
                singles = [dft_uncertainty_demo(c, orders) for c in states]
                assert stacked.lhs.shape == stacked.slack.shape == (30,)
                assert stacked.lhs.tolist() == [r.lhs for r in singles]
                assert stacked.slack.tolist() == [r.slack for r in singles]
                assert (stacked.rhs, stacked.factor) == (singles[0].rhs, singles[0].factor)

    def test_matches_dft_matrix_report(self):
        # the FFT gives the entries of |F c|^2 in another order, so the entropies agree
        # up to the order of summation
        rng = np.random.default_rng(3)
        for d in (1, 2, 3, 8, 13, 64):
            for alpha in (0.6, 1.0, 2.0):
                c = random_state_vector(d, rng)
                orders = conjugate_order(alpha)
                p, q = np.abs(dft_matrix(d) @ c) ** 2, np.abs(c) ** 2
                want = tsallis_entropy(p, alpha) + tsallis_entropy(q, orders.beta)
                assert dft_uncertainty_demo(c, orders).lhs == pytest.approx(want, rel=1e-14, abs=1e-14)


class TestDftNormChain:
    def test_riesz_both_directions(self):
        # ||c||_a <= (1/sqrt(d))^((2-b)/b) ||Fc||_b and vice versa, 1/a + 1/b = 1
        rng = np.random.default_rng(2)
        for d in (3, 5):
            f = dft_matrix(d)
            for _ in range(20):
                c = random_state_vector(d, rng)
                ct = f @ c
                for b in (1.2, 1.5, 1.8):
                    a = b / (b - 1)
                    const = (1 / np.sqrt(d)) ** ((2 - b) / b)
                    norm = lambda v, s: np.sum(np.abs(v) ** s) ** (1 / s)
                    assert norm(c, a) <= const * norm(ct, b) + 1e-10
                    assert norm(ct, a) <= const * norm(c, b) + 1e-10


class TestAngleState:
    def test_rejects_even_length(self):
        with pytest.raises(ValueError):
            AngleState(np.array([1.0, 0.0]), 4)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            AngleState(np.array([1.0, 1.0, 1.0]), 4)

    def test_rejects_nan_coefficients(self):
        # a NaN sum of |c|^2 is not within the tolerance of 1
        with pytest.raises(ValueError, match="momentum amplitudes are not normalized"):
            AngleState(np.array([np.nan, 1.0, 0.0]), 4)

    @pytest.mark.parametrize(
        "nbins, message",
        [(2.5, "an integer"), (4.0, "an integer"), (np.nan, "an integer"), (True, "an integer"), (np.True_, "an integer")]
        + [("4", "an integer"), (None, "an integer"), (0, ">= 1, got 0"), (np.int64(-3), ">= 1, got -3")],
    )
    def test_rejects_bad_nbins(self, nbins, message):
        # before np.bincount sees it; NaN raises no RuntimeWarning on the way
        with pytest.raises(ValueError, match=f"nbins must be {message}"):
            AngleState([0, 1, 0], nbins)

    @pytest.mark.parametrize("nbins", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_accepts_numpy_integer_nbins(self, nbins):
        # held as an int, so the bound is the one of nbins = 3 (np.sqrt(np.uint8(3)) is a float16)
        state, want = AngleState([0, 1, 0], nbins), AngleState([0, 1, 0], 3)
        assert type(state.nbins) is int and state.nbins == 3
        assert bin_probabilities(state).tobytes() == bin_probabilities(want).tobytes()
        orders = conjugate_order(2.0)
        assert angle_momentum_demo(state, orders)[:4] == angle_momentum_demo(want, orders)[:4]  # lhs, rhs, slack, factor


class TestBinProbabilities:
    def test_uniform_wave(self):
        s = _momentum_state([0, 1, 0], 8)
        p = bin_probabilities(s)
        assert np.allclose(p, 1 / 8, atol=1e-12)

    def test_matches_fourier_oracle(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        s = _momentum_state(c, 4)
        p = bin_probabilities(s)
        assert np.allclose(p, _exact_bin_probs(s), atol=1e-9)

    def test_gaussian_packets_exact(self):
        # (40, 0.8, 4) is sharply peaked; (50, 3.0, 1) folds every lag into one bin;
        # the others are the CLI default and its neighbours
        for truncation, width, nbins in ((40, 0.8, 4), (50, 3.0, 1), (50, 3.0, 8), (50, 1.0, 16), (50, 5.0, 4)):
            packet = gaussian_wavepacket(truncation, width, nbins)
            assert np.max(np.abs(bin_probabilities(packet) - _exact_bin_probs(packet))) <= 1e-13

    def test_memory_is_linear_in_bins(self):
        # an nbins x (4L + 1) phase matrix would take 64 MB here
        packet = gaussian_wavepacket(50, 3.0, 20000)
        tracemalloc.start()
        try:
            p = bin_probabilities(packet)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


class TestAngleDemo:
    def test_uniform_saturation(self):
        for nbins in (4, 8, 16):
            s = _momentum_state([0, 0, 1, 0, 0], nbins)
            report = angle_momentum_demo(s, conjugate_order(2.0))
            assert abs(report.slack) <= 1e-8

    def test_single_momentum_modulus_independence(self):
        nbins = 8
        c = np.zeros(11)
        c[-1] = 1.0  # l = +5
        report = angle_momentum_demo(AngleState(c, nbins), conjugate_order(2.0))
        assert abs(report.slack) <= 1e-8

    def test_gaussian_wavepacket(self):
        packet = gaussian_wavepacket(50, 3.0, 8)
        report = angle_momentum_demo(packet, conjugate_order(2.0))
        assert report.slack >= -1e-8
        assert report.rhs == pytest.approx(alpha_log(8.0, 2.0), abs=1e-12)

    def test_requires_alpha_above_one(self):
        s = _momentum_state([0, 1, 0], 4)
        for alpha in (0.7, 1 - 1e-9):
            with pytest.raises(ValueError):
                angle_momentum_demo(s, conjugate_order(alpha))
        # alpha = beta = 1 meets alpha >= 1 >= beta
        assert angle_momentum_demo(s, conjugate_order(1.0)).slack >= -1e-12

    def test_tail_guard(self):
        with pytest.raises(ValueError):
            gaussian_wavepacket(5, 3.0, 8)

    @pytest.mark.parametrize("width", [0.02, 1e-154, 1e-160, 1e-300, 5e-324])
    def test_narrow_width_is_the_limiting_packet(self, width):
        assert gaussian_wavepacket(5, width, 8).coeffs.tolist() == [0j] * 5 + [1 + 0j] + [0j] * 5

    @pytest.mark.parametrize("width", [1e155, 1.7e308])
    def test_overflowing_width_fails_the_tail_guard(self, width):
        with pytest.raises(ValueError, match="discarded tail weight"):
            gaussian_wavepacket(3, width, 8)

    def test_nan_width_rejected(self):
        with pytest.raises(ValueError, match="width must be positive"):
            gaussian_wavepacket(5, float("nan"), 8)


class TestAngleNormInequalities:
    def _random_packet(self, rng, L=6, nbins=4):
        c = rng.standard_normal(2 * L + 1) + 1j * rng.standard_normal(2 * L + 1)
        return _momentum_state(c, nbins)

    def test_per_bin_integral_mean(self):
        # (1/w) int |Psi|^(2b) <= ((1/w) int |Psi|^2)^b per bin, b < 1
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = self._random_packet(rng)
            beta = 2 / 3
            mean2b, mean2 = bin_means(s, beta)
            assert (mean2b <= mean2**beta + 1e-9).all()

    def test_norm_chain_with_bin_probabilities(self):
        # ||Psi||_b^2 <= w^((1-beta)/beta) ||p||_beta and the alpha-side reverse
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = self._random_packet(rng)
            p = bin_probabilities(s)
            w = 2 * np.pi / s.nbins
            for beta in (0.6, 0.75, 0.9):
                alpha = beta / (2 * beta - 1)
                lhs = psi_lb_norm(s, 2 * beta) ** 2
                rhs = w ** ((1 - beta) / beta) * np.sum(p**beta) ** (1 / beta)
                assert lhs <= rhs + 1e-8
                lhs2 = w ** ((1 - alpha) / alpha) * np.sum(p**alpha) ** (1 / alpha)
                rhs2 = psi_lb_norm(s, 2 * alpha) ** 2
                assert lhs2 <= rhs2 + 1e-8

    def test_young_hausdorff_pair(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = self._random_packet(rng)
            c = s.coeffs
            for b in (1.2, 1.5, 1.8):
                a = b / (b - 1)
                const = (1 / np.sqrt(2 * np.pi)) ** ((2 - b) / b)
                norm_c = lambda v, t: np.sum(np.abs(v) ** t) ** (1 / t)
                assert norm_c(c, a) <= const * psi_lb_norm(s, b) + 1e-8
                assert psi_lb_norm(s, a) <= const * norm_c(c, b) + 1e-8
