import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unravel import linalg
from unravel.channels import (
    Unraveling,
    effect_probabilities,
    extremal_unraveling,
    gram_matrix,
    random_unraveling,
    remix,
    remixed_probabilities,
)
from unravel.entropy import conjugate_order, renyi_entropy, tsallis_entropy
from unravel.bounds import SearchConfig, extremal_pair_renyi, extremal_pair_tsallis

from helpers import depolarizing_unraveling, measurement_channel, x_basis_povm, z_basis_povm


class TestSearchConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SearchConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            SearchConfig(alpha=3.0, restarts=0)


class TestRenyiExtremalSearch:
    # the Renyi minimum over remixings is the Renyi entropy of the Gram spectrum
    def test_single_kraus_trivial(self):
        a = Unraveling((linalg.haar_random_unitary(2, 0),))
        rho = np.eye(2) / 2
        result = extremal_unraveling(a, rho)
        assert renyi_entropy(result.lambdas, 3.0) == pytest.approx(0.0, abs=1e-12)
        assert result.extremal.n_ops == 1

    def test_flat_spectrum_is_invariant(self):
        # fully depolarizing Pauli channel on I/2 has Gram = I/4: every remix is uniform
        a = depolarizing_unraveling(1.0)
        rho = np.eye(2) / 2
        pi = gram_matrix(a, rho)
        assert np.linalg.norm(pi - np.eye(4) / 4) < 1e-12
        probs = remixed_probabilities(pi, linalg.haar_random_unitaries(4, 100, seed=1))
        assert np.allclose(probs, 0.25, atol=1e-10)
        entropy = renyi_entropy(extremal_unraveling(a, rho).lambdas, 3.0)
        assert entropy == pytest.approx(np.log(4), abs=1e-10)

    def test_determinism(self):
        a = random_unraveling(2, 3, seed=2)
        rho = linalg.random_density(2, 2, seed=3)
        e1 = renyi_entropy(extremal_unraveling(a, rho).lambdas, 3.0)
        e2 = renyi_entropy(extremal_unraveling(a, rho).lambdas, 3.0)
        assert e1 == e2

    def test_never_exceeds_input_or_analytic_extremal(self):
        for seed in range(5):
            a = random_unraveling(2, 3, seed=10 + seed)
            rho = linalg.random_density(2, 2, seed=20 + seed)
            result = extremal_unraveling(a, rho)
            entropy = renyi_entropy(result.lambdas, 2.5)
            h_input = renyi_entropy(effect_probabilities(a, rho), 2.5)
            assert entropy <= h_input + 1e-12
            # the extremal unraveling's own probabilities give the entropy
            assert entropy == pytest.approx(
                renyi_entropy(effect_probabilities(result.extremal, rho), 2.5), abs=1e-10
            )

    def test_sanity_inversion_below_one(self):
        # for alpha < 1 the analytic extremal is optimal; the entropy must match it
        for seed in range(5):
            a = random_unraveling(2, 3, seed=30 + seed)
            rho = linalg.random_density(2, 2, seed=40 + seed)
            lambdas = extremal_unraveling(a, rho).lambdas
            entropy = renyi_entropy(lambdas, 0.5)
            target = 2.0 * np.log(np.sqrt(lambdas).sum())
            assert abs(entropy - target) <= 1e-8

    def test_beats_random_sampling(self):
        a = random_unraveling(2, 3, seed=50)
        rho = linalg.random_density(2, 2, seed=51)
        pi = gram_matrix(a, rho)
        probs = remixed_probabilities(pi, linalg.haar_random_unitaries(3, 20_000, seed=52))
        baseline = min(renyi_entropy(p, 3.0) for p in probs)
        entropy = renyi_entropy(extremal_unraveling(a, rho).lambdas, 3.0)
        assert entropy <= baseline + 1e-6


def _random_kraus_set(rng, dim_in, dim_out, n_ops):
    """Kraus blocks of a Haar-random isometry C^dim_in -> C^(n_ops * dim_out)."""
    q, r = np.linalg.qr(linalg.ginibre(rng, n_ops * dim_out, dim_in))
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return Unraveling(tuple(q.reshape(n_ops, dim_out, dim_in)))


class TestGramSpectrumMinimizesEveryOrder:
    # diag(U† Pi U) is majorized by the Gram spectrum and Renyi/Tsallis
    # entropies are Schur-concave, so no remixing goes below the spectrum
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_remixings_never_beat_the_spectrum(self, dim_in, dim_out, n_ops, extra, seed):
        n_ops = max(n_ops, -(-dim_in // dim_out))  # an isometry needs n_ops * dim_out >= dim_in
        rng = np.random.default_rng(seed)
        a = _random_kraus_set(rng, dim_in, dim_out, n_ops)
        rho = linalg.random_density(dim_in, int(rng.integers(1, dim_in + 1)), seed)
        lambdas = extremal_unraveling(a, rho).lambdas
        for k in range(5):
            u = linalg.haar_random_unitary(n_ops + extra, seed + k)
            p = effect_probabilities(remix(a, u), rho)
            for alpha in (0.3, 0.5, 1.0, 2.0, 3.0, 7.0):
                assert renyi_entropy(p, alpha) >= renyi_entropy(lambdas, alpha) - 1e-12
                assert tsallis_entropy(p, alpha) >= tsallis_entropy(lambdas, alpha) - 1e-12


class TestExtremalPairTsallis:
    def test_unitary_pair(self):
        a = Unraveling((linalg.haar_random_unitary(2, 60),))
        report = extremal_pair_tsallis(a, a, np.eye(2) / 2, conjugate_order(2.0))
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.factor == pytest.approx(1.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)

    def test_zx_measurement_channels(self):
        a = measurement_channel(z_basis_povm())
        b = measurement_channel(x_basis_povm())
        orders = conjugate_order(2.0)
        report = extremal_pair_tsallis(a, b, np.eye(2) / 2, orders)
        # both sides measure uniformly on I/2
        assert report.lhs == pytest.approx(0.5 + 3 * (2 ** (1 / 3) - 1), abs=1e-10)
        assert report.slack >= -1e-9

    def test_random_pairs(self):
        for seed in range(10):
            a = random_unraveling(2, 2, seed=70 + seed)
            b = random_unraveling(2, 3, seed=80 + seed)
            rho = linalg.random_density(2, 2, seed=90 + seed)
            for alpha in (1.5, 2.0, 3.0):
                report = extremal_pair_tsallis(a, b, rho, conjugate_order(alpha))
                assert report.slack >= -1e-9


class TestExtremalPairRenyi:
    def test_unitary_pair(self):
        a = Unraveling((linalg.haar_random_unitary(2, 61),))
        cfg = SearchConfig(alpha=2.0, restarts=2, iterations=10)
        report = extremal_pair_renyi(a, a, np.eye(2) / 2, conjugate_order(2.0), cfg)
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)

    def test_zx_measurement_channels(self):
        a = measurement_channel(z_basis_povm())
        b = measurement_channel(x_basis_povm())
        cfg = SearchConfig(alpha=2.0, restarts=3, iterations=50)
        report = extremal_pair_renyi(a, b, np.eye(2) / 2, conjugate_order(2.0), cfg)
        assert report.lhs == pytest.approx(2 * np.log(2), abs=1e-10)
        assert report.slack >= -1e-9

    def test_alpha_below_one_rejected(self):
        a = depolarizing_unraveling(0.5)
        cfg = SearchConfig(alpha=2.0, restarts=2, iterations=10)
        with pytest.raises(ValueError):
            extremal_pair_renyi(a, a, np.eye(2) / 2, conjugate_order(0.7), cfg)

    def test_random_pairs(self):
        cfg = SearchConfig(alpha=2.0, restarts=3, iterations=60, seed=7)
        for seed in range(5):
            a = random_unraveling(2, 3, seed=110 + seed)
            b = random_unraveling(2, 2, seed=120 + seed)
            rho = linalg.random_density(2, 2, seed=130 + seed)
            report = extremal_pair_renyi(a, b, rho, conjugate_order(2.0), cfg)
            assert report.slack >= -1e-9
