import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unravel import channels, linalg
from unravel.channels import (
    Unraveling,
    apply_channel,
    effect_probabilities,
    extremal_unraveling,
    gram_matrix,
    random_unraveling,
    remix,
    remixed_probabilities,
    unraveling_entropy,
)
from unravel.entropy import alpha_log, renyi_entropy, tsallis_entropy

from helpers import depolarizing_unraveling

ORDERS = [0.3, 0.7, 2.0, 5.0]


def _unitary_channel(seed=0, dim=2):
    return Unraveling((linalg.haar_random_unitary(dim, seed),))


class TestUnraveling:
    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            Unraveling((0.5 * np.eye(2),))

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            Unraveling((np.eye(2), np.zeros((3, 3))))

    def test_rejects_nan_completeness(self):
        # finite Kraus entries whose A†A overflows: inf - inf puts NaN off the diagonal,
        # and the check must reject the NaN deviation, not pass it
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="completeness violated"):
            Unraveling(([[1e200, 1e200], [1e200, -1e200]],))

    @pytest.mark.parametrize("entry", [np.inf, -np.inf])
    def test_rejects_infinite_entry_without_warning(self, entry):
        # Unraveling's finiteness test runs before the completeness sum A†A,
        # which would warn on an infinite entry (the suite raises warnings)
        with pytest.raises(ValueError, match="non-finite entries"):
            Unraveling(([[entry, 0.0], [0.0, 1.0]],))

    def test_depolarizing_complete(self):
        a = depolarizing_unraveling(0.7)
        total = sum(k.conj().T @ k for k in a.kraus_ops)
        assert np.linalg.norm(total - np.eye(2)) < 1e-12


class TestApplyChannel:
    def test_unitary_preserves_spectrum(self):
        a = _unitary_channel(seed=1)
        rho = linalg.random_density(2, 2, seed=2)
        out = apply_channel(a, rho)
        assert np.allclose(
            np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-12
        )

    def test_fully_depolarizing(self):
        a = depolarizing_unraveling(1.0)
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.linalg.norm(apply_channel(a, rho) - np.eye(2) / 2) < 1e-12

    def test_remix_invariance(self):
        a = depolarizing_unraveling(0.4)
        rho = linalg.random_density(2, 2, seed=3)
        u = linalg.haar_random_unitary(4, seed=4)
        assert np.linalg.norm(apply_channel(remix(a, u), rho) - apply_channel(a, rho)) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel(_unitary_channel(), np.eye(3) / 3)


class TestRemix:
    def test_identity(self):
        a = depolarizing_unraveling(0.5)
        b = remix(a, np.eye(4))
        for x, y in zip(a.kraus_ops, b.kraus_ops):
            assert np.allclose(x, y)

    def test_permutation(self):
        a = depolarizing_unraveling(0.5)
        perm = np.eye(4)[:, [1, 0, 3, 2]]
        b = remix(a, perm)
        for i, j in enumerate([1, 0, 3, 2]):
            assert np.allclose(b.kraus_ops[j], a.kraus_ops[i])

    def test_zero_padding(self):
        a = _unitary_channel(seed=5)
        u = linalg.haar_random_unitary(3, seed=6)
        b = remix(a, u)
        assert b.n_ops == 3
        rho = linalg.random_density(2, 2, seed=7)
        assert np.linalg.norm(apply_channel(b, rho) - apply_channel(a, rho)) < 1e-12

    def test_too_small_unitary(self):
        a = depolarizing_unraveling(0.5)
        with pytest.raises(ValueError):
            remix(a, np.eye(3))

    def test_huge_entry_rejected_before_a_product(self):
        # every entry of a unitary has modulus <= 1; u†u of 1e200 would overflow, which
        # numpy warns about (the suite raises warnings)
        with pytest.raises(ValueError, match=r"^remix unitary has an entry of modulus at least 1e\+200$"):
            remix(Unraveling([np.eye(1)]), 1e200 * np.eye(1))


class TestGramMatrix:
    def test_unitary_channel(self):
        pi = gram_matrix(_unitary_channel(seed=8), np.eye(2) / 2)
        assert pi.shape == (1, 1)
        assert pi[0, 0] == pytest.approx(1.0)

    def test_depolarizing_hand_value(self):
        p = 0.6
        pi = gram_matrix(depolarizing_unraveling(p), np.eye(2) / 2)
        assert np.linalg.norm(pi - np.diag([1 - 3 * p / 4, p / 4, p / 4, p / 4])) < 1e-12

    def test_similarity(self):
        a = random_unraveling(2, 3, seed=9)
        rho = linalg.random_density(2, 2, seed=10)
        u = linalg.haar_random_unitary(3, seed=11)
        pi_a = gram_matrix(a, rho)
        pi_b = gram_matrix(remix(a, u), rho)
        assert np.linalg.norm(pi_b - u.conj().T @ pi_a @ u) < 1e-10

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("n, rows, cols", [(1, 1, 1), (2, 2, 2), (5, 5, 5), (64, 64, 64), (3, 4, 2)])
    def test_pair_traces_is_the_conjugate_form_to_the_bit(self, trials, n, rows, cols):
        # the kernel conjugates Y rho in place and the product after, in place of a conjugate
        # copy of X: conj(x conj(y rho)^T) equals conj(x) (y rho)^T only up to signs, which
        # rounding keeps but BLAS does not promise; (3, 4, 2) is a rectangular Kraus set
        x, y = (linalg.seeded_ginibre(s, trials, n, rows, cols) for s in (1, 2))
        rho = linalg._densities(linalg.seeded_ginibre(3, trials, cols, cols))
        want = x.reshape(trials, n, -1).conj() @ (y @ rho[:, None]).reshape(trials, n, -1).swapaxes(-1, -2)
        got = channels._pair_traces(x, y, rho)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_psd_unit_trace(self):
        a = random_unraveling(3, 4, seed=12)
        rho = linalg.random_density(3, 3, seed=13)
        pi = gram_matrix(a, rho)
        assert np.trace(pi).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(pi).min() > -1e-12


class TestEffectProbabilities:
    def test_unitary_channel(self):
        p = effect_probabilities(_unitary_channel(seed=14), np.eye(2) / 2)
        assert np.allclose(p, [1.0])

    def test_depolarizing_hand_value(self):
        p = 0.8
        probs = effect_probabilities(depolarizing_unraveling(p), np.eye(2) / 2)
        assert np.allclose(probs, [1 - 3 * p / 4, p / 4, p / 4, p / 4], atol=1e-12)

    def test_matches_gram_diagonal(self):
        a = random_unraveling(2, 4, seed=15)
        rho = linalg.random_density(2, 2, seed=16)
        pi = gram_matrix(a, rho)
        assert np.allclose(effect_probabilities(a, rho), np.diagonal(pi).real, atol=1e-12)


class TestExtremalUnraveling:
    def test_already_diagonal(self):
        res = extremal_unraveling(depolarizing_unraveling(0.6), np.eye(2) / 2)
        assert np.all(np.diff(res.lambdas) <= 1e-12)
        assert np.allclose(sorted(res.lambdas), sorted([0.55, 0.15, 0.15, 0.15]), atol=1e-12)

    def test_unitary_channel(self):
        res = extremal_unraveling(_unitary_channel(seed=17), np.eye(2) / 2)
        assert np.allclose(res.lambdas, [1.0])

    def test_extremal_gram_is_diagonal(self):
        a = random_unraveling(2, 3, seed=18)
        rho = linalg.random_density(2, 2, seed=19)
        res = extremal_unraveling(a, rho)
        pi_ex = gram_matrix(res.extremal, rho)
        assert np.linalg.norm(pi_ex - np.diag(res.lambdas)) < 1e-9

    def test_spectrum_invariant_under_remix(self):
        a = random_unraveling(2, 3, seed=20)
        rho = linalg.random_density(2, 2, seed=21)
        u = linalg.haar_random_unitary(3, seed=22)
        lam_a = extremal_unraveling(a, rho).lambdas
        lam_b = extremal_unraveling(remix(a, u), rho).lambdas
        assert np.allclose(lam_a, lam_b, atol=1e-10)

    def test_minimizes_tsallis_over_remixings(self):
        a = random_unraveling(2, 2, seed=23)
        rho = linalg.random_density(2, 2, seed=24)
        res = extremal_unraveling(a, rho)
        pi = gram_matrix(a, rho)
        probs = remixed_probabilities(pi, linalg.haar_random_unitaries(2, 2000, seed=25))
        for alpha in ORDERS:
            h_ex = tsallis_entropy(res.lambdas, alpha)
            h_min = min(tsallis_entropy(p, alpha) for p in probs)
            assert h_min - h_ex >= -1e-10


class TestUnravelingEntropy:
    def test_unitary_channel_zero(self):
        a = _unitary_channel(seed=26)
        for alpha in ORDERS:
            for kind in ("tsallis", "renyi"):
                assert unraveling_entropy(a, np.eye(2) / 2, alpha, kind) == pytest.approx(
                    0.0, abs=1e-12
                )

    def test_uniform_hand_value(self):
        a = depolarizing_unraveling(1.0)
        assert unraveling_entropy(a, np.eye(2) / 2, 2.0, "tsallis") == pytest.approx(0.75)

    def test_extremal_below_original(self):
        for seed in range(5):
            a = random_unraveling(2, 3, seed=100 + seed)
            rho = linalg.random_density(2, 2, seed=200 + seed)
            res = extremal_unraveling(a, rho)
            for alpha in ORDERS:
                h_ex = tsallis_entropy(res.lambdas, alpha)
                h_orig = unraveling_entropy(a, rho, alpha, "tsallis")
                assert h_ex <= h_orig + 1e-10


class TestStructuralInvariants:
    def test_unistochastic_mixing(self):
        a = random_unraveling(2, 3, seed=30)
        rho = linalg.random_density(2, 2, seed=31)
        res = extremal_unraveling(a, rho)
        s = np.abs(res.diagonalizer) ** 2
        assert np.allclose(s.sum(axis=0), 1.0, atol=1e-10)
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-10)
        p = effect_probabilities(a, rho)
        assert np.allclose(p, s @ res.lambdas, atol=1e-10)

    def test_jensen_consistency(self):
        def h(x, alpha):
            return (x**alpha - x) / (1 - alpha)

        a = random_unraveling(3, 3, seed=32)
        rho = linalg.random_density(3, 3, seed=33)
        res = extremal_unraveling(a, rho)
        s = np.abs(res.diagonalizer) ** 2
        lam = res.lambdas
        for alpha in (0.5, 2.0, 4.0):
            lhs = np.sum(h(s @ lam, alpha))
            rhs = np.sum(h(lam, alpha))
            assert lhs >= rhs - 1e-10

    def test_checks_hermitian_once(self, monkeypatch):
        # the state is validated; the Gram matrix, Hermitian as built, is not checked again
        calls, original = [], linalg.check_hermitian
        monkeypatch.setattr(linalg, "check_hermitian", lambda *a, **k: calls.append(a) or original(*a, **k))
        extremal_unraveling(random_unraveling(3, 4, seed=37), linalg.random_density(3, 2, seed=38))
        assert len(calls) == 1

    def test_remixed_probabilities_matches_direct(self):
        # the fast diag(U† Pi U) path agrees with building remixed unravelings
        a = random_unraveling(2, 3, seed=34)
        rho = linalg.random_density(2, 2, seed=35)
        pi = gram_matrix(a, rho)
        us = linalg.haar_random_unitaries(3, 5, seed=36)
        fast = remixed_probabilities(pi, us)
        for k in range(5):
            direct = effect_probabilities(remix(a, us[k]), rho)
            assert np.allclose(fast[k], direct, atol=1e-12)


class TestRenyiMinimumIsTheGramSpectrum:
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


class TestFactoredKrausSet:
    """random_unraveling holds its operators as the factors A_i = Z_i X of Cholesky QR,
    V = Z X (see channels); a Kraus set given from outside holds the operators."""

    @pytest.mark.parametrize("seed", [0, 7, 2**70])
    @pytest.mark.parametrize("dim, n", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 4), (5, 3), (8, 2), (8, 8)])
    def test_kraus_ops_are_the_isometry_kraus_to_the_bit(self, dim, n, seed):
        # one operator makes a square draw, which takes Householder QR and stays a plain set
        a = random_unraveling(dim, n, seed)
        assert (a.n_ops, a.dim_out, a.dim_in) == (n, dim, dim)
        assert (a._factor is None) == (n == 1)
        want = channels._isometry_kraus(linalg.seeded_ginibre(seed, n * dim, dim), n)
        got = a.kraus_ops
        assert got.shape == want.shape and got.flags.c_contiguous and got.tobytes() == want.tobytes()

    @staticmethod
    def kraus_sets(dim: int) -> list:
        """A factored set, the same operators given from outside, and a rectangular set."""
        a = random_unraveling(dim, 3, seed=dim)
        return [a, Unraveling(a.kraus_ops), _random_kraus_set(np.random.default_rng(dim), dim, dim + 1, 2)]

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_gram_matrix_is_the_extremal_gram_to_the_bit(self, dim):
        rho = linalg.random_density(dim, dim, seed=100 + dim)
        for a in self.kraus_sets(dim):
            assert gram_matrix(a, rho).tobytes() == extremal_unraveling(a, rho).gram.tobytes()
        factored, given, _ = self.kraus_sets(dim)
        assert np.abs(gram_matrix(factored, rho) - gram_matrix(given, rho)).max() <= 1e-14

    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_effect_probabilities_match_the_gram_diagonal(self, dim, n):
        a = random_unraveling(dim, n, seed=200 + 10 * dim + n)
        rho = linalg.random_density(dim, max(1, dim - 1), seed=300 + dim)
        assert a._factor is not None
        diagonal = np.diagonal(gram_matrix(a, rho)).real
        assert np.abs(effect_probabilities(a, rho) - diagonal).max() <= 1e-12

    def test_spoiled_factor_fails_completeness(self, monkeypatch):
        # a Cholesky factor off by 1e-6: V = Z X is off an isometry, and the X† (Z†Z) X check says so
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda g: cholesky(g) * (1 + 1e-6))
        with pytest.raises(ValueError, match=r"^completeness violated: \|\|sum A†A - I\|\|_F = "):
            random_unraveling(3, 2, seed=0)
        monkeypatch.undo()
        assert random_unraveling(3, 2, seed=0).n_ops == 2
