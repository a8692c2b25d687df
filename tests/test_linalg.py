import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unravel import bounds, channels, linalg
from unravel.channels import random_unraveling

from helpers import psd_sqrt


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestCheckHermitian:
    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(4)
        h = _rand_complex(rng, (5, 3, 3))
        h = (h + h.conj().swapaxes(1, 2)) / 2 + 1e-12 * _rand_complex(rng, (5, 3, 3))
        stacked = linalg.check_hermitian(h)
        for k in range(5):
            assert np.array_equal(stacked[k], linalg.hermitianize(h[k]))
            assert np.array_equal(stacked[k], linalg.check_hermitian(h[k]))

    def test_names_offending_element(self):
        h = np.stack([np.eye(2, dtype=complex)] * 4)
        for k in range(4):
            bad = h.copy()
            bad[k, 0, 1] = 0.1
            with pytest.raises(ValueError, match=f"stack {k} is not Hermitian"):
                linalg.check_hermitian(bad, name="stack")

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError):
            linalg.check_hermitian(np.zeros((3, 2, 4)))

    def test_rejects_non_finite(self):
        h = np.stack([np.eye(2)] * 2).astype(complex)
        h[1, 1, 1] = np.nan
        with pytest.raises(ValueError):
            linalg.check_hermitian(h)

    def test_density_rejects_stack(self):
        with pytest.raises(ValueError, match="one matrix"):
            linalg.check_density(np.stack([np.eye(2) / 2] * 2))


class TestDensitySpectrum:
    def test_stack_matches_per_matrix(self):
        rhos = np.stack([linalg.random_density(3, r, seed=s) for s, r in ((1, 3), (2, 1), (3, 2))])
        stacked, w, v = linalg.density_spectrum(rhos, vectors=True)
        for k, rho in enumerate(rhos):
            one, w1, v1 = linalg.density_spectrum(rho, vectors=True)
            assert np.array_equal(stacked[k], one) and np.array_equal(w[k], w1) and np.array_equal(v[k], v1)
        assert np.array_equal(linalg.density_spectrum(rhos)[1], np.linalg.eigvalsh(stacked))

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda r: r * 1.01, "rho 1 has trace"),
            (lambda r: np.diag([1.5, -0.5]).astype(complex), "rho 1 is not PSD"),
            (lambda r: r + np.triu(np.ones((2, 2)), 1), "rho 1 is not Hermitian"),
        ],
    )
    def test_names_offending_element(self, spoil, message):
        rhos = np.stack([np.eye(2) / 2] * 3).astype(complex)
        rhos[1] = spoil(rhos[1])
        with pytest.raises(ValueError, match=message):
            linalg.density_spectrum(rhos)
        with pytest.raises(ValueError, match=message.replace("rho 1", "rho")):
            linalg.check_density(rhos[1])


class TestTwoLeadingAxes:
    """The validators take any leading axes and name an element by its flat index."""

    def test_match_each_matrix(self):
        rhos = np.stack([linalg.random_density(3, 1 + s % 3, seed=s) for s in range(6)]).reshape(2, 3, 3, 3)
        hermitian = linalg.check_hermitian(rhos)
        stacked, w, v = linalg.density_spectrum(rhos, vectors=True)
        for idx in np.ndindex(2, 3):
            one, w1, v1 = linalg.density_spectrum(rhos[idx], vectors=True)
            assert np.array_equal(hermitian[idx], linalg.check_hermitian(rhos[idx]))
            assert np.array_equal(stacked[idx], one) and np.array_equal(w[idx], w1) and np.array_equal(v[idx], v1)

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda r: r * 1.01, "rho 4 has trace"),
            (lambda r: np.diag([1.5, -0.5]).astype(complex), "rho 4 is not PSD"),
            (lambda r: r + np.triu(np.ones((2, 2)), 1), "rho 4 is not Hermitian"),
        ],
    )
    def test_name_flat_index(self, spoil, message):
        rhos = np.stack([np.eye(2) / 2] * 6).astype(complex).reshape(2, 3, 2, 2)
        rhos[1, 1] = spoil(rhos[1, 1])  # flat index 4
        with pytest.raises(ValueError, match=message):
            linalg.density_spectrum(rhos)
        if "Hermitian" in message:
            with pytest.raises(ValueError, match=message):
                linalg.check_hermitian(rhos, name="rho")


@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 10**23])
def test_ginibre_is_the_two_draw_formula_to_the_bit(seed):
    # one generator shared by a sequence of draws, as random_povm draws its pieces
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for shape in [(1,), (3, 1), (8, 8), (2, 3, 4), (5, 64), (0, 3), (4, 4)]:
        a, b = theirs.standard_normal(shape), theirs.standard_normal(shape)
        want, got = (a + 1j * b) / np.sqrt(2), linalg.ginibre(ours, *shape)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous
    # the shared assembly on the strided halves of one (trials, 2, d) draw, as demo dft reads it
    z = theirs.standard_normal((5, 2, 3))
    want, got = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2), linalg._complex_gaussian(z[:, 0], z[:, 1])
    assert got.tobytes() == want.tobytes() and got.flags.c_contiguous


def _reference_ginibre(seed, *shape):
    """Reference seeded draw: two standard_normal(shape) calls on a fresh generator."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    return (a + 1j * b) / np.sqrt(2)


class TestGinibreStack:
    @settings(max_examples=200, deadline=None)
    @given(
        seeds=st.lists(st.sampled_from([0, 1, 2**63, 10**23]) | st.integers(0, 2**128), min_size=1, max_size=6),
        shape=st.lists(st.integers(0, 4), max_size=3),
    )
    @example(seeds=[0, 2**63, 10**23], shape=[3, 2])
    @example(seeds=[10**23, 10**23, 0, 10**23], shape=[2, 2])
    @example(seeds=[2**63], shape=[4, 1])
    @example(seeds=[5], shape=[0, 3])
    @example(seeds=[5, 6, 5], shape=[3, 0])
    def test_is_per_seed_ginibre_to_the_bit(self, seeds, shape):
        want = np.stack([linalg.ginibre(np.random.default_rng(s), *shape) for s in seeds])
        got = linalg.ginibre_stack(seeds, *shape)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("seed", [0, 3, 2**63, 10**23])
    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_one_seed_generators_keep_their_draws(self, seed, dim):
        # each one-seed generator is, bit for bit, its kernel on the reference draw
        z = _reference_ginibre(seed, dim, dim)
        assert linalg.seeded_ginibre(seed, dim, dim).tobytes() == z.tobytes()
        assert linalg.seeded_ginibre(seed, dim, dim).flags.c_contiguous
        want = linalg._densities(_reference_ginibre(seed, dim, max(1, dim - 1)))
        assert linalg.random_density(dim, max(1, dim - 1), seed).tobytes() == want.tobytes()
        want = linalg.positive_qr(_reference_ginibre(seed, 3, dim, dim))
        assert linalg.haar_random_unitaries(dim, 3, seed).tobytes() == want.tobytes()
        want = channels._isometry_kraus(_reference_ginibre(seed, 2 * dim, dim), 2)
        assert random_unraveling(dim, 2, seed).kraus_ops.tobytes() == want.tobytes()
        want = bounds._projective(linalg.positive_qr(_reference_ginibre(seed, 1, dim, dim))[0])
        assert bounds.random_projective_povm(dim, seed).roots.tobytes() == want.roots.tobytes()


def test_vector_norm_is_numpy_norm_to_the_bit():
    rng = np.random.default_rng(5)
    for d in (1, 2, 7, 8, 33, 100):
        x = linalg.ginibre(rng, 50, d)
        assert np.array_equal(linalg.vector_norm(x), [np.linalg.norm(row) for row in x])


class TestHermitianEig:
    def test_diagonal(self):
        w, v = linalg._descending_eig(np.diag([0.7, 0.3]))
        assert np.allclose(w, [0.7, 0.3])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_pauli_x(self):
        w, _ = linalg._descending_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [1.0, -1.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        h = _rand_complex(rng, (5, 5))
        h = (h + h.conj().T) / 2
        w, v = linalg._descending_eig(h)
        assert np.linalg.norm((v * w) @ v.conj().T - h) < 1e-10
        assert np.all(np.diff(w) <= 1e-12)
        # trace preserved, V unitary
        assert np.sum(w) == pytest.approx(np.trace(h).real, abs=1e-10)
        assert np.linalg.norm(v.conj().T @ v - np.eye(5)) < linalg.TOL_UNITARY
        # residuals per column
        for j in range(5):
            assert np.linalg.norm(h @ v[:, j] - w[j] * v[:, j]) <= 1e-10 * np.linalg.norm(h)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            linalg.check_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(6)
        h = _rand_complex(rng, (4, 3, 3))
        h = (h + h.conj().swapaxes(1, 2)) / 2
        w, v = linalg._descending_eig(h)
        for k in range(4):
            wk, vk = linalg._descending_eig(h[k])
            assert np.allclose(w[k], wk, atol=1e-12)
            assert np.allclose(np.abs(v[k].conj().T @ vk), np.eye(3), atol=1e-10)


class TestPsdSqrt:
    def test_maximally_mixed(self):
        d = 3
        s = psd_sqrt(np.eye(d) / d)
        assert np.allclose(s, np.eye(d) / np.sqrt(d))

    def test_pure_projector(self):
        proj = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert np.allclose(psd_sqrt(proj), proj)

    def test_squaring_oracle_and_commutation(self):
        rho = linalg.random_density(3, 2, seed=7)
        s = psd_sqrt(rho)
        assert np.linalg.norm(s @ s - rho) < 1e-10
        assert np.linalg.norm(s @ rho - rho @ s) < 1e-10

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.diag([1.0, -0.5]))


class TestHaarUnitary:
    def test_dim1(self):
        u = linalg.haar_random_unitary(1, seed=0)
        assert abs(abs(u[0, 0]) - 1) < 1e-12

    def test_determinism(self):
        a = linalg.haar_random_unitary(4, seed=11)
        b = linalg.haar_random_unitary(4, seed=11)
        assert np.array_equal(a, b)

    def test_unitarity(self):
        u = linalg.haar_random_unitary(6, seed=3)
        assert np.linalg.norm(u.conj().T @ u - np.eye(6)) < linalg.TOL_UNITARY

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            linalg.haar_random_unitary(0, seed=0)

    def test_single_matches_batched(self):
        # both draw through one QR phase fix, so a stack of one is the same unitary
        for d in (2, 3, 8, 64):
            assert np.array_equal(linalg.haar_random_unitary(d, 9), linalg.haar_random_unitaries(d, 1, 9)[0])

    def test_haar_moment(self):
        # E|u_11|^2 = 1/d for Haar measure
        us = linalg.haar_random_unitaries(4, 10_000, seed=5)
        mean = np.mean(np.abs(us[:, 0, 0]) ** 2)
        assert mean == pytest.approx(0.25, abs=0.01)


def _householder_qr(z):
    """Reference positive_qr: Householder QR with R's diagonal made positive, for every shape."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _orthogonality(q) -> float:
    """max over a stack of ||Q†Q - I||_F."""
    return np.linalg.norm(q.conj().swapaxes(-1, -2) @ q - np.eye(q.shape[-1]), axis=(-2, -1)).max()


class TestPositiveQr:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        stack=st.one_of(st.just(()), st.tuples(st.integers(1, 3))),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_householder(self, rows, cols, stack, seed):
        z = linalg.seeded_ginibre(seed, *stack, rows, cols)
        q, ref = linalg.positive_qr(z), _householder_qr(z)
        if rows >= 2 * cols:  # Cholesky QR: the same Q up to rounding
            assert np.abs(q - ref).max() <= 1e-13
            assert _orthogonality(q) <= 1e-13
        else:  # Householder QR, bit for bit
            assert q.dtype == ref.dtype and q.tobytes() == ref.tobytes()

    def test_tall_kraus_draw(self):
        # the isometry of a d = 64 sweep trial's Kraus set
        z = linalg.seeded_ginibre(7, 4096, 64)
        q = linalg.positive_qr(z)
        assert np.abs(q - _householder_qr(z)).max() <= 1e-13
        assert _orthogonality(q) <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_one_kraus_operator_is_householder(self, dim):
        # a square draw: random_unraveling(d, 1, s) is the Householder unitary to the bit
        want = _householder_qr(linalg.seeded_ginibre(5, dim, dim))
        assert random_unraveling(dim, 1, 5).kraus_ops[0].tobytes() == want.tobytes()


class TestCheckUnitary:
    def test_accepts_haar_unitary(self):
        u = linalg.haar_random_unitary(4, seed=2)
        assert np.array_equal(linalg.check_unitary(u), u)

    @pytest.mark.parametrize("entry", [np.inf, -np.inf])
    def test_rejects_infinite_entry_without_warning(self, entry):
        # u†u of an infinite entry warns "invalid value encountered in matmul", which the
        # suite raises, so the finiteness test must come before check_identity
        with pytest.raises(ValueError, match="not a finite square matrix"):
            linalg.check_unitary([[entry, 0.0], [0.0, 1.0]])

    def test_rejects_nan_deviation(self):
        # u†u overflows to inf - inf = NaN off the diagonal; a NaN deviation is rejected
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not unitary"):
            linalg.check_unitary([[1e200, 1e200], [1e200, -1e200]])


class TestRandomDensity:
    def test_rank1_is_pure(self):
        rho = linalg.random_density(3, 1, seed=0)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)

    def test_trace_one(self):
        rho = linalg.random_density(4, 3, seed=1)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_full_rank_eigenvalues_positive(self):
        rho = linalg.random_density(3, 3, seed=2)
        assert np.linalg.eigvalsh(rho).min() > 0

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            linalg.random_density(3, 4, seed=0)
        with pytest.raises(ValueError):
            linalg.random_density(3, 0, seed=0)
