import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unravel import linalg


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestHsInner:
    def test_identity(self):
        for d in (1, 2, 5):
            assert linalg.hs_inner(np.eye(d), np.eye(d)) == pytest.approx(d)

    def test_norm_identity(self):
        rng = np.random.default_rng(0)
        x = _rand_complex(rng, (3, 3))
        val = linalg.hs_inner(x, x)
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real == pytest.approx(np.linalg.norm(x) ** 2)

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(1)
        x = _rand_complex(rng, (3, 3))
        y = _rand_complex(rng, (3, 3))
        oracle = np.sum(x.conj() * y)
        assert linalg.hs_inner(x, y) == pytest.approx(oracle, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linalg.hs_inner(np.eye(2), np.eye(3))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry_and_cauchy_schwarz(self, seed):
        rng = np.random.default_rng(seed)
        x = _rand_complex(rng, (4, 4))
        y = _rand_complex(rng, (4, 4))
        lhs = linalg.hs_inner(x, y)
        rhs = linalg.hs_inner(y, x)
        assert lhs == pytest.approx(np.conj(rhs), abs=1e-10)
        assert abs(lhs) <= np.linalg.norm(x) * np.linalg.norm(y) + 1e-10


class TestMatrixNorms:
    def test_identity(self):
        fro, spec = linalg.matrix_norms(np.eye(3))
        assert fro == pytest.approx(np.sqrt(3))
        assert spec == pytest.approx(1.0)

    def test_projector(self):
        proj = np.diag([1.0, 0.0])
        assert linalg.matrix_norms(proj) == pytest.approx((1.0, 1.0))

    def test_svd_oracle(self):
        rng = np.random.default_rng(2)
        x = _rand_complex(rng, (4, 4))
        s = np.linalg.svd(x, compute_uv=False)
        fro, spec = linalg.matrix_norms(x)
        assert fro == pytest.approx(np.sqrt(np.sum(s**2)), abs=1e-10)
        assert spec == pytest.approx(s.max(), abs=1e-10)
        assert spec <= fro + 1e-12


class TestHermitianEig:
    def test_diagonal(self):
        w, v = linalg.hermitian_eig(np.diag([0.7, 0.3]))
        assert np.allclose(w, [0.7, 0.3])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_pauli_x(self):
        w, _ = linalg.hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [1.0, -1.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        h = _rand_complex(rng, (5, 5))
        h = (h + h.conj().T) / 2
        w, v = linalg.hermitian_eig(h)
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
            linalg.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestPsdSqrt:
    def test_maximally_mixed(self):
        d = 3
        s = linalg.psd_sqrt(np.eye(d) / d)
        assert np.allclose(s, np.eye(d) / np.sqrt(d))

    def test_pure_projector(self):
        proj = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert np.allclose(linalg.psd_sqrt(proj), proj)

    def test_squaring_oracle_and_commutation(self):
        rho = linalg.random_density(3, 2, seed=7)
        s = linalg.psd_sqrt(rho)
        assert np.linalg.norm(s @ s - rho) < 1e-10
        assert np.linalg.norm(s @ rho - rho @ s) < 1e-10

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            linalg.psd_sqrt_hermitian(np.diag([1.0, -0.5]))


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
