import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8, 9, 16, 33])
def test_exponential_form_is_dirichlet_to_the_bit(m):
    # ensemble's mixture weights: the standard_exponential fill times 1 / its left-to-right
    # sum, as numpy's dirichlet scales its gamma(1) draws; from m = 8 numpy's pairwise sum
    # would differ.  numpy does not promise this, so it is pinned here
    seeds = [*range(40), 12345, 2**64, 10**23]
    e = linalg.exponential_stack(linalg._seed_states(seeds), m)
    got = e * (1 / np.add.accumulate(e, axis=-1)[:, -1:])
    want = np.stack([np.random.default_rng(s).dirichlet(np.ones(m)) for s in seeds])
    assert got.tobytes() == want.tobytes()


def _reference_ginibre(seed, *shape):
    """Reference seeded draw: two standard_normal(shape) calls on a fresh generator."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    return (a + 1j * b) / np.sqrt(2)


class TestGinibreStack:
    @settings(max_examples=200, deadline=None)
    @given(
        seeds=st.lists(st.sampled_from([0, 1, 2**63, 10**23]) | st.integers(0, 2**256), min_size=1, max_size=6),
        shape=st.lists(st.integers(0, 4), max_size=3),
    )
    @example(seeds=[0, 2**63, 10**23], shape=[3, 2])
    @example(seeds=[7, 2**191 + 5, 0, 3**120], shape=[2, 3])  # one-word and six-word seeds in one batch
    @example(seeds=[10**23, 10**23, 0, 10**23], shape=[2, 2])
    @example(seeds=[2**63], shape=[4, 1])
    @example(seeds=[5], shape=[0, 3])
    @example(seeds=[5, 6, 5], shape=[3, 0])
    def test_is_per_seed_ginibre_to_the_bit(self, seeds, shape):
        want = np.stack([linalg.ginibre(np.random.default_rng(s), *shape) for s in seeds])
        got = linalg.ginibre_stack(linalg._seed_states(seeds), *shape)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous

    def test_states_hashed_in_a_larger_batch(self):
        # a stage draws from its slice of the states of a batch hashed before
        seeds = [3, 9, 3, 2**160]
        states = linalg._seed_states([0, *seeds, 1])
        want = np.stack([linalg.ginibre(np.random.default_rng(s), 2, 2) for s in seeds])
        assert linalg.ginibre_stack(states[1:5], 2, 2).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [0, 1, 3, 8, 33])
    def test_exponential_stack_is_default_rng_to_the_bit(self, m):
        # the fill behind `ensemble`'s Dirichlet weights: slot i is default_rng(s).standard_exponential(m)
        seeds = [0, 7, 2**63, 10**23, 2**200, 7]
        want = np.stack([np.random.default_rng(s).standard_exponential(m) for s in seeds])
        got = linalg.exponential_stack(linalg._seed_states(seeds), m)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 2**70])
    @pytest.mark.parametrize("length", [1, 3, 7, 20])
    def test_slices_are_one_draw_to_the_bit(self, monkeypatch, seed, length):
        # the remixings' fill: a row's real parts, then its imaginary parts a slice at a
        # time from the same stream; 7 does not divide the 20 rows of the draw
        count, n = 20, 3
        monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", length * n * n)
        slices = list(linalg.ginibre_slices(linalg._seed_states([seed]), count, n, n))
        assert [z.shape for z in slices] == [(1, min(length, count - i), n, n) for i in range(0, count, length)]
        assert all(z.flags.c_contiguous for z in slices)
        want = linalg.ginibre(np.random.default_rng(seed), count, n, n)
        assert np.concatenate(slices, axis=1)[0].tobytes() == want.tobytes()

    def test_several_rows_are_the_stack(self, monkeypatch):
        states = linalg._seed_states([0, 7, 2**70])
        monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 3 * 5 * 2 * 2)
        (got,) = linalg.ginibre_slices(states, 5, 2, 2)
        assert got.tobytes() == linalg.ginibre_stack(states, 5, 2, 2).tobytes()
        monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 3 * 4 * 2 * 2)
        with pytest.raises(AssertionError):  # several rows never take several slices
            next(linalg.ginibre_slices(states, 5, 2, 2))

    @pytest.mark.parametrize("rows, slices", [(1, 1), (1, 2), (3, 1)])
    def test_last_slice_is_all_that_is_held(self, monkeypatch, rows, slices):
        # while the caller works on the last slice, the parts it was made from are gone
        count, n = 200, 8
        linalg.seeded_ginibre(0, 1)  # the seed interface is defined on first use
        monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", rows * count * n * n // slices)
        draw = linalg.ginibre_slices(linalg._seed_states(range(rows)), count, n, n)
        tracemalloc.start()
        try:
            for _ in range(slices - 1):
                next(draw)
            z = next(draw)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 1.1 * z.nbytes, held / z.nbytes

    def test_draw_between_slices_changes_no_bit(self, monkeypatch):
        # the slices continue the row's own stream: draws in between, from other seeds'
        # streams, change no bit of them
        got = []
        monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 2 * 2)
        for k, z in enumerate(linalg.ginibre_slices(linalg._seed_states([5]), 4, 2, 2)):
            got.append(z)
            if k % 2:
                linalg.seeded_ginibre(6, 2, 2)  # another seed's fill
            else:
                linalg._stream(linalg._seed_states([7])[0]).standard_normal(3)  # another seed's stream
        assert len(got) == 4
        want = linalg.ginibre(np.random.default_rng(5), 4, 2, 2)
        assert np.concatenate(got, axis=1)[0].tobytes() == want.tobytes()

    def test_stacks_on_two_threads_are_one_threads(self):
        # each row opens its own stream, so two threads drawing at once change no bit; a short
        # switch interval makes the threads interleave within a draw
        seed_sets = [[1000 * t + k for k in range(40)] for t in range(60)]
        states = [linalg._seed_states(seeds) for seeds in seed_sets]
        want = [linalg.ginibre_stack(s, 4, 4).tobytes() for s in states]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                got = list(pool.map(lambda s: linalg.ginibre_stack(s, 4, 4).tobytes(), states))
        finally:
            sys.setswitchinterval(interval)
        assert [g == w for g, w in zip(got, want)] == [True] * len(want)

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


# seeds at each word-count edge of numpy's SeedSequence: one to seven 32-bit words
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 10**23, 2**128 - 1, 2**128, 2**200]


class TestSeedStates:
    """_seed_states is SeedSequence's hashing, batched, and _stream seeds PCG64 from
    it: together, default_rng's seeding of each seed."""

    @staticmethod
    def check(seeds):
        got = linalg._seed_states(seeds)
        want = np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds], np.uint64).reshape(-1, 4)
        assert got.dtype == np.uint64 and got.shape == want.shape and got.tobytes() == want.tobytes()
        for s, state in zip(seeds, got):
            assert linalg._stream(state).bit_generator.state == np.random.default_rng(s).bit_generator.state

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_is_default_rng_state(self, seed):
        self.check([seed])

    def test_one_batch_of_every_word_count(self):
        self.check(EDGE_SEEDS + EDGE_SEEDS[::-1] + [5, 5, 2**200])  # repeats, and every word count mixed

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**256) | st.integers(0, 2**40), max_size=20))
    def test_any_batch(self, seeds):
        self.check(seeds)

    def test_hashed_in_slices(self, monkeypatch):
        monkeypatch.setattr(linalg, "_SEED_SLICE", 3)
        self.check([2**200, 1, 2, 3, 2**64, 5, 6, 10**23, 2**200, 9])  # the last slice holds one seed

    def test_numpy_integer_seeds(self):
        self.check([np.int64(7), np.uint64(2**64 - 1), np.int32(0)])

    def test_empty_batch(self):
        self.check([])

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (np.int64(-2), ValueError), (1.5, TypeError), ("3", TypeError)])
    def test_rejects_what_default_rng_rejects(self, seed, error):
        with pytest.raises(error):
            np.random.default_rng(seed)
        with pytest.raises(error):
            linalg._seed_states([3, seed])

    def test_stream_continues_as_default_rng(self):
        # a seed's stream reads that seed's whole stream, whatever another stream drew before
        big, small = linalg._seed_states([2**130, 11])
        linalg._stream(big).integers(0, 2**32, size=3, dtype=np.uint32)  # leaves a buffered half word
        rng, want = linalg._stream(small), np.random.default_rng(11)
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.integers(0, 2**32, size=5, dtype=np.uint32).tolist() == want.integers(0, 2**32, size=5, dtype=np.uint32).tolist()
        assert rng.dirichlet(np.ones(4)).tobytes() == want.dirichlet(np.ones(4)).tobytes()

    def test_streams_drawn_interleaved(self):
        # two rows' streams, open at once, are each their seed's default_rng stream
        a, b = (linalg._stream(state) for state in linalg._seed_states([3, 2**70]))
        want_a, want_b = np.random.default_rng(3), np.random.default_rng(2**70)
        for n in (1, 4, 2, 7):
            assert a.standard_normal(n).tobytes() == want_a.standard_normal(n).tobytes()
            assert b.standard_normal(n).tobytes() == want_b.standard_normal(n).tobytes()
        assert a.bit_generator.state == want_a.bit_generator.state
        assert b.bit_generator.state == want_b.bit_generator.state


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
