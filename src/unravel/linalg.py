"""Dense complex-matrix kernel.

Validation of matrices and matrix stacks (finite, bounded, Hermitian, unitary, density),
the Hermitian part, Hermitian eigendecomposition with a canonical (descending)
eigenvalue order, and seeded random generators: Ginibre arrays, Haar-random
unitaries and isometries, and density matrices.  A seeded stream is named by
its hashed state alone: _seed_states hashes seeds (non-negative integers of any
size) to (n, 4) rows, _stream opens a row's stream, and _fill fills a slot of a
stack from each.  Two run-long generators open otherwise, as default_rng(seed),
and draw through ginibre_draws: `demo dft`'s (cli.cmd_demo) and random_povm's
(bounds); test_cli pins these two call sites.

The hash, _seed_states, is numpy's own seeding of default_rng(seed) done for a
whole batch of seeds at once: SeedSequence's hash mixing (O'Neill's seed_seq_fe
scheme: a pool of four 32-bit words, each seed word hashed in, the twelve
cross-mixes, then generate_state(4, uint64)) as uint32 array operations over
all seeds.  Each row opens its own Generator(PCG64) (_stream), which numpy
seeds from the row's words through its seed interface (ISeedSequence), as it
seeds default_rng(s) from SeedSequence(s)'s.  So a row's slot is the stream of
default_rng(s) bit for bit, and no generator is shared.  numpy's policy (NEP
19) lets a release change default_rng's bit generator or its seeding, so
test_linalg pins the batched states against SeedSequence and default_rng; they
were written against numpy 2.4.6.  Which seed each of a stacked command's draws
takes is declared once, in its stage plan (cli._run_plan).  Each seeded
generator is a one-seed view of the fill (seeded_ginibre) handed to a kernel
that works on a stack of such draws.  A long one-row draw can be filled as a
stream of slices instead (ginibre_slices): the row's stream fills its real
parts, then each slice of imaginary parts in turn, so only the real parts and
one slice are held, and the slices are the stack's bit for bit.  BLOCK_ELEMENTS
is the one draw budget of a slice and of a block of trials (cli._stream_trials),
read when each fills, so no stage keeps a stale one.

Haar sampling is Mezzadri's (Notices AMS 54, 592, 2007): Q of a Ginibre draw
with R's diagonal positive, by Householder QR (positive_qr).  A draw at least
twice as tall as wide, the isometry behind a Kraus set, may take Cholesky QR
instead (_cholesky_qr; Fukaya et al., "CholeskyQR2", ScalA 2014): Z†Z and the
factor X = R^-1, with Q = Z X, from BLAS-3 products, so that a Kraus set can be
held as the draw and X without forming Q.  channels._isometry_factors alone
makes that choice.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

# Tolerances for double-precision dense algebra at dim <= 64.
TOL_HERM = 1e-9
TOL_UNITARY = 1e-9
TOL_TRACE = 1e-10
TOL_PSD = 1e-10
# check_entries' bound: far above the modulus 1 of any entry of a valid Kraus set, POVM element
# or state, so a moderately wrong one meets the check naming its fault, and far below 1.3e154,
# where a square overflows.
MAX_MODULUS = 1e100


def as_matrix_stack(xs, name: str) -> np.ndarray:
    """Coerce equal-shape matrices (a sequence or an (n, rows, cols) array) to one
    C-ordered complex stack, always a fresh copy; finiteness is its callers' test."""
    try:
        k = np.array(xs, dtype=complex, order="C")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be matrices of one shape: {exc}") from None
    if k.ndim != 3 or k.shape[0] == 0:
        raise ValueError(f"{name} must form a non-empty (n, rows, cols) stack, got shape {k.shape}")
    return k


def hermitianize(x: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (x + x†)/2 of a matrix or of each matrix of a stack."""
    return (x + x.conj().swapaxes(-1, -2)) / 2


def check_hermitian(h, name: str = "matrix") -> np.ndarray:
    """Validate a finite Hermitian matrix, or a (..., dim, dim) stack of them, and return its
    Hermitian part.  For a stack the error names the element that deviates most."""
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"{name} is not a square matrix or a stack of them: shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError(f"{name} has non-finite entries")
    dev = np.linalg.norm(h - h.conj().swapaxes(-1, -2), axis=(-2, -1))
    k = int(dev.argmax())
    if dev.flat[k] > TOL_HERM:
        raise ValueError(f"{_element(name, dev, k)} is not Hermitian: deviation {dev.flat[k]:.3e} > {TOL_HERM:.1e}")
    return hermitianize(h)


def _element(name: str, per_element: np.ndarray, k: int) -> str:
    """How an error names element k of a stack (flat over per_element's axes), or the one item."""
    return f"{name} {k}" if np.ndim(per_element) else name


def check_entries(x: np.ndarray, name: str) -> np.ndarray:
    """x, rejected if a finite entry's real or imaginary part exceeds MAX_MODULUS: the first check
    of a caller's operator, so no product or norm of it overflows.  NaN and inf are left to the
    finiteness check that each caller makes next."""
    big = np.maximum(np.abs(x.real), np.abs(x.imag)).max(initial=0.0)
    if MAX_MODULUS < big < np.inf:
        raise ValueError(f"{name} has an entry of modulus at least {float(big)}")
    return x


def check_identity(x: np.ndarray, what: str) -> None:
    """Reject a matrix, or any of a (..., n, n) stack, off I by more than TOL_UNITARY in Frobenius norm, or NaN."""
    dev = np.linalg.norm(x - np.eye(x.shape[-1]), axis=(-2, -1)).max()
    if not dev <= TOL_UNITARY:
        raise ValueError(f"{what} = {dev:.3e}")


def check_unitary(u) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or not np.isfinite(u).all():
        raise ValueError(f"matrix is not a finite square matrix: shape {u.shape}")
    check_identity(u.conj().T @ u, "matrix is not unitary: ||u†u - I||_F")
    return u


def check_unit_norm(x: np.ndarray) -> None:
    """Reject a vector, or the first of a (..., d) stack, whose norm is off 1 by more than 1e-10, or NaN."""
    off = ~(np.abs(vector_norm(x) - 1) <= 1e-10)
    if off.any():
        raise ValueError(f"{_element('state', off, int(off.argmax()))} is not normalized")


def check_one_matrix(x, name: str) -> np.ndarray:
    """x as a complex array, rejected unless it is one matrix (two axes) whose entries pass
    check_entries: the gate of a caller's state before a check that takes stacks."""
    if np.ndim(x) != 2:
        raise ValueError(f"{name} must be one matrix, got shape {np.shape(x)}")
    return check_entries(np.asarray(x, dtype=complex), name)


def psd_spectrum(h: np.ndarray, name: str, vectors: bool = False) -> tuple:
    """(w,), or (w, v) with vectors: the ascending eigendecomposition of a Hermitian matrix or
    (..., dim, dim) stack, rejected below -TOL_PSD; the error names the most negative element."""
    eig = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h),)
    low = eig[0][..., 0]
    k = int(low.argmin())
    if low.flat[k] < -TOL_PSD:
        raise ValueError(f"{_element(name, low, k)} is not PSD: min eigenvalue {low.flat[k]:.3e}")
    return eig


def density_spectrum(rho, dim: int | None = None, name: str = "rho", vectors: bool = False) -> tuple:
    """Validate a density matrix, or a (..., dim, dim) stack of them: Hermitian,
    unit trace, positive semidefinite, and dim x dim when dim is given.

    Returns (rho, w), or (rho, w, v) with vectors: the Hermitian part and the
    ascending eigendecomposition (eigvalsh, or eigh with vectors) whose
    spectrum served the PSD check, so a caller that needs it decomposes
    nothing again.  For a stack the errors name the offending element.
    """
    rho = check_hermitian(rho, name=name)
    if dim is not None and rho.shape[-1] != dim:
        raise ValueError(f"{name} has dimension {rho.shape[-1]}, expected {dim}")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1) > TOL_TRACE
    if off.any():
        k = int(off.argmax())
        raise ValueError(f"{_element(name, tr, k)} has trace {float(tr.flat[k])}, expected 1")
    return (rho, *psd_spectrum(rho, name, vectors))


def check_density(rho, dim: int | None = None, name: str = "rho") -> np.ndarray:
    """Validate one density matrix as density_spectrum does, and return its Hermitian part."""
    return density_spectrum(check_one_matrix(rho, name), dim, name)[0]


def _descending_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) with h = v @ diag(w) @ v†, w descending, for a Hermitian matrix or
    stack, unchecked.  Eigenvector phases are not canonicalized."""
    w, v = np.linalg.eigh(h)
    return w[..., ::-1].copy(), v[..., ::-1].copy()


def vector_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis: for each vector, bit for bit what
    np.linalg.norm gives it (which also sums the squares of the real and the
    imaginary parts with one dot product each)."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _complex_gaussian(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(re + 1j im) / sqrt(2) as one fresh C-ordered complex array, built with no
    temporaries: each part scaled by 1/sqrt(2) into place.  Bit for bit that
    expression, as numpy divides a complex array by a real scalar through the
    reciprocal; numpy does not promise that, so test_linalg pins it.  The one
    complex assembly of every Ginibre draw."""
    z = np.empty(re.shape, dtype=complex)
    np.multiply(re, 1 / np.sqrt(2), out=z.real)
    np.multiply(im, 1 / np.sqrt(2), out=z.imag)
    return z


def ginibre(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Independent standard complex Gaussians, e.g. ginibre(rng, rows, cols): ginibre_draws' one draw."""
    return ginibre_draws(rng, 1, *shape)[0]


def ginibre_draws(rng: np.random.Generator, count: int, *shape: int) -> np.ndarray:
    """The (count, *shape) stack of count consecutive ginibre(rng, *shape) draws from one generator:
    each draw's real parts, then its imaginary parts, the stream of one standard_normal call."""
    z = rng.standard_normal((count, 2, *shape))
    return _complex_gaussian(z[:, 0], z[:, 1])


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_SEED_SLICE = 4096
# The draw budget: the entries of a block of trials, complex draws and real weights of all its
# stages (cli._stream_trials), and of one slice of a long draw (ginibre_slices).
BLOCK_ELEMENTS = 1 << 16


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The (count + 1, 1) column init·mult^k mod 2^32, k = 0..count: hash step k
    xors with row k and multiplies by row k + 1."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """seed_seq_fe's hashmix of the uint32 words v at one hash step (its constant,
    then the next), as a new array."""
    v = v ^ xor
    v *= mult
    v ^= v >> _SHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """seed_seq_fe's mix of pool words x with hashed words y, as a new array; y is overwritten."""
    y *= _MIX_R
    r = x * _MIX_L
    r -= y
    r ^= r >> _SHIFT
    return r


_A = _hash_constants(_INIT_A, _MULT_A, 16)
_B = _hash_constants(_INIT_B, _MULT_B, 8)
# The cross-mix of pool lane src into the three others takes hash steps 4 + 3 src ..
# 6 + 3 src, in lane order; each row's entry for lane src itself is unused.
_CROSS = [
    (np.insert(_A[4 + 3 * src : 7 + 3 * src], src, 0, axis=0), np.insert(_A[5 + 3 * src : 8 + 3 * src], src, 1, axis=0))
    for src in range(4)
]


def _seed_states(seeds) -> np.ndarray:
    """The (len(seeds), 4) uint64 array whose row i is, bit for bit,
    np.random.SeedSequence(seeds[i]).generate_state(4, np.uint64): the words
    numpy seeds PCG64 from in np.random.default_rng(seeds[i]), and that _stream
    hands it.  seeds are non-negative integers of any size; raises as
    default_rng does, TypeError for a non-integer and ValueError for a negative
    seed.

    The seeds are hashed _SEED_SLICE at a time (_hash_seeds), so the hash's
    temporaries, a few hundred bytes a seed, stay small beside a block's draws
    whatever the block's size; a row of the result is 32 bytes."""
    seeds = [operator.index(s) for s in seeds]
    if seeds and min(seeds) < 0:
        raise ValueError("expected non-negative integer")
    n_words = max(4, -(-max([s.bit_length() for s in seeds], default=0) // 32))
    states = np.empty((len(seeds), 4), np.uint64)
    for i in range(0, len(seeds), _SEED_SLICE):
        states[i : i + _SEED_SLICE] = _hash_seeds(seeds[i : i + _SEED_SLICE], n_words)
    return states


def _hash_seeds(seeds: list, n_words: int) -> np.ndarray:
    """SeedSequence's generate_state(4, uint64) of each of seeds, ints below
    2^(32 n_words) with n_words >= 4, as an (n, 4) array.

    A seed's 32-bit words, least significant first, go through SeedSequence's
    mixing as the columns of (words, n) uint32 arrays, whose operations wrap
    mod 2^32.  Seeds of at most four words are their words padded with zeros;
    a longer seed's words past the fourth each take one more round, applied
    only to the seeds that have that word."""
    raw = b"".join([s.to_bytes(4 * n_words, "little") for s in seeds])
    words = np.frombuffer(raw, "<u4").reshape(len(seeds), n_words).T.astype(np.uint32)
    pool = _hashmix(words[:4], _A[:4], _A[1:5])
    for src, (xor, mult) in enumerate(_CROSS):
        mixed = _mix(pool, _hashmix(pool[src], xor, mult))
        mixed[src] = pool[src]
        pool = mixed
    if n_words > 4:
        a = _hash_constants(_INIT_A, _MULT_A, 4 * n_words)
        for i in range(4, n_words):
            k = 4 * i
            extra = _mix(pool, _hashmix(words[i], a[k : k + 4], a[k + 1 : k + 5]))
            pool = np.where(words[i:].any(axis=0), extra, pool)
    # generate_state's eight uint32 words per seed, paired little-endian into four uint64, as numpy does
    out = _hashmix(np.concatenate([pool, pool]), _B[:8], _B[1:])
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8")


@functools.cache
def _hashed_seed() -> type:
    """HashedSeed, numpy's seed interface (ISeedSequence) over one _seed_states row, whose
    generate_state(4, uint64) is the row itself: the words PCG64 seeds itself from.  Defined
    on first use, so that importing the package does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class HashedSeed(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # PCG64 reads the array's memory as four native words: a strided or byte-swapped row would misseed it
            return np.ascontiguousarray(self.state, np.uint64)

    return HashedSeed


def _stream(state: np.ndarray) -> np.random.Generator:
    """A new Generator(PCG64) on the stream whose _seed_states row is state: that of
    np.random.default_rng(seed) for the seed hashed to it, as numpy seeds PCG64 itself from
    the row's words.  Every seeded stream opens here but the two run-long generators
    of cli.cmd_demo and bounds.random_povm (see the module)."""
    return np.random.Generator(np.random.PCG64(_hashed_seed()(state)))


def _fill(states: np.ndarray, sampler: str, *shape: int) -> np.ndarray:
    """The (len(states), *shape) buffer whose slot i is, bit for bit, default_rng(s).<sampler>(shape)
    for the seed s hashed to states[i]: each row's stream (_stream) fills its slot."""
    out = np.empty((len(states), *shape))
    for i, state in enumerate(states):
        getattr(_stream(state), sampler)(out=out[i])
    return out


def ginibre_stack(states: np.ndarray, *shape: int) -> np.ndarray:
    """The stack whose slot i is ginibre(np.random.default_rng(s), *shape): the
    standard_normal fill of (2, *shape) slots, made complex from the whole buffer at once."""
    pairs = _fill(states, "standard_normal", 2, *shape)
    return _complex_gaussian(pairs[:, 0], pairs[:, 1])


def ginibre_slices(states: np.ndarray, count: int, *shape: int):
    """Yield ginibre_stack(states, count, *shape) in slices along the count axis, each
    of at most BLOCK_ELEMENTS entries as the draw starts (one along that axis at least),
    bit for bit.

    A draw that fits one slice is ginibre_stack itself.  A longer one, made for one row
    only (a block of two or more trials, sized from the same budget by cli._stream_trials,
    fits one slice), holds only its real parts and one slice of imaginary parts: the row's
    stream fills all its real parts, then each slice of imaginary parts in turn into one
    buffer, since standard_normal(out=...) reads a stream in order.  The stream is the
    row's own, so a draw in between changes no bit."""
    step = max(1, BLOCK_ELEMENTS // (len(states) * math.prod(shape)))
    if step >= count:
        yield ginibre_stack(states, count, *shape)
        return
    assert len(states) == 1, "several rows are drawn in one slice only"
    rng = _stream(states[0])
    re = rng.standard_normal((count, *shape))
    im = np.empty((step, *shape))
    for i in range(0, count, step):
        part = im[: count - i]
        rng.standard_normal(out=part)
        z = _complex_gaussian(re[i : i + step], part)[None]
        if i + step >= count:  # the last slice: free the parts before the caller works on it
            re = im = part = None
        yield z


def exponential_stack(states: np.ndarray, *shape: int) -> np.ndarray:
    """The standard_exponential fill."""
    return _fill(states, "standard_exponential", *shape)


def seeded_ginibre(seed: int, *shape: int) -> np.ndarray:
    """ginibre from a generator seeded with `seed`, the one-seed view of
    ginibre_stack: the one draw each seeded generator below makes."""
    return ginibre_stack(_seed_states((seed,)), *shape)[0]


def _cholesky_qr(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Z†Z, X) for a draw z (..., m, n) of full column rank, per matrix of a stack:
    X = R^-1 = L^-† for L = chol(Z†Z), so z @ X is Q of z = QR with R's diagonal
    positive.  A caller that needs only products with Q (channels._gram) keeps z and
    X, n x n, and never forms Q."""
    gram = z.conj().swapaxes(-1, -2) @ z
    return gram, np.linalg.inv(np.linalg.cholesky(gram)).conj().swapaxes(-1, -2)


def positive_qr(z: np.ndarray) -> np.ndarray:
    """Q of z = QR (per matrix of a stack) with R's diagonal real positive, by
    Householder QR: for a Ginibre z, a Haar-random unitary (square z) or isometry
    (tall z).  numpy's QR holds LAPACK's working copy, R and Q of the whole stack
    at once, and acts per matrix, so a caller with a long stack (cli._remixed)
    passes it a slice at a time."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def _densities(g: np.ndarray) -> np.ndarray:
    """rho = GG†/tr(GG†) for each Ginibre matrix G of a (..., dim, rank) stack."""
    rho = g @ g.conj().swapaxes(-1, -2)
    return hermitianize(rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None])


def haar_random_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-random unitary of the given dimension."""
    return haar_random_unitaries(dim, 1, seed)[0]


def haar_random_unitaries(dim: int, count: int, seed: int) -> np.ndarray:
    """Stack of `count` Haar-random unitaries, shape (count, dim, dim)."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return positive_qr(seeded_ginibre(seed, count, dim, dim))


def random_density(dim: int, rank: int, seed: int) -> np.ndarray:
    """Random density matrix rho = GG†/tr(GG†) with G a dim x rank Ginibre matrix."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must lie in [1, {dim}], got {rank}")
    return _densities(seeded_ginibre(seed, dim, rank))
