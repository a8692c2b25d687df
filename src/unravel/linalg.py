"""Dense complex-matrix kernel.

Validation of matrices and matrix stacks (finite, Hermitian, unitary, density),
the Hermitian part, Hermitian eigendecomposition with a canonical (descending)
eigenvalue order, and seeded random generators: Ginibre arrays, Haar-random
unitaries and isometries, and density matrices.  Each seed's Ginibre draw comes
from one kernel, ginibre_stack(seeds, *shape): each seed's generator is opened
once and fills its slot of one real buffer, and the complex stack is built from
the whole buffer in one pass.  (numpy's policy for seeded bit generators,
NEP 19, fixes each seed's stream, so a slot of a shared buffer reads the same
numbers as an array of its own.)  Each seeded generator is a one-seed view of
that kernel (seeded_ginibre) handed to a kernel that works on a stack of such
draws, so a block of trials draws, and does the arithmetic, once per stage.

Haar sampling is Mezzadri's (Notices AMS 54, 592, 2007): Q of a Ginibre draw
with R's diagonal positive (positive_qr).  A draw at least twice as tall as
wide, the isometry behind every Kraus set of two or more operators, takes
Cholesky QR (Fukaya et al., "CholeskyQR2", ScalA 2014): the same Q from BLAS-3
products, orthogonal to rounding because such a draw is well conditioned.
Square and less tall draws, every unitary included, take Householder QR.
"""

from __future__ import annotations

import numpy as np

# Tolerances for double-precision dense algebra at dim <= 64.
TOL_HERM = 1e-9
TOL_UNITARY = 1e-9
TOL_TRACE = 1e-10
TOL_PSD = 1e-10


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


def check_identity(x: np.ndarray, what: str) -> None:
    """Reject a matrix, or any of a (..., n, n) stack, off I by more than TOL_UNITARY in Frobenius norm, or NaN."""
    dev = np.linalg.norm(x - np.eye(x.shape[-1]), axis=(-2, -1)).max()
    if not dev <= TOL_UNITARY:
        raise ValueError(f"{what} = {dev:.3e}")


def check_unitary(u, name: str = "matrix") -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or not np.isfinite(u).all():
        raise ValueError(f"{name} is not a finite square matrix: shape {u.shape}")
    check_identity(u.conj().T @ u, f"{name} is not unitary: ||u†u - I||_F")
    return u


def check_unit_norm(x: np.ndarray) -> None:
    """Reject a vector, or the first of a (..., d) stack, whose norm is off 1 by more than 1e-10, or NaN."""
    off = ~(np.abs(vector_norm(x) - 1) <= 1e-10)
    if off.any():
        raise ValueError(f"{_element('state', off, int(off.argmax()))} is not normalized")


def check_one_matrix(x, name: str):
    """x, rejected unless it is one matrix (two axes): the gate before a check that takes stacks."""
    if np.ndim(x) != 2:
        raise ValueError(f"{name} must be one matrix, got shape {np.shape(x)}")
    return x


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
        raise ValueError(f"{_element(name, tr, k)} has trace {tr.flat[k]!r}, expected 1")
    return (rho, *psd_spectrum(rho, name, vectors))


def check_density(rho, dim: int | None = None, name: str = "rho") -> np.ndarray:
    """Validate one density matrix as density_spectrum does, and return its Hermitian part."""
    return density_spectrum(check_one_matrix(rho, name), dim, name)[0]


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (or of each matrix of a stack),
    eigenvalues descending.

    Returns (w, v) with h = v @ diag(w) @ v†.  Eigenvector phases are not
    canonicalized; compare only phase-invariant quantities downstream.
    """
    return _descending_eig(check_hermitian(h))


def _descending_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hermitian_eig of a matrix or stack already Hermitian, unchecked."""
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
    """Array of independent standard complex Gaussians, e.g. ginibre(rng, rows, cols).

    One draw of the real parts, then the imaginary parts: the stream of two
    standard_normal(shape) calls."""
    return _complex_gaussian(*rng.standard_normal((2, *shape)))


def ginibre_stack(seeds, *shape: int) -> np.ndarray:
    """The (len(seeds), *shape) stack whose slot i is, bit for bit,
    ginibre(np.random.default_rng(seeds[i]), *shape).

    seeds is a sequence of anything default_rng takes (Python ints of any
    size included), repeats allowed.  Each seed's generator is opened once
    and fills its (2, *shape) slot of one real buffer with the stream
    standard_normal((2, *shape)) reads; the complex stack is then built from
    the whole buffer at once."""
    pairs = np.empty((len(seeds), 2, *shape))
    for seed, pair in zip(seeds, pairs):
        np.random.default_rng(seed).standard_normal(out=pair)
    return _complex_gaussian(pairs[:, 0], pairs[:, 1])


def seeded_ginibre(seed: int, *shape: int) -> np.ndarray:
    """ginibre from a generator seeded with `seed`, the one-seed view of
    ginibre_stack: the one draw each seeded generator below makes."""
    return ginibre_stack((seed,), *shape)[0]


def positive_qr(z: np.ndarray) -> np.ndarray:
    """Q of z = QR (per matrix of a stack) with R's diagonal real positive: for a
    Ginibre z, a Haar-random unitary (square z) or isometry (tall z).

    The form follows from the shape alone.  A draw with rows >= 2 cols takes
    Cholesky QR: R = L† for L = chol(z†z), so Q = z L^-†, two matrix products
    and a cols x cols inverse (8 ms against 49 ms for Householder on 4096 x 64,
    one BLAS thread).  Its orthogonality error is about cond(z)^2 eps, and an
    m x n Ginibre draw with m >= 2n has cond(z) concentrated near
    (sqrt(m) + sqrt(n)) / (sqrt(m) - sqrt(n)) <= 3 + 2 sqrt(2) ~ 5.83.  Every
    other draw takes Householder QR, whose error does not grow with cond(z):
    a square Ginibre draw has no such bound on its condition number, and
    there Cholesky QR is slower too.
    """
    m, n = z.shape[-2:]
    if m >= 2 * n:
        zh = z.conj().swapaxes(-1, -2)
        return z @ np.linalg.inv(np.linalg.cholesky(zh @ z)).conj().swapaxes(-1, -2)
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
