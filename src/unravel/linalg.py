"""Dense complex-matrix kernel.

Validation of matrices and matrix stacks (finite, Hermitian, unitary, density),
the Hermitian part, Hermitian eigendecomposition with a canonical (descending)
eigenvalue order, and seeded random generators: Ginibre arrays, Haar-random
unitaries and isometries, and density matrices.  Each seeded generator makes
one Ginibre draw (seeded_ginibre) and hands it to a kernel that works on a
stack of such draws, so a block of trials can draw one trial at a time and do
the arithmetic once.
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
    finite, C-ordered complex stack, always a fresh copy."""
    try:
        k = np.array(xs, dtype=complex, order="C")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be matrices of one shape: {exc}") from None
    if k.ndim != 3 or k.shape[0] == 0:
        raise ValueError(f"{name} must form a non-empty (n, rows, cols) stack, got shape {k.shape}")
    if not np.isfinite(k).all():
        raise ValueError(f"{name} have non-finite entries")
    return k


def hermitianize(x: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (x + x†)/2 of a matrix or of each matrix of a stack."""
    return (x + x.conj().swapaxes(-1, -2)) / 2


def check_hermitian(h, name: str = "matrix") -> np.ndarray:
    """Validate a finite Hermitian matrix, or an (n, dim, dim) stack of them, and
    return its Hermitian part.  For a stack the error names the element that
    deviates most."""
    h = np.asarray(h, dtype=complex)
    if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"{name} is not a square matrix or a stack of them: shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError(f"{name} has non-finite entries")
    dev = np.linalg.norm(h - h.conj().swapaxes(-1, -2), axis=(-2, -1)).ravel()
    k = int(dev.argmax())
    if dev[k] > TOL_HERM:
        raise ValueError(f"{_element(name, h, k)} is not Hermitian: deviation {dev[k]:.3e} > {TOL_HERM:.1e}")
    return hermitianize(h)


def _element(name: str, x: np.ndarray, k: int) -> str:
    """How an error names element k of a matrix stack, or the one matrix."""
    return f"{name} {k}" if x.ndim == 3 else name


def check_unitary(u, name: str = "matrix") -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or not np.isfinite(u).all():
        raise ValueError(f"{name} is not a finite square matrix: shape {u.shape}")
    dev = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
    if dev > TOL_UNITARY:
        raise ValueError(f"{name} is not unitary: deviation {dev:.3e} > {TOL_UNITARY:.1e}")
    return u


def density_spectrum(rho, dim: int | None = None, name: str = "rho", vectors: bool = False) -> tuple:
    """Validate a density matrix, or an (n, dim, dim) stack of them: Hermitian,
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
        raise ValueError(f"{_element(name, rho, k)} has trace {np.ravel(tr)[k]!r}, expected 1")
    eig = np.linalg.eigh(rho) if vectors else (np.linalg.eigvalsh(rho),)
    low = eig[0][..., 0]
    if (low < -TOL_PSD).any():
        k = int(low.argmin())
        raise ValueError(f"{_element(name, rho, k)} is not PSD: min eigenvalue {np.ravel(low)[k]:.3e}")
    return (rho, *eig)


def check_density(rho, dim: int | None = None, name: str = "rho") -> np.ndarray:
    """Validate one density matrix as density_spectrum does, and return its
    Hermitian part."""
    rho = density_spectrum(rho, dim, name)[0]
    if rho.ndim != 2:
        raise ValueError(f"{name} must be one matrix, got shape {rho.shape}")
    return rho


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (or of each matrix of a stack),
    eigenvalues descending.

    Returns (w, v) with h = v @ diag(w) @ v†.  Eigenvector phases are not
    canonicalized; compare only phase-invariant quantities downstream.
    """
    w, v = np.linalg.eigh(check_hermitian(h))
    return w[..., ::-1].copy(), v[..., ::-1].copy()


def vector_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis: for each vector, bit for bit what
    np.linalg.norm gives it (which also sums the squares of the real and the
    imaginary parts with one dot product each)."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def ginibre(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Array of independent standard complex Gaussians, e.g. ginibre(rng, rows, cols)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def seeded_ginibre(seed: int, *shape: int) -> np.ndarray:
    """ginibre from a generator seeded with `seed`: the one draw each seeded
    generator below makes."""
    return ginibre(np.random.default_rng(seed), *shape)


def positive_qr(z: np.ndarray) -> np.ndarray:
    """Q of z = QR (per matrix of a stack) with R's diagonal real positive: for a
    Ginibre z, a Haar-random unitary (square z) or isometry (tall z)."""
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
