"""Kraus unravelings of trace-preserving super-operators.

Channel application, unitary remixing of Kraus sets, the Gram matrix of an
unraveling at a state, effect probabilities, and the extremal unraveling
obtained by diagonalizing that Gram matrix (which minimizes every Tsallis
and every Renyi entropy of positive order).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg
from .entropy import _entropy, _normalized
from .linalg import as_matrix_stack, check_density, check_unitary


class Unraveling:
    """Ordered Kraus set {A_i} with completeness sum A_i† A_i = I.

    The operators are held as one (n, dim_out, dim_in) array, which indexes
    and iterates like a tuple of matrices.  Operators may be rectangular
    (dim_out x dim_in).  Inputs violating completeness beyond linalg.TOL_UNITARY
    are rejected, not renormalized.
    """

    def __init__(self, kraus_ops):
        k = as_matrix_stack(kraus_ops, "Kraus operators")
        if not np.isfinite(k).all():  # before the completeness sum, which would warn on an inf
            raise ValueError("Kraus operators have non-finite entries")
        _check_complete(k)
        self.kraus_ops = k

    @property
    def n_ops(self) -> int:
        return self.kraus_ops.shape[0]

    @property
    def dim_in(self) -> int:
        return self.kraus_ops.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus_ops.shape[1]


def _check_complete(k: np.ndarray, what: str = "completeness violated: ||sum A†A - I||_F") -> None:
    """Reject a Kraus set (n, dim_out, dim_in), or any set of a stack of them,
    whose completeness sum A†A = I fails beyond linalg.TOL_UNITARY, with the
    error text `what`."""
    v = _rows(k)  # stacked vertically the operators form an isometry V, and sum A†A = V†V
    linalg.check_identity(v.conj().swapaxes(-1, -2) @ v, what)


class ExtremalResult(NamedTuple):
    """Extremal unraveling, the Gram spectrum, its diagonalizer and the Gram matrix."""

    extremal: Unraveling
    lambdas: np.ndarray
    diagonalizer: np.ndarray
    gram: np.ndarray


def apply_channel(a: Unraveling, rho) -> np.ndarray:
    """sum_i A_i rho A_i†."""
    rho = check_density(rho, a.dim_in)
    k = a.kraus_ops
    return linalg.hermitianize((k @ rho @ k.conj().swapaxes(1, 2)).sum(axis=0))


def remix(a: Unraveling, u) -> Unraveling:
    """Equivalent unraveling B_i = sum_j A_j u_ji.

    A unitary larger than the Kraus set pads the set with zero operators
    first; a smaller one is rejected.
    """
    u = check_unitary(u)
    m = u.shape[0]
    if m < a.n_ops:
        raise ValueError(f"remix unitary dim {m} < number of Kraus operators {a.n_ops}")
    k = a.kraus_ops
    if m > a.n_ops:
        pad = np.zeros((m - a.n_ops, a.dim_out, a.dim_in), dtype=complex)
        k = np.concatenate([k, pad])
    return Unraveling(np.einsum("ji,jkl->ikl", u, k))


# The kernels below take Kraus sets k (..., n, dim_out, dim_in) and validated
# states rho (..., dim_in, dim_in) with any leading trial axes; the public
# functions call them on one set and one state, and bounds calls _weights on
# the Kraus set F_i† of a POVM's root factors.


def _flat(x: np.ndarray) -> np.ndarray:
    """Each operator of a (..., n, rows, cols) stack as one row of length rows * cols."""
    return x.reshape(*x.shape[:-2], -1)


def _rows(k: np.ndarray) -> np.ndarray:
    """The rows of every operator of a (..., n, rows, cols) stack, (..., n * rows, cols)."""
    return k.reshape(*k.shape[:-3], -1, k.shape[-1])


def _pair_traces(x: np.ndarray, y: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """tr(X_i† Y_j rho) = sum_ab conj(X_i)_ab (Y_j rho)_ab, (..., n_x, n_y)."""
    return _flat(x).conj() @ _flat(y @ rho[..., None, :, :]).swapaxes(-1, -2)


def _gram(k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Pi_ij = tr(A_i† A_j rho)."""
    return linalg.hermitianize(_pair_traces(k, k, rho))


def _weights(k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """tr(A_i rho A_i†) = sum_ab conj(A_i)_ab (A_i rho)_ab, (..., n), not yet
    normalized: one product of rho with every row of every operator."""
    return np.vecdot(_flat(k), _flat((_rows(k) @ rho).reshape(k.shape))).real


def gram_matrix(a: Unraveling, rho) -> np.ndarray:
    """Hermitian PSD unit-trace matrix with entries tr(A_i† A_j rho)."""
    return _gram(a.kraus_ops, check_density(rho, a.dim_in))


def effect_probabilities(a: Unraveling, rho) -> np.ndarray:
    """p_i = tr(A_i† A_i rho)."""
    return _normalized(_weights(a.kraus_ops, check_density(rho, a.dim_in)))


def _extremal(a: Unraveling, rho: np.ndarray) -> ExtremalResult:
    pi = _gram(a.kraus_ops, rho)
    w, v = linalg._descending_eig(pi)  # _gram made pi Hermitian
    return ExtremalResult(extremal=remix(a, v), lambdas=_normalized(w), diagonalizer=v, gram=pi)


def extremal_unraveling(a: Unraveling, rho) -> ExtremalResult:
    """Diagonalize the Gram matrix and remix by its eigenvector matrix.

    With degenerate Gram eigenvalues the diagonalizer (hence the extremal
    Kraus set) is non-unique; only spectrum-derived quantities are canonical.
    """
    return _extremal(a, check_density(rho, a.dim_in))


def unraveling_entropy(a: Unraveling, rho, alpha: float, kind: str = "tsallis") -> float:
    """Entropy of the effect-probability distribution."""
    return _entropy(effect_probabilities(a, rho), alpha, kind)


def random_unraveling(dim: int, n_kraus: int, seed: int) -> Unraveling:
    """Random unraveling from the blocks of a Haar-random isometry."""
    if dim < 1 or n_kraus < 1:
        raise ValueError("dim and n_kraus must be >= 1")
    return Unraveling(_isometry_kraus(linalg.seeded_ginibre(seed, n_kraus * dim, dim), n_kraus))


def _isometry_kraus(z: np.ndarray, n_kraus: int) -> np.ndarray:
    """Kraus sets (..., n_kraus, dim, dim): the blocks of the Haar-random
    isometries made from Ginibre draws z (..., n_kraus * dim, dim)."""
    v = linalg.positive_qr(z)
    return v.reshape(*v.shape[:-2], n_kraus, -1, v.shape[-1])


def remixed_probabilities(pi: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """Effect probabilities of remixings, straight from the Gram matrix.

    For B = remix(A, U) the probabilities are diag(U† Pi U); `unitaries` is a
    stack (count, n, n) and the result has shape (count, n).  A stack of Gram
    matrices (..., n, n) takes stacks of unitaries (..., count, n, n).
    """
    return _normalized(np.vecdot(unitaries, pi[..., None, :, :] @ unitaries, axis=-2).real)
