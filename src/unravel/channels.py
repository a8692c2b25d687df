"""Kraus unravelings of trace-preserving super-operators.

Channel application, unitary remixing of Kraus sets, the Gram matrix of an
unraveling at a state, effect probabilities, and the extremal unraveling
obtained by diagonalizing that Gram matrix (which minimizes every Tsallis
and every Renyi entropy of positive order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .entropy import as_prob_vector, classical_entropy
from .linalg import as_matrix_stack, check_density, check_unitary, hermitian_eig

TOL_COMPLETE = 1e-9


@dataclass(frozen=True)
class Unraveling:
    """Ordered Kraus set {A_i} with completeness sum A_i† A_i = I.

    The operators are held as one (n, dim_out, dim_in) array, which indexes
    and iterates like a tuple of matrices.  Operators may be rectangular
    (dim_out x dim_in).  Inputs violating completeness beyond TOL_COMPLETE are
    rejected, not renormalized.
    """

    kraus_ops: np.ndarray

    def __post_init__(self):
        k = as_matrix_stack(self.kraus_ops, "Kraus operators")
        # stacked vertically the operators form an isometry V, and sum A†A = V†V
        v = k.reshape(-1, k.shape[2])
        dev = np.linalg.norm(v.conj().T @ v - np.eye(k.shape[2]))
        if dev > TOL_COMPLETE:
            raise ValueError(f"completeness violated: ||sum A†A - I||_F = {dev:.3e}")
        object.__setattr__(self, "kraus_ops", k)

    @property
    def n_ops(self) -> int:
        return self.kraus_ops.shape[0]

    @property
    def dim_in(self) -> int:
        return self.kraus_ops.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus_ops.shape[1]


@dataclass(frozen=True)
class ExtremalResult:
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


def _gram(a: Unraveling, rho: np.ndarray) -> np.ndarray:
    k = a.kraus_ops
    return linalg.hermitianize(np.einsum("iab,jac,cb->ij", k.conj(), k, rho, optimize=True))


def gram_matrix(a: Unraveling, rho) -> np.ndarray:
    """Hermitian PSD unit-trace matrix with entries tr(A_i† A_j rho)."""
    return _gram(a, check_density(rho, a.dim_in))


def _effect_weights(a: Unraveling, rho: np.ndarray) -> np.ndarray:
    """tr(A_i† A_i rho) for a validated state, not yet checked as a distribution."""
    k = a.kraus_ops
    return np.einsum("iab,iac,cb->i", k.conj(), k, rho, optimize=True).real


def effect_probabilities(a: Unraveling, rho) -> np.ndarray:
    """p_i = tr(A_i† A_i rho)."""
    return as_prob_vector(_effect_weights(a, check_density(rho, a.dim_in)))


def _extremal(a: Unraveling, rho: np.ndarray) -> ExtremalResult:
    pi = _gram(a, rho)
    w, v = hermitian_eig(pi)
    return ExtremalResult(extremal=remix(a, v), lambdas=as_prob_vector(w), diagonalizer=v, gram=pi)


def extremal_unraveling(a: Unraveling, rho) -> ExtremalResult:
    """Diagonalize the Gram matrix and remix by its eigenvector matrix.

    With degenerate Gram eigenvalues the diagonalizer (hence the extremal
    Kraus set) is non-unique; only spectrum-derived quantities are canonical.
    """
    return _extremal(a, check_density(rho, a.dim_in))


def unraveling_entropy(a: Unraveling, rho, alpha: float, kind: str = "tsallis") -> float:
    """Entropy of the effect-probability distribution."""
    return classical_entropy(_effect_weights(a, check_density(rho, a.dim_in)), alpha, kind)


def random_unraveling(dim: int, n_kraus: int, seed: int) -> Unraveling:
    """Random unraveling from the blocks of a Haar-random isometry."""
    if dim < 1 or n_kraus < 1:
        raise ValueError("dim and n_kraus must be >= 1")
    v = linalg.positive_qr(linalg.ginibre(np.random.default_rng(seed), n_kraus * dim, dim))
    return Unraveling(v.reshape(n_kraus, dim, dim))


def remixed_probabilities(pi: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """Effect probabilities of remixings, straight from the Gram matrix.

    For B = remix(A, U) the probabilities are diag(U† Pi U); `unitaries` is a
    stack (count, n, n) and the result has shape (count, n).
    """
    p = np.einsum("tji,jl,tli->ti", unitaries.conj(), pi, unitaries, optimize=True).real
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=1, keepdims=True)
