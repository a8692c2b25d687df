"""Kraus unravelings of trace-preserving super-operators.

Channel application, unitary remixing of Kraus sets, the Gram matrix of an
unraveling at a state, effect probabilities, and the extremal unraveling
obtained by diagonalizing that Gram matrix (which minimizes every Tsallis
and every Renyi entropy of positive order).

A Kraus set drawn as a Haar-random isometry (random_unraveling, and `sweep` on
a block of draws) has its QR picked by _isometry_factors from the draw's shape.
A draw at least twice as tall as wide, two or more operators, takes Cholesky QR,
V = Z X, and the set is held as its factors: the blocks Z_i of the Ginibre draw
Z and the factor X = R^-1 (linalg._cholesky_qr), so A_i = Z_i X.  Its Gram
matrix is the Gram kernel of a given set, on Z and the dim_in x dim_in state
X rho X† (_factored_state), by tr(A_i† A_j rho) = tr(Z_i† Z_j X rho X†), so the
extremal unraveling's spectrum forms no operator.  Its completeness sum is
V†V = X† (Z†Z) X, checked in that dim_in x dim_in form from the Z†Z the
factorization formed.  Every other use reads the operators, Z X, made once when
first read.  One operator's square draw takes Householder QR and holds V.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import linalg
from .entropy import _entropy, _normalized
from .linalg import as_matrix_stack, check_density, check_unitary

_INCOMPLETE = "completeness violated: ||sum A†A - I||_F"


class Unraveling:
    """Ordered Kraus set {A_i} with completeness sum A_i† A_i = I.

    The operators are held as one (n, dim_out, dim_in) array, `kraus_ops`,
    which indexes and iterates like a tuple of matrices.  Operators may be
    rectangular (dim_out x dim_in).  Inputs violating completeness beyond
    linalg.TOL_UNITARY are rejected, not renormalized.  A drawn set
    (random_unraveling, _factored) holds the factors A_i = Z_i X instead (see
    the module), and makes kraus_ops as the isometry Z X when it is first
    read; its sizes read Z's shape.
    """

    def __init__(self, kraus_ops):
        k = as_matrix_stack(kraus_ops, "Kraus operators")
        if not np.isfinite(k).all():  # before the completeness sum, which would warn on an inf
            raise ValueError("Kraus operators have non-finite entries")
        _check_complete(linalg.check_entries(k, "completeness violated: Kraus set"))  # an entry above 1 breaks it
        self.kraus_ops, self._blocks, self._factor = k, k, None

    @classmethod
    def _factored(cls, blocks: np.ndarray, factor: np.ndarray | None) -> Unraveling:
        """The Kraus set A_i = blocks[i] @ factor, or blocks itself for no factor, from
        _isometry_factors, which checked its completeness, or _remix, which remixed checked
        operators: nothing is checked again."""
        a = cls.__new__(cls)
        a._blocks, a._factor = blocks, factor
        return a

    @functools.cached_property
    def kraus_ops(self) -> np.ndarray:
        if self._factor is None:
            return self._blocks
        return (_rows(self._blocks) @ self._factor).reshape(self._blocks.shape)  # the isometry V = Z X

    def _gram_at(self, rho: np.ndarray) -> np.ndarray:
        """The Gram matrix at a validated state, of the blocks at rho, or at X rho X† for a
        factored set: the one kernel, _gram, either way."""
        return _gram(self._blocks, _factored_state(self._factor, rho))

    @property
    def n_ops(self) -> int:
        return self._blocks.shape[0]

    @property
    def dim_in(self) -> int:
        return self._blocks.shape[2]

    @property
    def dim_out(self) -> int:
        return self._blocks.shape[1]


def _check_complete(k: np.ndarray, what: str = _INCOMPLETE) -> None:
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
    rho = check_density(rho, a.dim_in)[0]
    k = a.kraus_ops
    return linalg.hermitianize((k @ rho @ k.conj().swapaxes(1, 2)).sum(axis=0))


def remix(a: Unraveling, u) -> Unraveling:
    """Equivalent unraveling B_i = sum_j A_j u_ji: u is checked, the product is not (_remix).

    A unitary larger than the Kraus set pads the set with zero operators
    first; a smaller one is rejected.
    """
    u = check_unitary(linalg.check_entries(np.asarray(u, dtype=complex), "remix unitary"))
    m = u.shape[0]
    if m < a.n_ops:
        raise ValueError(f"remix unitary dim {m} < number of Kraus operators {a.n_ops}")
    k = a.kraus_ops
    if m > a.n_ops:
        pad = np.zeros((m - a.n_ops, a.dim_out, a.dim_in), dtype=complex)
        k = np.concatenate([k, pad])
    return _remix(k, u)


def _remix(k: np.ndarray, u: np.ndarray) -> Unraveling:
    """B_i = sum_j A_j u_ji for a checked Kraus set k (n, dim_out, dim_in) and a unitary u
    (n, n), checked or made by eigh.  The product is not checked: its completeness error is
    up to the sum of the two inputs' errors, which one TOL_UNITARY would not hold."""
    return Unraveling._factored(np.einsum("ji,jkl->ikl", u, k), None)


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
    """tr(X_i† Y_j rho) = sum_ab conj(X_i)_ab (Y_j rho)_ab, (..., n_x, n_y), formed as
    conj(sum_ab (X_i)_ab conj(Y_j rho)_ab) with Y rho conjugated in place, so no
    conjugate copy of X is made.  The two forms differ by signs alone, which rounding
    keeps; BLAS does not promise it, so test_channels pins it."""
    w = y @ rho[..., None, :, :]
    np.conjugate(w, out=w)
    t = _flat(x) @ _flat(w).swapaxes(-1, -2)
    return np.conjugate(t, out=t)


def _gram(k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Pi_ij = tr(A_i† A_j rho)."""
    return linalg.hermitianize(_pair_traces(k, k, rho))


def _factored_state(x: np.ndarray | None, rho: np.ndarray) -> np.ndarray:
    """X rho X† for factors x (..., dim_in, dim_in), or rho for no factor: the state at
    which the blocks Z_i of a Kraus set A_i = Z_i X have the set's Gram matrix, by
    tr((Z_i X)† Z_j X rho) = tr(Z_i† Z_j X rho X†)."""
    return rho if x is None else x @ rho @ x.conj().swapaxes(-1, -2)


def _weights(k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """tr(A_i rho A_i†) = sum_ab conj(A_i)_ab (A_i rho)_ab, (..., n), not yet
    normalized: one product of rho with every row of every operator."""
    return np.vecdot(_flat(k), _flat((_rows(k) @ rho).reshape(k.shape))).real


def gram_matrix(a: Unraveling, rho) -> np.ndarray:
    """Hermitian PSD unit-trace matrix with entries tr(A_i† A_j rho)."""
    return a._gram_at(check_density(rho, a.dim_in)[0])


def effect_probabilities(a: Unraveling, rho) -> np.ndarray:
    """p_i = tr(A_i† A_i rho)."""
    return _normalized(_weights(a.kraus_ops, check_density(rho, a.dim_in)[0]))


def _extremal(a: Unraveling, rho: np.ndarray) -> ExtremalResult:
    pi = a._gram_at(rho)
    w, v = linalg._descending_eig(pi)  # _gram made pi Hermitian, so v is unitary as eigh made it
    return ExtremalResult(extremal=_remix(a.kraus_ops, v), lambdas=_normalized(w), diagonalizer=v, gram=pi)


def extremal_unraveling(a: Unraveling, rho) -> ExtremalResult:
    """Diagonalize the Gram matrix and remix by its eigenvector matrix.

    With degenerate Gram eigenvalues the diagonalizer (hence the extremal
    Kraus set) is non-unique; only spectrum-derived quantities are canonical.
    """
    return _extremal(a, check_density(rho, a.dim_in)[0])


def unraveling_entropy(a: Unraveling, rho, alpha: float, kind: str = "tsallis") -> float:
    """Entropy of the effect-probability distribution."""
    return _entropy(effect_probabilities(a, rho), alpha, kind)


def random_unraveling(dim: int, n_kraus: int, seed: int) -> Unraveling:
    """Random unraveling from the blocks of a Haar-random isometry, held as its factors
    when two or more operators make the draw tall enough for Cholesky QR (see the module)."""
    if dim < 1 or n_kraus < 1:
        raise ValueError("dim and n_kraus must be >= 1")
    return Unraveling._factored(*_isometry_factors(linalg.seeded_ginibre(seed, n_kraus * dim, dim), n_kraus))


def _isometry_factors(z: np.ndarray, n_kraus: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The Kraus sets (..., n_kraus, rows, cols) of the Haar-random isometries V of the Ginibre
    draws z (..., n_kraus * rows, cols), completeness checked, as (blocks, factor) with
    A_i = blocks[i] @ factor.

    The draw's shape picks the QR, here alone.  A draw with rows >= 2 cols takes Cholesky QR
    (linalg._cholesky_qr): (Z, X), Z's blocks and the factors X = R^-1 with V = Z X, checked
    as X† (Z†Z) X = I from the Z†Z it formed.  Two products and a cols x cols inverse (6 ms
    against 45 ms for Householder QR on 4096 x 64, one BLAS thread, Xeon), orthogonal to
    rounding: Cholesky QR's orthogonality error is about cond(Z)^2 eps, and an m x n Ginibre
    draw with m >= 2n has cond(Z) concentrated near (sqrt(m) + sqrt(n)) / (sqrt(m) - sqrt(n))
    <= 3 + 2 sqrt(2) ~ 5.83.  Every other draw, one operator's square one included, has no
    such bound and takes Householder QR (linalg.positive_qr), whose error does not grow with
    cond(Z): (V's blocks, None), checked as V†V = I."""
    m, n = z.shape[-2:]
    if m < 2 * n:
        v = linalg.positive_qr(z)
        k = v.reshape(*v.shape[:-2], n_kraus, -1, n)
        _check_complete(k)
        return k, None
    gram, x = linalg._cholesky_qr(z)
    linalg.check_identity(x.conj().swapaxes(-1, -2) @ gram @ x, _INCOMPLETE)
    return z.reshape(*z.shape[:-2], n_kraus, -1, n), x


def remixed_probabilities(pi: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """Effect probabilities of remixings, straight from the Gram matrix.

    For B = remix(A, U) the probabilities are diag(U† Pi U); `unitaries` is a
    stack (count, n, n) and the result has shape (count, n).  A stack of Gram
    matrices (..., n, n) takes stacks of unitaries (..., count, n, n).
    """
    return _normalized(np.vecdot(unitaries, pi[..., None, :, :] @ unitaries, axis=-2).real)
