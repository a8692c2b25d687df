"""State ensembles with a prescribed density matrix and their entropy bounds.

A pure ensemble {p_i, psi_i} reproducing rho can be generated from the
spectral decomposition by mixing through a unitary; the weights then relate
to the spectrum by a unistochastic matrix.  The quantum entropy of rho is
never above the classical entropy of the weights (Tsallis for every order,
Renyi for orders below 1), and for mixed ensembles the Tsallis entropy is
sandwiched between mixtures of member entropies.

The kernels (_mixture, _pure_members, _pure_bounds, _sandwich) take weights
(..., m), pure states (..., m, dim) or mixed members (..., m, dim, dim) with any
leading axes; the public functions call them on one ensemble.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg
from .entropy import _entropy, _normalized, as_prob_vector
from .linalg import haar_random_unitary

# members lighter than this are dropped (their direction is undefined)
WEIGHT_DROP_TOL = 1e-14


class PureEnsemble:
    """Weighted normalized pure states.

    The states are held as one (m, dim) array, one state per row, which
    indexes and iterates like a tuple of vectors.
    """

    def __init__(self, weights, states):
        w = as_prob_vector(weights)
        states = np.array(states, dtype=complex)
        if states.ndim == 0 or len(states) != w.size:
            raise ValueError("weights and states disagree in length")
        states = linalg.check_entries(states.reshape(w.size, -1), "states")
        linalg.check_unit_norm(states)
        self.weights, self.states = w, states

    @classmethod
    def _built(cls, weights: np.ndarray, states: np.ndarray) -> PureEnsemble:
        """The normalized weights and unit states that _pure_members builds, held unchecked."""
        e = cls.__new__(cls)
        e.weights, e.states = weights, states
        return e

    @property
    def dim(self) -> int:
        return self.states.shape[-1]


class MixedEnsemble:
    """Weighted normalized density matrices.

    The members are held as one (m, dim, dim) array, which indexes and
    iterates like a tuple of matrices, and `spectra` holds their ascending
    eigenvalues (m, dim), the ones that served their validation.
    """

    def __init__(self, weights, members):
        w = as_prob_vector(weights)
        members = linalg.check_entries(linalg.as_matrix_stack(members, "members"), "member")
        members, spectra = linalg.density_spectrum(members, name="member")
        if members.shape[0] != w.size:
            raise ValueError("weights and members disagree in length")
        self.weights, self.members, self.spectra = w, members, spectra

    @property
    def dim(self) -> int:
        return self.members.shape[-1]


def _mixture(weights: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Hermitian part of sum_i w_i ops_i: weights (..., m), ops (..., m, d, d)."""
    return linalg.hermitianize(np.sum(weights[..., None, None] * ops, axis=-3))


def _projectors(states: np.ndarray) -> np.ndarray:
    """|psi><psi| for each state of a (..., d) stack."""
    return states[..., :, None] * states.conj()[..., None, :]


def _pure_members(w: np.ndarray, v: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Members sqrt(p_i) psi_i = sum_j u_ij sqrt(lambda_j) phi_j of pure ensembles.

    (w, v) is the ascending eigendecomposition of validated states, (..., d) and
    (..., d, d), and u holds the (..., m, m) mixing unitaries; the spectra are
    zero-padded to m.  Returns the weights (..., m), normalized here and only here,
    and the states (..., m, d); a member below WEIGHT_DROP_TOL gets weight 0 and a zero state.
    """
    m, d = u.shape[-1], w.shape[-1]
    lam = np.clip(w[..., ::-1], 0.0, None)  # descending
    rank = np.count_nonzero(lam > linalg.TOL_PSD, axis=-1)
    over = np.flatnonzero(rank > m)
    if over.size:
        raise ValueError(f"m = {m} is below rank(rho) = {np.ravel(rank)[over[0]]}")
    k = min(m, d)
    phis = np.ascontiguousarray(v[..., ::-1])[..., :k].swapaxes(-1, -2)  # (..., k, d): phi_j as rows
    vecs = (u[..., :k] * np.sqrt(lam[..., None, :k])) @ phis
    weights = np.einsum("...ij,...ij->...i", vecs.conj(), vecs).real
    keep = weights > WEIGHT_DROP_TOL
    states = np.where(keep[..., None], vecs / np.sqrt(np.where(keep, weights, 1.0))[..., None], 0.0)
    return _normalized(np.where(keep, weights, 0.0)), states


def _pure_bounds(weights: np.ndarray, states: np.ndarray, alpha: float, kind: str) -> tuple:
    """(state entropy, weight entropy), each (...,): the entropy of the density
    regenerated from the ensemble, weights (..., m) and states (..., m, d), and
    that of its weights, which are normalized already."""
    rho = _mixture(weights, _projectors(states))
    return _entropy(_normalized(np.linalg.eigvalsh(rho)), alpha, kind), _entropy(weights, alpha, kind)


def _sandwich(weights: np.ndarray, members: np.ndarray, spectra: np.ndarray, alpha: float) -> tuple:
    """(lower, mid, upper), each (...,), of the Tsallis sandwich of mixed
    ensembles: normalized weights (..., m), members (..., m, d, d) and their
    spectra (..., m, d)."""
    member_h = _entropy(_normalized(spectra), alpha, "tsallis")
    mid = _entropy(_normalized(np.linalg.eigvalsh(_mixture(weights, members))), alpha, "tsallis")
    upper = np.vecdot(weights**alpha, member_h) + _entropy(weights, alpha, "tsallis")
    return np.vecdot(weights, member_h), mid, upper


def ensemble_density(e: PureEnsemble | MixedEnsemble) -> np.ndarray:
    """Density matrix generated by the ensemble."""
    if isinstance(e, PureEnsemble):
        ops = _projectors(e.states)
    elif isinstance(e, MixedEnsemble):
        ops = e.members
    else:
        raise TypeError(f"not an ensemble: {type(e).__name__}")
    return _mixture(e.weights, ops)


def ensemble_from_state(rho, m: int, seed: int | None) -> PureEnsemble:
    """Pure ensemble of m members reproducing rho.

    sqrt(p_i) psi_i = sum_j u_ij sqrt(lambda_j) phi_j with an m x m unitary u
    mixing the (zero-padded) spectral decomposition.  seed=None selects the
    identity mixing, i.e. the eigen-ensemble, so the saturation case of the
    pure-ensemble bound stays testable.  Members below WEIGHT_DROP_TOL are
    dropped.  The spectral decomposition is the one check_density made.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    _, w, v = linalg.check_density(rho, vectors=True)
    u = np.eye(m, dtype=complex) if seed is None else haar_random_unitary(m, seed)
    weights, states = _pure_members(w, v, u)
    keep = weights > 0
    return PureEnsemble._built(weights[keep], states[keep])


class PureBoundsResult(NamedTuple):
    state_entropy: float
    ensemble_entropy: float
    in_premise: bool


def pure_ensemble_bounds_check(e: PureEnsemble, alpha: float, kind: str = "tsallis") -> PureBoundsResult:
    """Entropy of the generated state vs entropy of the weights.

    state_entropy <= ensemble_entropy holds for Tsallis at every alpha > 0 and
    for Renyi at alpha < 1 only; outside that range in_premise is False and
    the values are still returned, just not asserted.
    """
    state_entropy, ensemble_entropy = _pure_bounds(e.weights, e.states, alpha, kind)
    return PureBoundsResult(state_entropy, ensemble_entropy, kind == "tsallis" or alpha < 1)


class MixedBoundsResult(NamedTuple):
    lower: float
    mid: float
    upper: float


def mixed_ensemble_bounds_check(e: MixedEnsemble, alpha: float) -> MixedBoundsResult:
    """Tsallis sandwich for a mixture of density matrices.

    lower = sum p_i H(omega_i), mid = H(rho), upper = sum p_i^alpha H(omega_i)
    + H(p).  The treatment does not carry over to Renyi entropies.
    """
    return MixedBoundsResult(*map(float, _sandwich(e.weights, e.members, e.spectra, alpha)))
