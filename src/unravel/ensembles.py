"""State ensembles with a prescribed density matrix and their entropy bounds.

A pure ensemble {p_i, psi_i} reproducing rho can be generated from the
spectral decomposition by mixing through a unitary; the weights then relate
to the spectrum by a unistochastic matrix.  The quantum entropy of rho is
never above the classical entropy of the weights (Tsallis for every order,
Renyi for orders below 1), and for mixed ensembles the Tsallis entropy is
sandwiched between mixtures of member entropies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .entropy import as_prob_vector, classical_entropy, tsallis_entropy
from .linalg import check_density, haar_random_unitary

# members lighter than this are dropped (their direction is undefined)
WEIGHT_DROP_TOL = 1e-14


@dataclass(frozen=True)
class PureEnsemble:
    """Weighted normalized pure states."""

    weights: np.ndarray
    states: tuple[np.ndarray, ...]

    def __post_init__(self):
        w = as_prob_vector(self.weights)
        states = tuple(np.asarray(s, dtype=complex).ravel() for s in self.states)
        if len(states) != w.size:
            raise ValueError("weights and states disagree in length")
        dim = states[0].size
        for k, s in enumerate(states):
            if s.size != dim:
                raise ValueError("states must share one dimension")
            if abs(np.linalg.norm(s) - 1) > 1e-10:
                raise ValueError(f"state {k} is not normalized")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].size


@dataclass(frozen=True)
class MixedEnsemble:
    """Weighted normalized density matrices."""

    weights: np.ndarray
    members: tuple[np.ndarray, ...]

    def __post_init__(self):
        w = as_prob_vector(self.weights)
        members = tuple(check_density(m, name=f"member {k}") for k, m in enumerate(self.members))
        if len(members) != w.size:
            raise ValueError("weights and members disagree in length")
        dim = members[0].shape[0]
        if any(m.shape[0] != dim for m in members):
            raise ValueError("members must share one dimension")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0].shape[0]


def ensemble_density(e: PureEnsemble | MixedEnsemble) -> np.ndarray:
    """Density matrix generated by the ensemble."""
    if isinstance(e, PureEnsemble):
        rho = sum(p * np.outer(s, s.conj()) for p, s in zip(e.weights, e.states))
    elif isinstance(e, MixedEnsemble):
        rho = sum(p * m for p, m in zip(e.weights, e.members))
    else:
        raise TypeError(f"not an ensemble: {type(e).__name__}")
    return linalg.hermitianize(rho)


def ensemble_from_state(rho, m: int, seed: int | None) -> PureEnsemble:
    """Pure ensemble of m members reproducing rho.

    sqrt(p_i) psi_i = sum_j u_ij sqrt(lambda_j) phi_j with an m x m unitary u
    mixing the (zero-padded) spectral decomposition.  seed=None selects the
    identity mixing, i.e. the eigen-ensemble, so the saturation case of the
    pure-ensemble bound stays testable.  Members below WEIGHT_DROP_TOL are
    dropped.
    """
    rho = check_density(rho)
    d = rho.shape[0]
    w, v = np.linalg.eigh(rho)  # rho is checked, so hermitian_eig would check it twice
    lam, v = np.clip(w[::-1], 0.0, None), v[:, ::-1].copy()  # descending
    rank = int(np.count_nonzero(lam > linalg.TOL_PSD))
    if m < rank:
        raise ValueError(f"m = {m} is below rank(rho) = {rank}")
    u = np.eye(m, dtype=complex) if seed is None else haar_random_unitary(m, seed)
    k = min(m, d)
    # unnormalized members: sum_j u_ij sqrt(lambda_j) phi_j (lambda padded with zeros)
    vecs = (u[:, :k] * np.sqrt(lam[:k])) @ v[:, :k].T
    weights = np.einsum("ij,ij->i", vecs.conj(), vecs).real
    keep = weights > WEIGHT_DROP_TOL
    states = tuple(vec / np.sqrt(p) for vec, p in zip(vecs[keep], weights[keep]))
    return PureEnsemble(weights=as_prob_vector(weights[keep]), states=states)


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
    state_entropy = classical_entropy(np.linalg.eigvalsh(ensemble_density(e)), alpha, kind)
    ensemble_entropy = classical_entropy(e.weights, alpha, kind)
    in_premise = kind == "tsallis" or alpha < 1
    return PureBoundsResult(state_entropy, ensemble_entropy, in_premise)


class MixedBoundsResult(NamedTuple):
    lower: float
    mid: float
    upper: float


def mixed_ensemble_bounds_check(e: MixedEnsemble, alpha: float, kind: str = "tsallis") -> MixedBoundsResult:
    """Tsallis sandwich for a mixture of density matrices.

    lower = sum p_i H(omega_i), mid = H(rho), upper = sum p_i^alpha H(omega_i)
    + H(p).  The treatment does not carry over to Renyi entropies, which are
    rejected.
    """
    if kind != "tsallis":
        raise ValueError(f"mixed-ensemble bounds hold for Tsallis entropies only, got {kind!r}")
    member_h = tsallis_entropy(np.linalg.eigvalsh(np.stack(e.members)), alpha)
    lower = float(np.dot(e.weights, member_h))
    mid = tsallis_entropy(np.linalg.eigvalsh(ensemble_density(e)), alpha)
    upper = float(np.dot(e.weights**alpha, member_h) + tsallis_entropy(e.weights, alpha))
    return MixedBoundsResult(lower, mid, upper)
