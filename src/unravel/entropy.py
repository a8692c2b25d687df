"""Tsallis and Renyi entropies, the alpha-logarithm, and order algebra.

All entropies are in nats.  Orders within EPS_ORDER of 1 switch over to the
Shannon formulas, since the direct expressions are numerically unstable there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_density

# |alpha - 1| below this uses the Shannon limit.
EPS_ORDER = 1e-8

_SUM_TOL = 1e-10
_NEG_TOL = 1e-12


def as_prob_vector(p, tol_sum: float = _SUM_TOL) -> np.ndarray:
    """Validate and normalize a probability vector, or each row of a stack of them.

    The last axis holds the outcomes.  Entries in [-1e-12, 0) are clipped to 0;
    each distribution must sum to 1 within tol_sum (the residual is
    renormalized away).
    """
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if not np.isfinite(p).all():
        raise ValueError("probabilities contain non-finite entries")
    if (p < -_NEG_TOL).any():
        raise ValueError(f"negative probability {p.min():.3e}")
    p = np.maximum(p, 0.0)
    s = p.sum(axis=-1, keepdims=True)
    off = np.abs(s - 1) > tol_sum
    if off.any():
        raise ValueError(f"probabilities sum to {s[off][0]!r}, expected 1")
    return p / s


def _check_order(alpha: float) -> float:
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"entropy order must be > 0, got {alpha}")
    return alpha


def alpha_log(x: float, alpha: float) -> float:
    """Deformed logarithm ln_a(x) = (x^(1-a) - 1)/(1-a); natural log at a -> 1."""
    alpha = _check_order(alpha)
    x = float(x)
    if x < 0:
        raise ValueError(f"alpha_log requires x >= 0, got {x}")
    if x == 0:
        if alpha < 1 - EPS_ORDER:
            # finite limit of (x^(1-a) - 1)/(1-a) as x -> 0+
            return -1.0 / (1.0 - alpha)
        raise ValueError(f"alpha_log(0) diverges for order {alpha}")
    if abs(alpha - 1) < EPS_ORDER:
        return float(np.log(x))
    return float((x ** (1.0 - alpha) - 1.0) / (1.0 - alpha))


def _entropy(p, alpha: float, renyi: bool):
    """Tsallis (or Renyi) entropy over the last axis: a float for one
    distribution, an array for a stack of them."""
    alpha = _check_order(alpha)
    p = as_prob_vector(p)
    if abs(alpha - 1) < EPS_ORDER:
        # log(p + 1) = 0 stands in where p == 0, so 0 log 0 counts as 0
        h = -(p * np.log(p + (p == 0))).sum(axis=-1)
    else:
        s = (p**alpha).sum(axis=-1)
        h = np.log(s) / (1.0 - alpha) if renyi else (s - 1.0) / (1.0 - alpha)
    return float(h) if h.ndim == 0 else h


def tsallis_entropy(p, alpha: float):
    """Non-extensive entropy (1-a)^(-1) (sum p^a - 1); Shannon at a -> 1.

    p is one distribution (gives a float) or a stack of them (one per row).
    """
    return _entropy(p, alpha, renyi=False)


def renyi_entropy(p, alpha: float):
    """Renyi entropy (1-a)^(-1) ln(sum p^a); Shannon at a -> 1; p as for tsallis_entropy."""
    return _entropy(p, alpha, renyi=True)


def renyi_from_tsallis(h: float, alpha: float) -> float:
    """Convert a Tsallis value to the Renyi value of the same order."""
    alpha = _check_order(alpha)
    h = float(h)
    if abs(alpha - 1) < EPS_ORDER:
        return h
    arg = 1.0 + (1.0 - alpha) * h
    if arg <= 0:
        raise ValueError(f"log argument {arg!r} <= 0 in Tsallis-to-Renyi conversion")
    return float(np.log(arg) / (1.0 - alpha))


def classical_entropy(p, alpha: float, kind: str):
    """Dispatch on kind in {'tsallis', 'renyi'}; p may be a stack."""
    if kind not in ("tsallis", "renyi"):
        raise ValueError(f"unknown entropy kind {kind!r}")
    return _entropy(p, alpha, renyi=kind == "renyi")


def quantum_entropy(rho, alpha: float, kind: str = "tsallis") -> float:
    """Entropy of the eigenvalue distribution of a density matrix."""
    rho = check_density(rho)
    w = np.linalg.eigvalsh(rho)
    return classical_entropy(w, alpha, kind)


@dataclass(frozen=True)
class ConjugateOrders:
    """Order pair with 1/alpha + 1/beta = 2 and mu = max(alpha, beta)."""

    alpha: float
    beta: float
    mu: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("orders must be positive")
        if abs(1.0 / self.alpha + 1.0 / self.beta - 2.0) > 1e-12:
            raise ValueError(
                f"orders ({self.alpha}, {self.beta}) are not conjugate: 1/a + 1/b != 2"
            )
        if self.mu != max(self.alpha, self.beta):
            raise ValueError("mu must equal max(alpha, beta)")

    @property
    def shannon_limit(self) -> bool:
        """True when mu is at the (limit-extrapolated) Shannon switchover."""
        return abs(self.mu - 1) < EPS_ORDER


def conjugate_order(alpha: float) -> ConjugateOrders:
    """Solve 1/alpha + 1/beta = 2 for beta; requires a finite alpha > 1/2."""
    alpha = float(alpha)
    if not 0.5 < alpha < np.inf:
        raise ValueError(f"conjugate order needs a finite alpha > 1/2, got {alpha}")
    beta = alpha / (2.0 * alpha - 1.0)
    return ConjugateOrders(alpha=alpha, beta=beta, mu=max(alpha, beta))
