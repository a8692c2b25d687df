"""Tsallis and Renyi entropies, the alpha-logarithm, and order algebra.

All entropies are in nats and exact at every order alpha > 0, Shannon's alpha = 1
included: ln_a(x) = expm1((1-a) ln x)/(1-a) is ln x at a = 1 and cancels nowhere
near it (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 1.14.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import check_one_matrix, density_spectrum

_SUM_TOL = 1e-10
_NEG_TOL = 1e-12


def as_prob_vector(p) -> np.ndarray:
    """Validate and normalize a probability vector, or each row of a stack of them.

    The last axis holds the outcomes.  Entries in [-1e-12, 0) are clipped to 0;
    each distribution must sum to 1 within 1e-10 (the residual is
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
    off = np.abs(s - 1) > _SUM_TOL
    if off.any():
        raise ValueError(f"probabilities sum to {s[off][0]!r}, expected 1")
    return p / s


def _check_order(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"entropy order must be > 0, got {alpha}")
    return alpha


def alpha_log(x: float, alpha: float) -> float:
    """Deformed logarithm ln_a(x) = (x^(1-a) - 1)/(1-a) = expm1((1-a) ln x)/(1-a)."""
    alpha = _check_order(alpha)
    x = float(x)
    if x < 0:
        raise ValueError(f"alpha_log requires x >= 0, got {x}")
    if x == 0:
        if alpha < 1:
            # finite limit of (x^(1-a) - 1)/(1-a) as x -> 0+
            return -1.0 / (1.0 - alpha)
        raise ValueError(f"alpha_log(0) diverges for order {alpha}")
    t = 1.0 - alpha
    return math.expm1(t * math.log(x)) / t if t else math.log(x)


def _entropy(p: np.ndarray, alpha: float, kind: str):
    """Tsallis (or Renyi) entropy over the last axis of distributions that are
    already through as_prob_vector: a float for one distribution, an array for
    a stack of them.  The public functions below validate p and call this; a
    caller that takes several orders or kinds of one stack validates it once.

    T = -sum p ln_(2-a)(p) = -sum p^a ln_a(p) in the expm1 form of alpha_log:
    the first for a >= 1, the second for a < 1, so every expm1 argument is
    <= 0 (subnormal p included; at huge orders it overflows to -inf, where expm1
    gives -1, the exact limit) and all terms share one sign.
    """
    if kind not in ("tsallis", "renyi"):
        raise ValueError(f"unknown entropy kind {kind!r}")
    alpha = _check_order(alpha)
    # log(p + 1) = 0 stands in where p == 0, so those terms count as 0
    log_p = np.log(p + (p == 0))
    t = 1.0 - alpha
    with np.errstate(over="ignore"):
        if t:
            weights = p if t < 0 else p**alpha
            h = (weights * np.expm1(abs(t) * log_p)).sum(axis=-1) / -abs(t)
        else:
            h = -(p * log_p).sum(axis=-1)
        if kind == "renyi" and t:
            s = t * h  # sum p^a - 1, whose log1p stays exact near order 1
            far = s < -0.5  # large alpha: sum p^a << 1 and s has rounded its digits away
            h = np.log1p(np.maximum(s, -0.5)) / t
            if far.any():
                m = p.max(axis=-1, keepdims=True)  # factored out, so sum p^a cannot underflow
                log_m, log_s = np.log(m[..., 0]), np.log(((p / m) ** alpha).sum(axis=-1))
                h = np.where(far, (alpha * log_m + log_s) / t, h)
                h = np.where(np.isinf(h), (alpha / t) * log_m + log_s / t, h)  # alpha ln m overflowed
    return float(h) if h.ndim == 0 else h


def tsallis_entropy(p, alpha: float):
    """Non-extensive entropy (1-a)^(-1) (sum p^a - 1); Shannon at a = 1.

    p is one distribution (gives a float) or a stack of them (one per row).
    """
    return _entropy(as_prob_vector(p), alpha, "tsallis")


def renyi_entropy(p, alpha: float):
    """Renyi entropy (1-a)^(-1) ln(sum p^a); Shannon at a = 1; p as for tsallis_entropy."""
    return _entropy(as_prob_vector(p), alpha, "renyi")


def renyi_from_tsallis(h: float, alpha: float) -> float:
    """Convert a Tsallis value to the Renyi value of the same order: log1p((1-a) h)/(1-a)."""
    t = 1.0 - _check_order(alpha)
    s = t * float(h)
    if s <= -1:
        raise ValueError(f"log argument {1 + s!r} <= 0 in Tsallis-to-Renyi conversion")
    return math.log1p(s) / t if t else float(h)


def classical_entropy(p, alpha: float, kind: str):
    """Dispatch on kind in {'tsallis', 'renyi'}; p may be a stack."""
    return _entropy(as_prob_vector(p), alpha, kind)


def quantum_entropy(rho, alpha: float, kind: str = "tsallis") -> float:
    """Entropy of the eigenvalue distribution of a density matrix: the spectrum
    that served its PSD check."""
    return classical_entropy(density_spectrum(check_one_matrix(rho, "rho"))[1], alpha, kind)


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


def conjugate_order(alpha: float) -> ConjugateOrders:
    """Solve 1/alpha + 1/beta = 2 for beta; requires a finite alpha > 1/2."""
    alpha = float(alpha)
    if not 0.5 < alpha < np.inf:
        raise ValueError(f"conjugate order needs a finite alpha > 1/2, got {alpha}")
    beta = alpha / (2.0 * alpha - 1.0)
    if beta == 0:  # 2 alpha - 1 overflowed
        raise ValueError(f"the conjugate order of alpha = {alpha} rounds to 0")
    return ConjugateOrders(alpha=alpha, beta=beta, mu=max(alpha, beta))
