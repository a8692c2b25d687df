"""Tsallis and Renyi entropies, the alpha-logarithm, and order algebra.

All entropies are in nats and exact at every order alpha > 0, Shannon's alpha = 1
included: ln_a(x) = expm1((1-a) ln x)/(1-a) is ln x at a = 1 and cancels nowhere
near it (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 1.14.1).
The kernels take one order or a grid of them, which puts an order axis first.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import check_density, check_entries

_SUM_TOL = 1e-10
_NEG_TOL = 1e-12


def as_prob_vector(p) -> np.ndarray:
    """Validate a probability vector from outside the program, or each row of a
    stack of them, and normalize it with _normalized.

    The last axis holds the outcomes.  An entry past check_entries' bound fails before any
    sum, entries in [-1e-12, 0) count as 0, and each distribution must sum to 1 within 1e-10.
    """
    p = check_entries(np.asarray(p, dtype=float), "probabilities")
    if p.ndim == 0:
        p = p.reshape(1)
    if not np.isfinite(p).all():
        raise ValueError("probabilities contain non-finite entries")
    if (p < -_NEG_TOL).any():
        raise ValueError(f"negative probability {p.min():.3e}")
    s = np.maximum(p, 0.0).sum(axis=-1, keepdims=True)
    off = np.abs(s - 1) > _SUM_TOL
    if off.any():
        raise ValueError(f"probabilities sum to {float(s[off][0])}, expected 1")
    return _normalized(p)


def _normalized(p: np.ndarray) -> np.ndarray:
    """Distributions over the last axis clipped at 0 and divided by their sums: once
    for each distribution built from validated operators (a spectrum, outcome
    weights), which holds to those operators' looser tolerances, not as_prob_vector's."""
    p = np.maximum(p, 0.0)
    return p / p.sum(axis=-1, keepdims=True)


def _check_order(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"entropy order must be > 0, got {alpha}")
    return alpha


def _orders(alpha, ndim: int) -> tuple:
    """(orders, t, one): alpha's orders (one or a 1-D sequence), checked; t = 1 - a (1 at a = 1, set apart
    by the callers), a float for one order, else a (K, 1, ..., 1) column; whether alpha is one order."""
    one = isinstance(alpha, float) or not isinstance(alpha, (list, tuple)) and np.ndim(alpha) == 0
    orders = [_check_order(alpha)] if one else [_check_order(a) for a in alpha]
    t = [1.0 - a if a != 1 else 1.0 for a in orders]
    return orders, t[0] if one else np.array(t).reshape((-1,) + (1,) * ndim), one


def alpha_log(x, alpha):
    """Deformed logarithm ln_a(x) = (x^(1-a) - 1)/(1-a) = expm1((1-a) ln x)/(1-a)
    of a scalar x >= 0 (a float) or of each entry of an array.  At x = 0 it is
    the finite limit -1/(1-a) for a < 1, where expm1(-inf) = -1, and diverges
    otherwise.  A 1-D sequence of orders puts an order axis first (as _entropy)."""
    x = np.asarray(x, dtype=float)
    orders, t, one = _orders(alpha, x.ndim)
    if (x < 0).any():
        raise ValueError(f"alpha_log requires x >= 0, got {x[x < 0].min()}")
    if max(orders, default=0.0) >= 1 and (x == 0).any():
        raise ValueError(f"alpha_log(0) diverges for order {max(orders)}")
    with np.errstate(divide="ignore", over="ignore"):
        log_x = np.log(x)
        h = np.expm1(t * log_x) / t
    if 1.0 in orders:  # ln_1 is ln
        h = np.where(np.reshape([a == 1 for a in orders], np.shape(t)), log_x, h)
    return float(h) if one and h.ndim == 0 else h


def _entropy(p: np.ndarray, alpha, kind: str):
    """Tsallis (or Renyi) entropy over the last axis of normalized distributions
    (through as_prob_vector or _normalized): a float for one distribution, an
    array for a stack of them, +0.0 for a point mass.  A 1-D sequence of orders
    puts an order axis first, each order's values bit for bit its own call's.
    The public functions below validate p and call this; a caller that takes
    several orders or kinds of one stack normalizes it once.

    T = -sum p ln_(2-a)(p) = -sum p^a ln_a(p) in the expm1 form of alpha_log:
    the first for a >= 1, the second for a < 1, so every expm1 argument is
    <= 0 (subnormal p included; at huge orders it overflows to -inf, where expm1
    gives -1, the exact limit) and all terms share one sign.  Each p^a has a scalar
    exponent, as numpy takes p ** 0.5 by sqrt but an array exponent by pow.
    """
    if kind not in ("tsallis", "renyi"):
        raise ValueError(f"unknown entropy kind {kind!r}")
    orders, t, one = _orders(alpha, p.ndim - 1)  # t against the entropies' axes
    # log(1) = 0 stands in where p == 0, so those terms count as 0
    log_p = np.log(np.where(p, p, 1.0))
    with np.errstate(over="ignore"):
        terms = abs(t if one else t[..., None]) * log_p
        np.expm1(terms, out=terms)
        for row, order in zip((terms,) if one else terms, orders):
            if order == 1:
                np.multiply(p, log_p, out=row)  # Shannon: -sum p ln p
            else:
                row *= p if order > 1 else p**order
        # over -|1 - a|, and +0.0 for a point mass: 0 - x is -x, and +0.0 at x = -0.0
        h = 0.0 - terms.sum(axis=-1) / abs(t)
        if kind == "renyi" and orders.count(1.0) < len(orders):  # at a = 1 Renyi is Tsallis
            s = t * h  # sum p^a - 1, whose log1p stays exact near order 1; s = T >= 0 at a = 1
            far = s < -0.5  # large alpha: sum p^a << 1 and s has rounded its digits away
            renyi = np.log1p(np.maximum(s, -0.5)) / t
            if far.any():
                m = p.max(axis=-1, keepdims=True)  # factored out, so sum p^a cannot underflow
                sums = [((p / m) ** a).sum(axis=-1) for a in orders]
                log_m, log_s = np.log(m[..., 0]), np.log(sums[0] if one else np.stack(sums))
                a = orders[0] if one else np.array(orders).reshape(np.shape(t))
                renyi = np.where(far, (a * log_m + log_s) / t, renyi)
                renyi = np.where(np.isinf(renyi), (a / t) * log_m + log_s / t, renyi)  # alpha ln m overflowed
            h = np.where(np.reshape([a == 1 for a in orders], np.shape(t)), h, renyi) if 1.0 in orders else renyi
    return float(h) if one and h.ndim == 0 else h


def tsallis_entropy(p, alpha: float):
    """Non-extensive entropy (1-a)^(-1) (sum p^a - 1); Shannon at a = 1.

    p is one distribution (gives a float) or a stack of them (one per row).
    """
    return _entropy(as_prob_vector(p), alpha, "tsallis")


def renyi_entropy(p, alpha: float):
    """Renyi entropy (1-a)^(-1) ln(sum p^a); Shannon at a = 1; p as for tsallis_entropy."""
    return _entropy(as_prob_vector(p), alpha, "renyi")


def quantum_entropy(rho, alpha: float, kind: str = "tsallis") -> float:
    """Entropy of the eigenvalue distribution of a density matrix: the spectrum
    that check_density returns, the one that served its PSD check."""
    return _entropy(_normalized(check_density(rho)[1]), alpha, kind)


class ConjugateOrders:
    """Order pair with 1/alpha + 1/beta = 2 and mu = max(alpha, beta)."""

    def __init__(self, alpha: float, beta: float, mu: float):
        if not (0 < alpha < np.inf and 0 < beta < np.inf):  # NaN and inf fail too
            raise ValueError("orders must be positive")
        if abs(1.0 / alpha + 1.0 / beta - 2.0) > 1e-12:
            raise ValueError(f"orders ({alpha}, {beta}) are not conjugate: 1/a + 1/b != 2")
        if mu != max(alpha, beta):
            raise ValueError("mu must equal max(alpha, beta)")
        self.alpha, self.beta, self.mu = alpha, beta, mu


def conjugate_order(alpha: float) -> ConjugateOrders:
    """Solve 1/alpha + 1/beta = 2 for beta; requires a finite alpha > 1/2."""
    alpha = float(alpha)
    if not 0.5 < alpha < np.inf:
        raise ValueError(f"conjugate order needs a finite alpha > 1/2, got {alpha}")
    beta = alpha / (2.0 * alpha - 1.0)
    if beta == 0:  # 2 alpha - 1 overflowed
        raise ValueError(f"the conjugate order of alpha = {alpha} rounds to 0")
    return ConjugateOrders(alpha=alpha, beta=beta, mu=max(alpha, beta))
