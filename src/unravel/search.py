"""Renyi-extremal unravelings and the paired uncertainty reports built on them.

Remixing an unraveling by a unitary U gives the effect distribution
diag(U† Pi U), where Pi is the Gram matrix.  By Schur's theorem that diagonal
is majorized by the spectrum lambda of Pi, and every Renyi entropy of positive
order is Schur-concave (Marshall & Olkin, Inequalities: Theory of
Majorization, ch. 3 A and 9 B).  So the Gram-diagonalizing unraveling that
minimizes every Tsallis entropy also minimizes every Renyi entropy, and the
minimum is R_alpha(lambda) exactly; no numerical search is needed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .bounds import BoundReport, povm_from_unraveling, renyi_uncertainty_check, tsallis_uncertainty_check
from .channels import Unraveling, extremal_unraveling
from .entropy import ConjugateOrders, renyi_entropy


@dataclass(frozen=True)
class SearchConfig:
    """Order of the Renyi minimization.

    restarts, iterations and seed are validated but no longer change the
    result, which is exact.
    """

    alpha: float
    restarts: int = 10
    iterations: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.restarts < 1 or self.iterations < 1:
            raise ValueError("restarts and iterations must be >= 1")


def renyi_extremal_search(a: Unraveling, rho, cfg: SearchConfig) -> tuple[Unraveling, float]:
    """Renyi minimizer over remixings: the Gram-extremal unraveling.

    Every remixed distribution diag(U† Pi U) is majorized by the Gram
    spectrum lambda (Schur), and R_alpha is Schur-concave, so R_alpha(lambda)
    is the exact minimum at every order alpha > 0.  cfg.restarts,
    cfg.iterations and cfg.seed do not change the result.
    """
    result = extremal_unraveling(a, rho)
    return result.extremal, renyi_entropy(result.lambdas, cfg.alpha)


def extremal_pair_tsallis(
    a: Unraveling, b: Unraveling, rho, orders: ConjugateOrders
) -> BoundReport:
    """Tsallis uncertainty report for the Gram-extremal unravelings of a pair."""
    ex_a = extremal_unraveling(a, rho)
    ex_b = extremal_unraveling(b, rho)
    return tsallis_uncertainty_check(
        povm_from_unraveling(ex_a.extremal),
        povm_from_unraveling(ex_b.extremal),
        rho,
        orders,
        factor_kind="g",
    )


def extremal_pair_renyi(
    a: Unraveling, b: Unraveling, rho, orders: ConjugateOrders, cfg: SearchConfig
) -> BoundReport:
    """Renyi uncertainty report: Renyi minimizer at alpha, Gram extremal at beta."""
    if orders.alpha <= 1:
        raise ValueError("the paired Renyi relation is stated for alpha > 1")
    best_a, _ = renyi_extremal_search(a, rho, dataclasses.replace(cfg, alpha=orders.alpha))
    ex_b = extremal_unraveling(b, rho)
    return renyi_uncertainty_check(
        povm_from_unraveling(best_a),
        povm_from_unraveling(ex_b.extremal),
        rho,
        orders,
        factor_kind="g",
    )
