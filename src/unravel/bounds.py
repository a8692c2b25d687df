"""Uncertainty bounds for pairs of generalized resolutions of the identity.

The overlap factors g (state-dependent), f (spectral-decomposition form) and
f_bar (state-independent) obey g <= f <= f_bar <= 1 and set the lower bounds

    H_a(M|rho) + H_b(N|rho) >= ln_mu(factor^-2)      (Tsallis)
    R_a(M|rho) + R_b(N|rho) >= -2 ln(factor)          (Renyi)

for conjugate orders 1/a + 1/b = 2, mu = max(a, b).  f_bar is computed in
root-factor form: with F_i F_i† = M_i and G_j G_j† = N_j,
||M_i^(1/2) N_j^(1/2)|| = ||F_i† G_j||, a matrix only as large as the elements'
ranks.  A Povm holds its elements and their root factors, made once when it is
built.  Povm(elements) takes them from one eigendecomposition of the stack
(kept eigenvectors scaled by root eigenvalues); random_projective_povm (the
basis vectors) and povm_from_unraveling (A_i†) pass the factors they hold and
decompose nothing.

The paired reports measure the Gram-extremal unravelings of two Kraus sets.
Remixing by a unitary U gives the distribution diag(U† Pi U), which the Gram
spectrum majorizes (Schur); Tsallis and Renyi entropies of positive order are
Schur-concave (Marshall & Olkin, Inequalities: Theory of Majorization, ch. 3 A
and 9 B), so that unraveling minimizes both at every order, exactly.  The
module also hosts a grid verifier for the two-variable function whose
constrained minimum yields the Tsallis bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .channels import Unraveling, _extremal
from .entropy import ConjugateOrders, alpha_log, as_prob_vector, classical_entropy
from .linalg import check_density

# Probabilities below this are treated as zero in the factor maxima.
P_ZERO_TOL = 1e-12

TOL_POVM_COMPLETE = 1e-9


@dataclass(frozen=True)
class Povm:
    """Set of Hermitian PSD operators summing to the identity.

    The elements are held as one (n, dim, dim) array, which indexes and
    iterates like a tuple of matrices.  `roots` is an (n, dim, r) stack of
    root factors, F_i F_i† = M_i, made when the POVM is built: from one
    eigendecomposition of the validated elements, or, for
    random_projective_povm and povm_from_unraveling, from the factors they
    already hold.
    """

    elements: np.ndarray
    roots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = linalg.as_matrix_stack(self.elements, "POVM elements")
        elems = linalg.check_hermitian(elems, name="POVM element")
        w, v = np.linalg.eigh(elems)
        k = int(w[:, 0].argmin())
        if w[k, 0] < -linalg.TOL_PSD:
            raise ValueError(f"POVM element {k} not PSD: min eigenvalue {w[k, 0]:.3e}")
        self._hold(elems, _root_factors(w, v))

    @classmethod
    def _factored(cls, products: np.ndarray, roots: np.ndarray) -> Povm:
        """POVM with elements hermitianize(products), where products[i] = F_i F_i†
        for roots[i] = F_i.  Such elements are Hermitian and PSD by construction,
        so only completeness is checked, and nothing is decomposed."""
        povm = object.__new__(cls)
        povm._hold(linalg.hermitianize(np.ascontiguousarray(products)), np.ascontiguousarray(roots))
        return povm

    def _hold(self, elems: np.ndarray, roots: np.ndarray) -> None:
        dev = np.linalg.norm(elems.sum(axis=0) - np.eye(elems.shape[1]))
        if dev > TOL_POVM_COMPLETE:
            raise ValueError(f"POVM completeness violated: ||sum M - I||_F = {dev:.3e}")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "roots", roots)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True)
class BoundReport:
    """One evaluated uncertainty inequality: lhs >= rhs up to slack tolerance."""

    lhs: float
    rhs: float
    slack: float
    factor: float
    orders: ConjugateOrders


def bound_report(p, q, orders: ConjugateOrders, kind: str, factor: float, rhs: float) -> BoundReport:
    """Report H_a(p) + H_b(q) >= rhs for entropies of the given kind.

    alpha is bound to p and beta to q.  The entropies are exact at every
    order, the Shannon case alpha = beta = 1 included.
    """
    lhs = classical_entropy(p, orders.alpha, kind) + classical_entropy(q, orders.beta, kind)
    return BoundReport(lhs=lhs, rhs=rhs, slack=lhs - rhs, factor=factor, orders=orders)


def _same_dim(x: int, y: int) -> int:
    if x != y:
        raise ValueError(f"dimension mismatch: {x} vs {y}")
    return x


def _outcome_weights(m: Povm, rho: np.ndarray) -> np.ndarray:
    """tr(M_i rho) for a validated state, not yet checked as a distribution."""
    return np.einsum("iab,ba->i", m.elements, rho).real


def povm_probabilities(m: Povm, rho) -> np.ndarray:
    """p_i = tr(M_i rho)."""
    return as_prob_vector(_outcome_weights(m, check_density(rho, m.dim)))


def povm_from_unraveling(a: Unraveling) -> Povm:
    """Measurement with elements M_i = A_i† A_i and root factors A_i†."""
    k_dag = a.kraus_ops.conj().swapaxes(1, 2)
    return Povm._factored(k_dag @ a.kraus_ops, k_dag)


def _max_ratio(p: np.ndarray, q: np.ndarray, overlaps: np.ndarray) -> float:
    """max |o_kij| / sqrt(p_ki q_kj) over the pairs with p_ki, q_kj > P_ZERO_TOL.

    p is (K, n_m), q is (K, n_n) and overlaps is (K, n_m, n_n), one slice per vector k.
    """
    ok = (p[:, :, None] > P_ZERO_TOL) & (q[:, None, :] > P_ZERO_TOL)
    if not ok.any():
        raise ValueError("degenerate input: no outcome pair with nonzero probabilities")
    return float((np.abs(overlaps[ok]) / np.sqrt((p[:, :, None] * q[:, None, :])[ok])).max())


def _g(m: Povm, n: Povm, rho: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    overlaps = np.einsum("iab,jbc,ca->ij", m.elements, n.elements, rho, optimize=True)
    return _max_ratio(p[None], q[None], overlaps[None])


def g_factor(m: Povm, n: Povm, rho) -> float:
    """max |tr(M_i N_j rho)| / sqrt(p_i q_j) over outcomes with nonzero probability."""
    return _uncertainty_check(m, n, rho, (), "g", ())[0]


def _f(m: Povm, n: Povm, rho: np.ndarray) -> float:
    w, v = np.linalg.eigh(rho)
    psi = v[:, w > P_ZERO_TOL]  # (dim, K)
    # a[k, i] = M_i psi_k and b[k, j] = N_j psi_k, for every eigenvector at once
    a = (m.elements @ psi).transpose(2, 0, 1)
    b = (n.elements @ psi).transpose(2, 0, 1)
    p = np.einsum("kia,ak->ki", a, psi.conj()).real
    q = np.einsum("kja,ak->kj", b, psi.conj()).real
    return _max_ratio(p, q, a.conj() @ b.transpose(0, 2, 1))


def f_factor(m: Povm, n: Povm, rho) -> float:
    """Overlap maximum over the eigenvectors of rho.

    For eigenvector psi: |<M_i psi, N_j psi>| / sqrt(<psi|M_i|psi> <psi|N_j|psi>),
    maximized over eigenvectors with nonzero weight and admissible (i, j).
    Coincides with g on pure states and dominates it otherwise.
    """
    return _f(m, n, check_density(rho, _same_dim(m.dim, n.dim)))


def _root_factors(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """C-ordered stack (n, dim, r) of F_i = E_i S_i with F_i F_i† = M_i, from the
    eigendecomposition (w, v) of the elements: the eigenvectors E_i of eigenvalue
    above P_ZERO_TOL scaled by the roots S_i.  r is the largest such rank in the
    stack; columns of dropped eigenvalues are zero."""
    d, r = w.shape[1], int((w > P_ZERO_TOL).sum(axis=1).max())
    # eigh sorts ascending, so the kept eigenvalues are the last r of each row
    w, v = w[:, d - r :], v[:, :, d - r :]
    v *= np.sqrt(np.where(w > P_ZERO_TOL, w, 0.0))[:, None, :]
    return np.ascontiguousarray(v)


def f_bar(m: Povm, n: Povm) -> float:
    """State-independent overlap: max spectral norm of M_i^(1/2) N_j^(1/2).

    Any root factor F_i of M_i (F_i F_i† = M_i) is M_i^(1/2) W_i with W_i a
    partial isometry, so the norm equals ||F_i† G_j|| for the POVMs' held roots,
    the top singular value of an r_m x r_n matrix.  One batched SVD per outcome
    of m covers every outcome of n, in O(n r^2) memory.
    """
    _same_dim(m.dim, n.dim)
    return max(
        float(np.linalg.svd(fi.conj().T @ n.roots, compute_uv=False)[:, 0].max()) for fi in m.roots
    )


def _reports(
    m: Povm, n: Povm, rho: np.ndarray, orders_seq, factor_kind: str, kinds
) -> tuple[float, list[BoundReport]]:
    """(factor, reports) at a validated state: p, q and the factor are computed
    once, then one report per order of orders_seq and kind of kinds, orders outer."""
    p, q = _outcome_weights(m, rho), _outcome_weights(n, rho)
    if factor_kind == "g":
        factor = _g(m, n, rho, p, q)
    elif factor_kind == "f":
        factor = _f(m, n, rho)
    elif factor_kind == "fbar":
        factor = f_bar(m, n)
    else:
        raise ValueError(f"unknown factor kind {factor_kind!r}")

    def rhs(orders: ConjugateOrders, kind: str) -> float:
        return alpha_log(factor**-2, orders.mu) if kind == "tsallis" else float(-2.0 * np.log(factor))

    return factor, [bound_report(p, q, o, k, factor, rhs(o, k)) for o in orders_seq for k in kinds]


def _uncertainty_check(
    m: Povm, n: Povm, rho, orders_seq, factor_kind: str, kinds
) -> tuple[float, list[BoundReport]]:
    """The factor and the reports of every order and kind, with rho validated once."""
    return _reports(m, n, check_density(rho, _same_dim(m.dim, n.dim)), orders_seq, factor_kind, kinds)


def tsallis_uncertainty_check(
    m: Povm, n: Povm, rho, orders: ConjugateOrders, factor_kind: str = "g"
) -> BoundReport:
    """Evaluate H_a(M|rho) + H_b(N|rho) against ln_mu(factor^-2).

    alpha is bound to the first POVM and beta to the second; every order is
    evaluated exactly, mu = 1 (Shannon) included.  rho is validated once and
    the outcome probabilities are computed once.
    """
    _, (report,) = _uncertainty_check(m, n, rho, [orders], factor_kind, ("tsallis",))
    return report


def renyi_uncertainty_check(
    m: Povm, n: Povm, rho, orders: ConjugateOrders, factor_kind: str = "g"
) -> BoundReport:
    """Evaluate R_a(M|rho) + R_b(N|rho) against -2 ln(factor), as tsallis_uncertainty_check."""
    _, (report,) = _uncertainty_check(m, n, rho, [orders], factor_kind, ("renyi",))
    return report


@dataclass(frozen=True)
class SearchConfig:
    """Settings of the former numerical Renyi search, still accepted by
    extremal_pair_renyi.

    Every field is validated, and none changes the result, which is exact.
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


def _extremal_pair(a: Unraveling, b: Unraveling, rho, orders: ConjugateOrders, kind: str) -> BoundReport:
    rho = check_density(rho, _same_dim(a.dim_in, b.dim_in))
    m, n = (povm_from_unraveling(_extremal(x, rho).extremal) for x in (a, b))
    _, (report,) = _reports(m, n, rho, [orders], "g", (kind,))
    return report


def extremal_pair_tsallis(a: Unraveling, b: Unraveling, rho, orders: ConjugateOrders) -> BoundReport:
    """Tsallis uncertainty report for the Gram-extremal unravelings of a pair."""
    return _extremal_pair(a, b, rho, orders, "tsallis")


def extremal_pair_renyi(
    a: Unraveling, b: Unraveling, rho, orders: ConjugateOrders, cfg: SearchConfig
) -> BoundReport:
    """Renyi uncertainty report for the Gram-extremal unravelings of a pair, the
    exact Renyi minimizers at alpha and at beta.  cfg does not change the result."""
    if orders.alpha <= 1:
        raise ValueError("the paired Renyi relation is stated for alpha > 1")
    return _extremal_pair(a, b, rho, orders, "renyi")


@dataclass(frozen=True)
class PhiProblem:
    """Constrained minimization instance for phi(xi, zeta).

    phi(xi, zeta) = (xi - 1)/(1 - alpha) + (zeta - 1)/(1 - beta) over the
    domain 0 <= xi <= 1, zeta >= 1, zeta >= gamma * xi^(beta/alpha), where
    gamma = factor^(-2(1-beta)) >= 1 and (alpha, beta) are conjugate with
    alpha > 1.  The minimum sits at (xi0, 1), xi0 = gamma^(-alpha/beta).
    """

    gamma: float
    alpha: float

    def __post_init__(self):
        if not 1 <= self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and >= 1, got {self.gamma}")
        if not 1 < self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and > 1, got {self.alpha}")

    @property
    def beta(self) -> float:
        return self.alpha / (2.0 * self.alpha - 1.0)

    @property
    def xi0(self) -> float:
        return self.gamma ** (-self.alpha / self.beta)

    def phi(self, xi, zeta):
        return (np.asarray(xi) - 1.0) / (1.0 - self.alpha) + (np.asarray(zeta) - 1.0) / (
            1.0 - self.beta
        )


def _feasible_grid_min(problem: PhiProblem, grid_points: int) -> float:
    """Minimum of phi over the feasible points of a grid_points x grid_points grid.

    phi increases in zeta, so the minimum of each xi row sits at the first
    grid zeta on or above the constraint curve; rows with no such zeta drop out.
    """
    gamma, alpha, beta = problem.gamma, problem.alpha, problem.beta
    xi = np.linspace(0.0, 1.0, grid_points)
    zeta = np.linspace(1.0, gamma, grid_points) if gamma > 1 else np.ones(1)
    first = np.searchsorted(zeta, gamma * xi ** (beta / alpha), side="left")
    rows = first < zeta.size
    if not rows.any():
        raise ValueError("empty feasible grid")
    return float(problem.phi(xi[rows], zeta[first[rows]]).min())


def phi_min_verify(problem: PhiProblem, grid_points: int = 2000) -> tuple[float, float]:
    """Return (analytic_min, numeric_min) for a PhiProblem.

    The numeric minimum combines a grid_points x grid_points rectangular grid
    (restricted to the feasible region; zeta <= gamma suffices since phi
    increases in zeta) with a fine sweep along the active lower boundary
    zeta = max(1, gamma * xi^(beta/alpha)), where the minimum lives.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    gamma, alpha, beta = problem.gamma, problem.alpha, problem.beta
    analytic = (problem.xi0 - 1.0) / (1.0 - alpha)
    grid_min = _feasible_grid_min(problem, grid_points)

    n_edge = min(grid_points * grid_points, 4_000_001)
    xi_edge = np.linspace(0.0, 1.0, n_edge)
    zeta_edge = np.maximum(1.0, gamma * xi_edge ** (beta / alpha))
    edge_min = float(problem.phi(xi_edge, zeta_edge).min())

    return analytic, min(grid_min, edge_min)


def random_projective_povm(dim: int, seed: int) -> Povm:
    """Rank-1 orthogonal projectors onto a Haar-random basis, the basis vectors
    their root factors."""
    u = linalg.haar_random_unitary(dim, seed)
    return Povm._factored(u.T[:, :, None] * u.T.conj()[:, None, :], u.T[:, :, None])


def random_povm(dim: int, n_outcomes: int, seed: int) -> Povm:
    """General POVM: Wishart pieces whitened by the inverse root of their sum."""
    if n_outcomes < 1:
        raise ValueError("n_outcomes must be >= 1")
    rng = np.random.default_rng(seed)
    pieces = []
    for _ in range(n_outcomes):
        g = linalg.ginibre(rng, dim, dim)
        pieces.append(g @ g.conj().T)
    total = sum(pieces)
    w, v = np.linalg.eigh(total)
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return Povm(tuple(linalg.hermitianize(inv_root @ s @ inv_root) for s in pieces))
