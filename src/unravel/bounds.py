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

The kernels (_outcome_weights, _g, _f, _f_bar, _reports) take POVM elements
(..., n, dim, dim), roots (..., n, dim, r) and validated states (..., dim, dim)
with any leading axes, one value per index of those axes; the public functions
call them on one POVM pair and one state, and return floats.  g and f have two
forms.  When both POVMs are rank one (r = 1: M_i = u_i u_i†, N_j = w_j w_j†,
as for the basis projectors of random_projective_povm) each overlap is a
product of inner products of the root vectors, O(d^3) in all for d outcomes;
every other pair of ranks takes the element form, O(d^4).  The two agree to
rounding.

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
from .channels import Unraveling, _extremal, _flat
from .entropy import ConjugateOrders, _entropy, alpha_log, as_prob_vector, conjugate_order
from .linalg import check_density

# Probabilities below this are treated as zero in the factor maxima.
P_ZERO_TOL = 1e-12

# Points of phi_min_verify's edge sweep evaluated at once: its memory stays
# O(EDGE_BLOCK) however many points it visits.
EDGE_BLOCK = 1 << 15


@dataclass(frozen=True)
class Povm:
    """Set of Hermitian PSD operators summing to the identity.

    The elements are held as one (n, dim, dim) array, which indexes and
    iterates like a tuple of matrices.  `roots` is an (n, dim, r) stack of
    root factors, F_i F_i† = M_i, made when the POVM is built: from one
    eigendecomposition of the validated elements, or, for
    random_projective_povm and povm_from_unraveling, from the factors they
    already hold.  Built by _factored, a Povm may hold a stack of equal-shaped
    POVMs, leading axes before n, as the kernels take them (see the module).
    """

    elements: np.ndarray
    roots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = linalg.check_hermitian(linalg.as_matrix_stack(self.elements, "POVM elements"), name="POVM element")
        self._hold(elems, _root_factors(*linalg.psd_spectrum(elems, "POVM element", vectors=True)))

    @classmethod
    def _factored(cls, products: np.ndarray, roots: np.ndarray) -> Povm:
        """POVM with elements hermitianize(products), where products[i] = F_i F_i†
        for roots[i] = F_i.  Such elements are Hermitian and PSD by construction,
        so only completeness is checked, and nothing is decomposed."""
        povm = object.__new__(cls)
        povm._hold(linalg.hermitianize(np.ascontiguousarray(products)), np.ascontiguousarray(roots))
        return povm

    def _hold(self, elems: np.ndarray, roots: np.ndarray) -> None:
        linalg.check_identity(elems.sum(axis=-3), "POVM completeness violated: ||sum M - I||_F")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "roots", roots)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    @property
    def n_outcomes(self) -> int:
        return self.elements.shape[-3]


@dataclass(frozen=True)
class BoundReport:
    """One evaluated uncertainty inequality: lhs >= rhs up to slack tolerance.

    Floats for one instance; for stacked distributions lhs and slack are arrays,
    one entry per distribution, and so are rhs and factor when each has its own.
    """

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    slack: float | np.ndarray
    factor: float | np.ndarray
    orders: ConjugateOrders


def bound_report(
    p, q, orders: ConjugateOrders, kind: str, factor: float | np.ndarray, rhs: float | np.ndarray
) -> BoundReport:
    """Report H_a(p) + H_b(q) >= rhs for entropies of the given kind.

    alpha is bound to p and beta to q.  The entropies are exact at every
    order, the Shannon case alpha = beta = 1 included.
    """
    return _bound_report(as_prob_vector(p), as_prob_vector(q), orders, kind, factor, rhs)


def _bound_report(p: np.ndarray, q: np.ndarray, orders: ConjugateOrders, kind: str, factor, rhs) -> BoundReport:
    """bound_report of distributions already through as_prob_vector."""
    lhs = _entropy(p, orders.alpha, kind) + _entropy(q, orders.beta, kind)
    return BoundReport(lhs=lhs, rhs=rhs, slack=lhs - rhs, factor=factor, orders=orders)


def _same_dim(x: int, y: int) -> int:
    if x != y:
        raise ValueError(f"dimension mismatch: {x} vs {y}")
    return x


def _outcome_weights(m: Povm, rho: np.ndarray) -> np.ndarray:
    """tr(M_i rho) = sum_ab conj(rho_ab) (M_i)_ab, rho Hermitian; (..., n), not yet
    checked as distributions."""
    return np.vecdot(_flat(rho)[..., None, :], _flat(m.elements)).real


def povm_probabilities(m: Povm, rho) -> np.ndarray:
    """p_i = tr(M_i rho)."""
    return as_prob_vector(_outcome_weights(m, check_density(rho, m.dim)))


def povm_from_unraveling(a: Unraveling) -> Povm:
    """Measurement with elements M_i = A_i† A_i and root factors A_i†."""
    k_dag = a.kraus_ops.conj().swapaxes(-1, -2)
    return Povm._factored(k_dag @ a.kraus_ops, k_dag)


def _max_ratio(p: np.ndarray, q: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """max |o_kij| / sqrt(p_ki q_kj) over k and the pairs with p_ki, q_kj > P_ZERO_TOL.

    p is (..., K, n_m), q is (..., K, n_n) and overlaps is (..., K, n_m, n_n),
    one slice per vector k.
    """
    ok = (p[..., :, None] > P_ZERO_TOL) & (q[..., None, :] > P_ZERO_TOL)
    if not ok.any(axis=(-3, -2, -1)).all():
        raise ValueError("degenerate input: no outcome pair with nonzero probabilities")
    ratio = np.abs(overlaps)
    # a weight of an outcome with no probability may round below 0; its pairs do not count
    np.divide(ratio, np.sqrt(np.maximum(p[..., :, None] * q[..., None, :], 0.0)), out=ratio, where=ok)
    return ratio.max(axis=(-3, -2, -1), where=ok, initial=0.0)


def _rank_one(m: Povm, n: Povm) -> bool:
    """Whether both POVMs hold one root column per element, M_i = u_i u_i† and N_j = w_j w_j†."""
    return m.roots.shape[-1] == n.roots.shape[-1] == 1


def _g(m: Povm, n: Povm, rho: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """g at the outcome weights p and q, as g_factor.  Two rank-one POVMs take
    tr(M_i N_j rho) = (u_i† w_j) conj(u_i† rho w_j) from their root vectors,
    O(n^2 d + n d^2); any other pair takes sum_ab conj(M_i)_ab (N_j rho)_ab
    from the elements, O(n d^3 + n^2 d^2).  For n = d outcomes: d^3 against d^4."""
    if _rank_one(m, n):
        u_dag, w = m.roots[..., 0].conj(), n.roots[..., 0].swapaxes(-1, -2)  # rows u_i†, columns w_j
        overlaps = (u_dag @ w) * (u_dag @ rho @ w).conj()
    else:
        overlaps = _flat(m.elements).conj() @ _flat(n.elements @ rho[..., None, :, :]).swapaxes(-1, -2)
    return _max_ratio(p[..., None, :], q[..., None, :], overlaps[..., None, :, :])


def g_factor(m: Povm, n: Povm, rho) -> float:
    """max |tr(M_i N_j rho)| / sqrt(p_i q_j) over outcomes with nonzero probability."""
    return _reports(m, n, check_density(rho, _same_dim(m.dim, n.dim)), (), "g", ())[0]


def _f(m: Povm, n: Povm, rho: np.ndarray) -> np.ndarray:
    """f, as f_factor, over the eigenvectors psi_k of rho.  Two rank-one POVMs
    take <M_i psi, N_j psi> = conj(u_i† psi) (u_i† w_j) (w_j† psi) and
    <psi|M_i|psi> = |u_i† psi|^2 from their root vectors, O(n d^2 + n^2 d);
    any other pair applies the elements to every eigenvector, O(n d^3 +
    n^2 d^2).  For n = d outcomes: d^3 against d^4."""
    w, v = np.linalg.eigh(rho)
    kept = w > P_ZERO_TOL  # (..., K): eigenvectors psi_k = v[..., :, k] of nonzero weight
    if _rank_one(m, n):
        u_dag, w_dag = m.roots[..., 0].conj(), n.roots[..., 0].conj()  # rows u_i†, w_j†
        a, b = (u_dag @ v).swapaxes(-1, -2), (w_dag @ v).swapaxes(-1, -2)  # (..., K, n): u_i† psi_k, w_j† psi_k
        cross = u_dag @ n.roots[..., 0].swapaxes(-1, -2)  # u_i† w_j
        p, q = np.abs(a) ** 2, np.abs(b) ** 2
        overlaps = a.conj()[..., :, None] * cross[..., None, :, :] * b[..., None, :]
    else:
        psi = v.swapaxes(-1, -2)[..., None, :]  # (..., K, 1, dim)
        # a[..., k, i, :] = M_i psi_k and b[..., k, j, :] = N_j psi_k, for every eigenvector at once
        a = np.moveaxis(m.elements @ v[..., None, :, :], -1, -3)
        b = np.moveaxis(n.elements @ v[..., None, :, :], -1, -3)
        p, q = np.vecdot(psi, a).real, np.vecdot(psi, b).real
        overlaps = a.conj() @ b.swapaxes(-1, -2)
    # <psi_k|M_i|psi_k>, zero for the eigenvectors left out, so no pair of theirs counts
    p, q = (np.where(kept[..., None], x, 0.0) for x in (p, q))
    return _max_ratio(p, q, overlaps)


def f_factor(m: Povm, n: Povm, rho) -> float:
    """Overlap maximum over the eigenvectors of rho.

    For eigenvector psi: |<M_i psi, N_j psi>| / sqrt(<psi|M_i|psi> <psi|N_j|psi>),
    maximized over eigenvectors with nonzero weight and admissible (i, j).
    Coincides with g on pure states and dominates it otherwise.
    """
    return float(_f(m, n, check_density(rho, _same_dim(m.dim, n.dim))))


def _root_factors(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """C-ordered stack (n, dim, r) of F_i = E_i S_i with F_i F_i† = M_i, from the
    eigendecomposition (w, v) of the elements: the eigenvectors E_i of eigenvalue
    above P_ZERO_TOL scaled by the roots S_i.  r is the largest such rank in the
    stack; columns of dropped eigenvalues are zero."""
    d, r = w.shape[-1], int((w > P_ZERO_TOL).sum(axis=-1).max())
    # eigh sorts ascending, so the kept eigenvalues are the last r of each row
    w, v = w[..., d - r :], v[..., d - r :]
    v *= np.sqrt(np.where(w > P_ZERO_TOL, w, 0.0))[..., None, :]
    return np.ascontiguousarray(v)


def _f_bar(m: Povm, n: Povm) -> np.ndarray:
    # one batched SVD per outcome of m covers every outcome of n and every stacked pair
    best = None
    for fi in np.moveaxis(m.roots, -3, 0):  # (..., dim, r_m)
        products = fi.conj().swapaxes(-1, -2)[..., None, :, :] @ n.roots  # (..., n_n, r_m, r_n)
        top = np.linalg.svd(products, compute_uv=False)[..., 0].max(axis=-1)
        best = top if best is None else np.maximum(best, top)
    return best


def f_bar(m: Povm, n: Povm) -> float:
    """State-independent overlap: max spectral norm of M_i^(1/2) N_j^(1/2).

    Any root factor F_i of M_i (F_i F_i† = M_i) is M_i^(1/2) W_i with W_i a
    partial isometry, so the norm equals ||F_i† G_j|| for the POVMs' held roots,
    the top singular value of an r_m x r_n matrix.  One batched SVD per outcome
    of m covers every outcome of n, in O(n r^2) memory.
    """
    _same_dim(m.dim, n.dim)
    return float(_f_bar(m, n))


def _reports(
    m: Povm, n: Povm, rho: np.ndarray, orders_seq, factor_kind: str, kinds
) -> tuple[float | np.ndarray, list[BoundReport]]:
    """(factor, reports) at validated states: p, q and the factor are computed
    once, then one report per order of orders_seq and kind of kinds, orders
    outer.  The reports validate p and q once, for every order and kind.  For
    one POVM pair and one state the factor and every field are floats."""
    p, q = _outcome_weights(m, rho), _outcome_weights(n, rho)
    if factor_kind == "g":
        factor = _g(m, n, rho, p, q)
    elif factor_kind == "f":
        factor = _f(m, n, rho)
    elif factor_kind == "fbar":
        factor = _f_bar(m, n)
    else:
        raise ValueError(f"unknown factor kind {factor_kind!r}")
    factor = _value(factor)

    def rhs(orders: ConjugateOrders, kind: str):
        if kind == "tsallis":
            # math's alpha_log per factor, not numpy's log and power, whose last bits differ
            values = [alpha_log(f**-2, orders.mu) for f in np.ravel(factor).tolist()]
            return _value(np.reshape(values, np.shape(factor)))
        return _value(-2.0 * np.log(factor))

    pairs = [(o, k) for o in orders_seq for k in kinds]
    if pairs:  # g_factor asks for no report, so it checks no distribution
        p, q = as_prob_vector(p), as_prob_vector(q)
    return factor, [_bound_report(p, q, o, k, factor, rhs(o, k)) for o, k in pairs]


def _value(x):
    """A float for one instance, as the entropies give one; a stack's array as it is."""
    return float(x) if np.ndim(x) == 0 else x


def tsallis_uncertainty_check(
    m: Povm, n: Povm, rho, orders: ConjugateOrders, factor_kind: str = "g"
) -> BoundReport:
    """Evaluate H_a(M|rho) + H_b(N|rho) against ln_mu(factor^-2).

    alpha is bound to the first POVM and beta to the second; every order is
    evaluated exactly, mu = 1 (Shannon) included.  rho is validated once and
    the outcome probabilities are computed once.
    """
    rho = check_density(rho, _same_dim(m.dim, n.dim))
    _, (report,) = _reports(m, n, rho, [orders], factor_kind, ("tsallis",))
    return report


def renyi_uncertainty_check(
    m: Povm, n: Povm, rho, orders: ConjugateOrders, factor_kind: str = "g"
) -> BoundReport:
    """Evaluate R_a(M|rho) + R_b(N|rho) against -2 ln(factor), as tsallis_uncertainty_check."""
    rho = check_density(rho, _same_dim(m.dim, n.dim))
    _, (report,) = _reports(m, n, rho, [orders], factor_kind, ("renyi",))
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
        conjugate_order(self.alpha)  # the conjugate order must not round to 0

    @property
    def beta(self) -> float:
        return conjugate_order(self.alpha).beta

    @property
    def xi0(self) -> float:
        return self.gamma ** (-self.alpha / self.beta)

    def phi(self, xi, zeta):
        # near the largest float a term overflows to +inf, which never wins the minimum
        with np.errstate(over="ignore"):
            return (np.asarray(xi) - 1.0) / (1.0 - self.alpha) + (np.asarray(zeta) - 1.0) / (1.0 - self.beta)


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
    zeta = max(1, gamma * xi^(beta/alpha)), where the minimum lives.  The
    sweep runs in blocks of EDGE_BLOCK points.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    gamma, alpha, beta = problem.gamma, problem.alpha, problem.beta
    analytic = (problem.xi0 - 1.0) / (1.0 - alpha)
    grid_min = _feasible_grid_min(problem, grid_points)

    # The edge points are np.linspace(0, 1, n_edge), made EDGE_BLOCK at a time
    # in the same arithmetic (index times step, the last point pinned to 1).
    n_edge = min(grid_points * grid_points, 4_000_001)
    step = 1.0 / (n_edge - 1)
    edge_min = np.inf
    for lo in range(0, n_edge, EDGE_BLOCK):
        xi = np.arange(lo, min(lo + EDGE_BLOCK, n_edge)) * step
        if lo + EDGE_BLOCK >= n_edge:
            xi[-1] = 1.0
        zeta = np.maximum(1.0, gamma * xi ** (beta / alpha))
        edge_min = min(edge_min, float(problem.phi(xi, zeta).min()))

    return analytic, min(grid_min, edge_min)


def _projective(u: np.ndarray) -> Povm:
    """Rank-1 orthogonal projectors onto the columns of each unitary of a
    (..., dim, dim) stack, the basis vectors their root factors: one POVM per unitary."""
    rows = u.swapaxes(-1, -2)
    return Povm._factored(rows[..., :, None] * rows.conj()[..., None, :], rows[..., None])


def random_projective_povm(dim: int, seed: int) -> Povm:
    """Rank-1 orthogonal projectors onto a Haar-random basis, the basis vectors
    their root factors."""
    return _projective(linalg.haar_random_unitary(dim, seed))


def random_povm(dim: int, n_outcomes: int, seed: int) -> Povm:
    """General POVM: Wishart pieces whitened by the inverse root of their sum."""
    if n_outcomes < 1:
        raise ValueError("n_outcomes must be >= 1")
    rng = np.random.default_rng(seed)
    g = np.stack([linalg.ginibre(rng, dim, dim) for _ in range(n_outcomes)])
    pieces = g @ g.conj().swapaxes(-1, -2)
    w, v = np.linalg.eigh(sum(pieces))  # in order: numpy's sum pairs the terms at dim = 1
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return Povm(linalg.hermitianize(inv_root @ pieces @ inv_root))
