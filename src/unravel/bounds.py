"""Uncertainty bounds for pairs of generalized resolutions of the identity.

The overlap factors g (state-dependent), f (spectral-decomposition form) and
f_bar (state-independent) obey g <= f <= f_bar <= 1 and set the lower bounds

    H_a(M|rho) + H_b(N|rho) >= ln_mu(factor^-2)      (Tsallis)
    R_a(M|rho) + R_b(N|rho) >= -2 ln(factor)          (Renyi)

for conjugate orders 1/a + 1/b = 2, mu = max(a, b).  f_bar is computed in
root-factor form: with F_i F_i† = M_i and G_j G_j† = N_j,
||M_i^(1/2) N_j^(1/2)|| = ||F_i† G_j||, a matrix only as large as the elements'
ranks.  A Povm holds the root factors of its elements, made once when it is
built.  Povm(elements) takes them from one eigendecomposition of the stack
(kept eigenvectors scaled by root eigenvalues) and keeps the elements too;
random_projective_povm (the basis vectors) and povm_from_unraveling (A_i†)
pass the factors they hold, decompose nothing, and make the elements F_i F_i†
only when one is read.  The adjoints A_i = F_i† are a Kraus set with
A_i† A_i = M_i, so the channels kernels check a factored POVM's completeness
and give every POVM's outcome weights p_i = tr(A_i rho A_i†).

The kernels (_g, _f, _f_bar, _factor, _reports) take POVMs held through roots
(..., n, dim, r) and validated states (..., dim, dim) with any leading axes,
one value per index of those axes; the public functions call them on one POVM
pair and one state, and return floats.  The form of each factor follows the
roots' rank.  When both POVMs are rank one (r = 1: M_i = u_i u_i† and
N_j = w_j w_j†, as for the basis projectors of random_projective_povm) every
overlap comes from inner products of the root vectors, O(d^3) in all for d
outcomes, and reads no element: g from (u_i† w_j) conj(u_i† rho w_j); f and
f_bar from the one array |u_i† w_j|, since for rank-one elements each of f's
ratios and each of f_bar's norms is |u_i† w_j| exactly (see _f), so
f <= f_bar holds exactly.  Every other pair of ranks takes the element form,
O(d^4), g through the pair traces of the channels Gram kernel, and f_bar its
per-outcome SVDs.  The forms agree to rounding.

The paired reports measure the Gram-extremal unravelings of two Kraus sets.
Remixing by a unitary U gives the distribution diag(U† Pi U), which the Gram
spectrum majorizes (Schur); Tsallis and Renyi entropies of positive order are
Schur-concave (Marshall & Olkin, Inequalities: Theory of Majorization, ch. 3 A
and 9 B), so that unraveling minimizes both at every order, exactly.
phi_min_verify checks the Tsallis bound's minimization on the edge of the feasible
set, over every float xi of it: phi does not rise while zeta = 1, then is concave,
so three floats, the last flat one (found by bisection over the floats' bit
patterns), the next and xi = 1, hold the minimum.
"""

from __future__ import annotations

import bisect
import functools
from typing import NamedTuple

import numpy as np

from . import linalg
from .channels import Unraveling, _check_complete, _extremal, _pair_traces, _weights
from .entropy import ConjugateOrders, _entropy, _normalized, alpha_log, conjugate_order
from .linalg import check_density

# Probabilities below this are treated as zero in the factor maxima.
P_ZERO_TOL = 1e-12
# the bit pattern of 1.0: non-negative floats order like their bit patterns read as integers
_ONE_BITS = int(np.float64(1.0).view(np.int64))
# the error of both completeness checks of a Povm, on its elements or on its roots
_INCOMPLETE = "POVM completeness violated: ||sum M - I||_F"


class Povm:
    """Set of Hermitian PSD operators summing to the identity.

    `roots` is an (n, dim, r) stack of root factors, F_i F_i† = M_i, made
    when the POVM is built: from one eigendecomposition of the validated
    elements, or, for random_projective_povm and povm_from_unraveling, from
    the factors they already hold.  The roots' adjoints A_i = F_i† are a Kraus
    set with A_i† A_i = M_i, which the channels kernels measure.  `elements`
    is the (n, dim, dim) element stack, which indexes and iterates like a
    tuple of matrices.  A POVM built from its roots alone (_factored) makes
    hermitianize(F_i F_i†) on first read, and the rank-one kernels read only
    the roots.  Built by _factored, a Povm may hold a stack of equal-shaped
    POVMs, leading axes before n, as the kernels take them (see the module).
    """

    def __init__(self, elements):
        elems = linalg.check_entries(linalg.as_matrix_stack(elements, "POVM elements"), "POVM element")
        elems = linalg.check_hermitian(elems, name="POVM element")
        roots = _root_factors(*linalg.psd_spectrum(elems, "POVM element", vectors=True))
        linalg.check_identity(elems.sum(axis=-3), _INCOMPLETE)
        self.roots, self.elements = roots, elems

    @classmethod
    def _factored(cls, roots: np.ndarray) -> Povm:
        """POVM with root factors roots[i] = F_i, of any rank, and elements
        M_i = F_i F_i†, Hermitian and PSD by construction: only completeness is
        checked, on the Kraus set F_i†, and nothing is decomposed."""
        povm = cls.__new__(cls)
        povm.roots = np.ascontiguousarray(roots)
        _check_complete(povm._kraus, _INCOMPLETE)
        return povm

    @functools.cached_property
    def elements(self) -> np.ndarray:
        return linalg.hermitianize(self.roots @ self._kraus)

    @property
    def _kraus(self) -> np.ndarray:
        """The Kraus set A_i = F_i†, (..., n, r, dim), with A_i† A_i = M_i."""
        return self.roots.conj().swapaxes(-1, -2)

    @property
    def dim(self) -> int:
        return self.roots.shape[-2]


class BoundReport(NamedTuple):
    """One evaluated uncertainty inequality: lhs >= rhs up to slack tolerance.

    Floats for one instance; for stacked distributions lhs and slack are arrays,
    one entry per distribution, and so are rhs and factor when each has its own.
    At a sequence of orders (_reports) lhs, rhs and slack lead with an order
    axis, and orders is the sequence.
    """

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    slack: float | np.ndarray
    factor: float | np.ndarray
    orders: ConjugateOrders


def _bound_report(p: np.ndarray, q: np.ndarray, orders: ConjugateOrders, kind: str, factor, rhs) -> BoundReport:
    """Report H_a(p) + H_b(q) >= rhs for entropies of the given kind, of distributions
    already normalized (through as_prob_vector or _normalized).  alpha is bound to p
    and beta to q; the entropies are exact at every order, Shannon included."""
    lhs = _entropy(p, orders.alpha, kind) + _entropy(q, orders.beta, kind)
    return BoundReport(lhs=lhs, rhs=rhs, slack=lhs - rhs, factor=factor, orders=orders)


def _same_dim(x: int, y: int) -> int:
    if x != y:
        raise ValueError(f"dimension mismatch: {x} vs {y}")
    return x


def povm_probabilities(m: Povm, rho) -> np.ndarray:
    """p_i = tr(M_i rho)."""
    return _normalized(_weights(m._kraus, check_density(rho, m.dim)))


def povm_from_unraveling(a: Unraveling) -> Povm:
    """Measurement with elements M_i = A_i† A_i and root factors A_i†."""
    return Povm._factored(a.kraus_ops.conj().swapaxes(-1, -2))


def _max_ratio(p: np.ndarray, q: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """max |o_kij| / sqrt(p_ki q_kj) over k and the pairs with p_ki, q_kj > P_ZERO_TOL.

    p is (..., K, n_m), q is (..., K, n_n) and overlaps is (..., K, n_m, n_n),
    one slice per vector k.
    """
    ok = (p[..., :, None] > P_ZERO_TOL) & (q[..., None, :] > P_ZERO_TOL)
    ratio = np.abs(overlaps)
    # a weight of an outcome with no probability may round below 0; its pairs do not count
    np.divide(ratio, np.sqrt(np.maximum(p[..., :, None] * q[..., None, :], 0.0)), out=ratio, where=ok)
    return _admissible_max(ratio, ok)


def _admissible_max(x: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """max of x over its last three axes where ok; an instance with no such entry is degenerate."""
    if not ok.any(axis=(-3, -2, -1)).all():
        raise ValueError("degenerate input: no outcome pair with nonzero probabilities")
    return x.max(axis=(-3, -2, -1), where=ok, initial=0.0)


def _rank_one(m: Povm, n: Povm) -> bool:
    """Whether both POVMs hold one root column per element, M_i = u_i u_i† and N_j = w_j w_j†."""
    return m.roots.shape[-1] == n.roots.shape[-1] == 1


def _cross(m: Povm, n: Povm) -> np.ndarray:
    """u_i† w_j, (..., n_m, n_n), for two POVMs of rank-one roots: the one array
    that g, f and f_bar all read their overlaps from."""
    return m.roots[..., 0].conj() @ n.roots[..., 0].swapaxes(-1, -2)


def _g(m: Povm, n: Povm, rho: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """g at the outcome weights p and q, as g_factor.  Two rank-one POVMs take
    tr(M_i N_j rho) = (u_i† w_j) conj(u_i† rho w_j) from their root vectors,
    O(n^2 d + n d^2); any other pair takes sum_ab conj(M_i)_ab (N_j rho)_ab
    from the elements, O(n d^3 + n^2 d^2).  For n = d outcomes: d^3 against d^4."""
    if _rank_one(m, n):
        u_dag, w = m.roots[..., 0].conj(), n.roots[..., 0].swapaxes(-1, -2)  # rows u_i†, columns w_j
        overlaps = _cross(m, n) * (u_dag @ rho @ w).conj()
    else:
        overlaps = _pair_traces(m.elements, n.elements, rho)
    return _max_ratio(p[..., None, :], q[..., None, :], overlaps[..., None, :, :])


def _state(m: Povm, n: Povm, rho, factor_kind: str) -> tuple:
    """density_spectrum of one state for a POVM pair, with the eigenvectors that the f factor reads."""
    return linalg.density_spectrum(linalg.check_one_matrix(rho, "rho"), _same_dim(m.dim, n.dim), vectors=factor_kind == "f")


def g_factor(m: Povm, n: Povm, rho) -> float:
    """max |tr(M_i N_j rho)| / sqrt(p_i q_j) over outcomes with nonzero probability."""
    return _reports(m, n, _state(m, n, rho, "g"), (), "g", ())[0]


def _f(m: Povm, n: Povm, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """f, as f_factor, over the eigenvectors psi_k = v[..., :, k] of rho, with
    (w, v) from density_spectrum.  For two rank-one POVMs,
    <M_i psi, N_j psi> = conj(u_i† psi) (u_i† w_j) (w_j† psi) and
    <psi|M_i|psi> = |u_i† psi|^2, so each ratio is |u_i† w_j| exactly, whatever
    psi: f is the largest |u_i† w_j| over the admissible pairs, those with
    |u_i† psi_k|^2 and |w_j† psi_k|^2 above P_ZERO_TOL for one kept psi_k.
    That is O(n d^2 + n^2 d), and it reads the same |U†W| array as f_bar, so
    f <= f_bar holds exactly.  Any other pair applies the elements to every
    eigenvector, O(n d^3 + n^2 d^2)."""
    kept = w > P_ZERO_TOL  # (..., K): eigenvectors of nonzero weight
    if _rank_one(m, n):
        # seen[..., i, k]: outcome i has weight |u_i† psi_k|^2 above P_ZERO_TOL on a kept psi_k
        seen_m, seen_n = (
            (np.abs(x.roots[..., 0].conj() @ v) ** 2 > P_ZERO_TOL) & kept[..., None, :] for x in (m, n)
        )
        pairs = seen_m @ seen_n.swapaxes(-1, -2)  # boolean product: one shared psi_k admits (i, j)
        return _admissible_max(np.abs(_cross(m, n))[..., None, :, :], pairs[..., None, :, :])
    psi = v.swapaxes(-1, -2)[..., None, :]  # (..., K, 1, dim)
    # a[..., k, i, :] = M_i psi_k and b[..., k, j, :] = N_j psi_k, for every eigenvector at once
    a = np.moveaxis(m.elements @ v[..., None, :, :], -1, -3)
    b = np.moveaxis(n.elements @ v[..., None, :, :], -1, -3)
    # <psi_k|M_i|psi_k>, zero for the eigenvectors left out, so no pair of theirs counts
    p, q = (np.where(kept[..., None], np.vecdot(psi, x).real, 0.0) for x in (a, b))
    return _max_ratio(p, q, a.conj() @ b.swapaxes(-1, -2))


def f_factor(m: Povm, n: Povm, rho) -> float:
    """Overlap maximum over the eigenvectors of rho.

    For eigenvector psi: |<M_i psi, N_j psi>| / sqrt(<psi|M_i|psi> <psi|N_j|psi>),
    maximized over eigenvectors with nonzero weight and admissible (i, j).
    Coincides with g on pure states and dominates it otherwise.
    """
    return float(_f(m, n, *_state(m, n, rho, "f")[1:]))


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
    """f_bar, as the public function: max |u_i† w_j| for two rank-one POVMs,
    one batched SVD per outcome of m for any other pair."""
    if _rank_one(m, n):
        # ||u_i u_i† w_j w_j†|| = |u_i† w_j|: one matrix product, no SVD
        return np.abs(_cross(m, n)).max(axis=(-2, -1))
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
    the top singular value of an r_m x r_n matrix.  For two rank-one POVMs that
    matrix is the number u_i† w_j, and f_bar is the Maassen-Uffink overlap
    max |u_i† w_j| (PRL 60, 1103, 1988), from one matrix product.  Any other
    pair takes one batched SVD per outcome of m, covering every outcome of n,
    in O(n r^2) memory.
    """
    _same_dim(m.dim, n.dim)
    return float(_f_bar(m, n))


def _factor(m: Povm, n: Povm, states: tuple, factor_kind: str) -> tuple:
    """(p, q, factor) at validated states, (rho, w, v) from density_spectrum or
    (rho,) for kinds other than f: the outcome weights p of m and q of n, each
    normalized once, after the factor has read them.  The factor step of _reports."""
    rho = states[0]
    p, q = _weights(m._kraus, rho), _weights(n._kraus, rho)
    if factor_kind == "g":
        factor = _g(m, n, rho, p, q)
    elif factor_kind == "f":
        factor = _f(m, n, *states[1:])
    elif factor_kind == "fbar":
        factor = _f_bar(m, n)
    else:
        raise ValueError(f"unknown factor kind {factor_kind!r}")
    return _normalized(p), _normalized(q), _value(factor)


def _relations(p: np.ndarray, q: np.ndarray, factor, orders, kinds) -> list[BoundReport]:
    """One report per kind of kinds at normalized weights p and q and their factor
    (_factor): its lhs from one entropy call per POVM and its rhs from one call, at
    one ConjugateOrders or at a sequence of them (BoundReport).  The report step of
    _reports."""
    one = isinstance(orders, ConjugateOrders)
    alphas, betas, mus = (getattr(orders, k) if one else [getattr(o, k) for o in orders] for k in ("alpha", "beta", "mu"))
    reports = []
    for kind in kinds:
        lhs = _entropy(p, alphas, kind) + _entropy(q, betas, kind)
        if kind == "tsallis":
            rhs = alpha_log(np.power(factor, -2.0), mus)
        else:  # the same at every order
            rhs = _value(-2.0 * np.log(factor)) if one else np.full(lhs.shape, -2.0 * np.log(factor))
        reports.append(BoundReport(lhs=lhs, rhs=rhs, slack=lhs - rhs, factor=factor, orders=orders))
    return reports


def _reports(
    m: Povm, n: Povm, states: tuple, orders, factor_kind: str, kinds
) -> tuple[float | np.ndarray, list[BoundReport]]:
    """(factor, reports) at validated states, as _factor takes them: the factor step
    (p, q and the factor, computed once), then the report step (_relations).  One
    POVM pair and one state give floats."""
    p, q, factor = _factor(m, n, states, factor_kind)
    return factor, _relations(p, q, factor, orders, kinds)


def _value(x):
    """A float for one instance, as the entropies give one; a stack's array as it is."""
    return float(x) if np.ndim(x) == 0 else x


def tsallis_uncertainty_check(
    m: Povm, n: Povm, rho, orders: ConjugateOrders, factor_kind: str = "g"
) -> BoundReport:
    """Evaluate H_a(M|rho) + H_b(N|rho) against ln_mu(factor^-2).

    alpha is bound to the first POVM and beta to the second; every order is
    evaluated exactly, mu = 1 (Shannon) included.  rho is decomposed once.
    """
    _, (report,) = _reports(m, n, _state(m, n, rho, factor_kind), orders, factor_kind, ("tsallis",))
    return report


def renyi_uncertainty_check(
    m: Povm, n: Povm, rho, orders: ConjugateOrders, factor_kind: str = "g"
) -> BoundReport:
    """Evaluate R_a(M|rho) + R_b(N|rho) against -2 ln(factor), as tsallis_uncertainty_check."""
    _, (report,) = _reports(m, n, _state(m, n, rho, factor_kind), orders, factor_kind, ("renyi",))
    return report


class SearchConfig:
    """Settings of the former numerical Renyi search, still accepted by
    extremal_pair_renyi.

    Every field is validated, and none changes the result, which is exact.
    """

    def __init__(self, alpha: float, restarts: int = 10, iterations: int = 300, seed: int = 0):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if restarts < 1 or iterations < 1:
            raise ValueError("restarts and iterations must be >= 1")
        self.alpha, self.restarts, self.iterations, self.seed = alpha, restarts, iterations, seed


def _extremal_pair(a: Unraveling, b: Unraveling, rho, orders: ConjugateOrders, kind: str) -> BoundReport:
    rho = check_density(rho, _same_dim(a.dim_in, b.dim_in))
    m, n = (povm_from_unraveling(_extremal(x, rho).extremal) for x in (a, b))
    _, (report,) = _reports(m, n, (rho,), orders, "g", (kind,))
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


class PhiProblem:
    """Constrained minimization instance for phi(xi, zeta).

    phi(xi, zeta) = (xi - 1)/(1 - alpha) + (zeta - 1)/(1 - beta) over the
    domain 0 <= xi <= 1, zeta >= 1, zeta >= gamma * xi^(beta/alpha), where
    gamma = factor^(-2(1-beta)) >= 1 and (alpha, beta) are conjugate with
    alpha > 1.  The minimum sits at (xi0, 1), xi0 = gamma^(-alpha/beta).
    """

    def __init__(self, gamma: float, alpha: float):
        if not 1 <= gamma < np.inf:
            raise ValueError(f"gamma must be finite and >= 1, got {gamma}")
        if not 1 < alpha < np.inf:
            raise ValueError(f"alpha must be finite and > 1, got {alpha}")
        self.gamma, self.alpha = gamma, alpha
        self.beta = conjugate_order(alpha).beta  # raises where beta rounds to 0

    @property
    def xi0(self) -> float:
        return self.gamma ** (-self.alpha / self.beta)

    def phi(self, xi, zeta):
        # near the largest float a term overflows to +inf, which never wins the minimum
        with np.errstate(over="ignore"):
            return (np.asarray(xi) - 1.0) / (1.0 - self.alpha) + (np.asarray(zeta) - 1.0) / (1.0 - self.beta)


def phi_min_verify(problem: PhiProblem) -> tuple[float, float]:
    """Return (analytic_min, numeric_min) for a PhiProblem.

    numeric_min is the minimum over every float xi in [0, 1] of phi on the edge
    zeta = max(1, gamma * xi^(beta/alpha)); phi increases in zeta, so no feasible
    point lies below the edge.  There phi does not rise while zeta = 1, in
    floating point too, and is concave after (linear plus a positive multiple of
    xi^(beta/alpha), 0 < beta/alpha < 1), so least at the last flat float, the
    next or xi = 1.  Bisection over the bit patterns of the floats in (0, 1]
    finds the last flat one in 62 steps.  Where phi rises from one float to the
    next by less than zeta's rounding, a later float may be lower, by up to
    spacing(zeta) / (1 - beta).
    """
    gamma, c = problem.gamma, problem.beta / problem.alpha

    def floats(bits) -> np.ndarray:
        return np.asarray(bits, dtype=np.int64).view(np.float64)

    # xi = 0 (pattern 0) is flat, so the count of flat patterns in 1.._ONE_BITS is the last flat one's;
    # each test is on an array, as for the candidates, since numpy's array pow may differ from its scalar pow
    last = bisect.bisect_left(range(1, _ONE_BITS + 1), True, key=lambda i: (gamma * floats([i]) ** c)[0] > 1.0)
    xi = floats([last, min(last + 1, _ONE_BITS), _ONE_BITS])
    edge_min = float(problem.phi(xi, np.maximum(1.0, gamma * xi**c)).min())
    return (problem.xi0 - 1.0) / (1.0 - problem.alpha), edge_min


def _projective(u: np.ndarray) -> Povm:
    """Rank-1 orthogonal projectors onto the columns of each unitary of a
    (..., dim, dim) stack, held through the basis vectors, their root factors,
    alone: one POVM per unitary."""
    return Povm._factored(u.swapaxes(-1, -2)[..., None])


def _projective_pair(z: np.ndarray) -> tuple[Povm, Povm]:
    """_projective(linalg.positive_qr(z[i])) for i = 0, 1 (QR acts per matrix), from one QR and one check."""
    m, n = Povm.__new__(Povm), Povm.__new__(Povm)
    m.roots, n.roots = _projective(linalg.positive_qr(z)).roots
    return m, n


def random_projective_povm(dim: int, seed: int) -> Povm:
    """Rank-1 orthogonal projectors onto a Haar-random basis, the basis vectors
    their root factors."""
    return _projective(linalg.haar_random_unitary(dim, seed))


def random_povm(dim: int, n_outcomes: int, seed: int) -> Povm:
    """General POVM: Wishart pieces whitened by the inverse root of their sum."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if n_outcomes < 1:
        raise ValueError("n_outcomes must be >= 1")
    g = linalg.ginibre_draws(np.random.default_rng(seed), n_outcomes, dim, dim)
    pieces = g @ g.conj().swapaxes(-1, -2)
    w, v = np.linalg.eigh(sum(pieces))  # in order: numpy's sum pairs the terms at dim = 1
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return Povm(linalg.hermitianize(inv_root @ pieces @ inv_root))
