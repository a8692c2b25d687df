"""Independent oracle for the benchmark's output checks.

Everything here is written from the definitions with plain numpy and explicit
loops; nothing is imported from `unravel`, so a fault in the program cannot
hide itself by appearing on both sides of a comparison.
"""

from __future__ import annotations

import math

import numpy as np

# The Shannon limit is taken when an order lies this close to 1.
SHANNON_EPS = 1e-8
# Probabilities (and eigenvalues of POVM elements) below this count as zero.
P_ZERO = 1e-12


def alpha_log(x: float, mu: float) -> float:
    """ln_mu(x) = (x^(1-mu) - 1)/(1 - mu), ln(x) at mu = 1."""
    if abs(mu - 1.0) < SHANNON_EPS:
        return math.log(x)
    return (x ** (1.0 - mu) - 1.0) / (1.0 - mu)


def conjugate(alpha: float) -> tuple[float, float]:
    """(beta, mu) with 1/alpha + 1/beta = 2 and mu = max(alpha, beta)."""
    beta = alpha / (2.0 * alpha - 1.0)
    return beta, max(alpha, beta)


def _positive(p) -> list[float]:
    return [float(x) for x in np.asarray(p, dtype=float).ravel() if x > 0.0]


def shannon(p) -> float:
    return -sum(x * math.log(x) for x in _positive(p))


def tsallis(p, alpha: float) -> float:
    """(sum p^a - 1)/(1 - a), Shannon at a = 1."""
    if abs(alpha - 1.0) < SHANNON_EPS:
        return shannon(p)
    return (sum(x**alpha for x in _positive(p)) - 1.0) / (1.0 - alpha)


def renyi(p, alpha: float) -> float:
    """ln(sum p^a)/(1 - a), Shannon at a = 1."""
    if abs(alpha - 1.0) < SHANNON_EPS:
        return shannon(p)
    return math.log(sum(x**alpha for x in _positive(p))) / (1.0 - alpha)


def entropy(p, alpha: float, kind: str) -> float:
    return tsallis(p, alpha) if kind == "tsallis" else renyi(p, alpha)


def spectrum(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending."""
    return np.linalg.eigvalsh(h)[::-1]


def quantum_tsallis(rho: np.ndarray, alpha: float) -> float:
    return tsallis(np.clip(spectrum(rho), 0.0, None), alpha)


def gram(kraus, rho: np.ndarray) -> np.ndarray:
    """Pi_ij = tr(A_i^dagger A_j rho) by explicit trace loops."""
    n = len(kraus)
    pi = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            pi[i, j] = np.trace(kraus[i].conj().T @ kraus[j] @ rho)
    return pi


def remixed_diagonals(pi: np.ndarray, unitaries) -> list[np.ndarray]:
    """diag(U^dagger Pi U) for each unitary U: the effect probabilities of a remixing."""
    return [np.real(np.diag(u.conj().T @ pi @ u)) for u in unitaries]


def probabilities(elements, rho: np.ndarray) -> np.ndarray:
    """p_i = tr(M_i rho)."""
    return np.array([np.trace(m @ rho).real for m in elements])


def g_factor(m_elems, n_elems, rho: np.ndarray) -> float:
    """max |tr(M_i N_j rho)|/sqrt(p_i q_j) by explicit loops over outcome pairs."""
    p = probabilities(m_elems, rho)
    q = probabilities(n_elems, rho)
    n_rho = [nj @ rho for nj in n_elems]
    best = -math.inf
    for i, mi in enumerate(m_elems):
        if p[i] <= P_ZERO:
            continue
        mi_t = mi.T
        for j, x in enumerate(n_rho):
            if q[j] <= P_ZERO:
                continue
            overlap = abs(np.sum(mi_t * x)) / math.sqrt(p[i] * q[j])
            best = max(best, overlap)
    return best


def f_factor(m_elems, n_elems, rho: np.ndarray) -> float:
    """max over eigenvectors psi of rho (nonzero weight) and admissible outcome pairs
    of |<M_i psi, N_j psi>| / sqrt(<psi|M_i|psi> <psi|N_j|psi>)."""
    w, v = np.linalg.eigh(rho)
    best = -math.inf
    for k in range(w.size):
        if w[k] <= P_ZERO:
            continue
        psi = v[:, k]
        a = np.array([mi @ psi for mi in m_elems])
        b = np.array([nj @ psi for nj in n_elems])
        p = (a @ psi.conj()).real
        q = (b @ psi.conj()).real
        ii = p > P_ZERO
        jj = q > P_ZERO
        if not ii.any() or not jj.any():
            continue
        overlaps = np.abs(a[ii].conj() @ b[jj].T) / np.sqrt(np.outer(p[ii], q[jj]))
        best = max(best, float(overlaps.max()))
    return best


def _root_factor(m: np.ndarray) -> np.ndarray:
    """L with L L^dagger = M and L^dagger L diagonal: the eigenvectors of M with
    nonzero eigenvalue, scaled by the square roots of those eigenvalues."""
    w, v = np.linalg.eigh(m)
    keep = w > P_ZERO
    return v[:, keep] * np.sqrt(w[keep])


def f_bar(m_elems, n_elems) -> float:
    """max_ij ||M_i^(1/2) N_j^(1/2)||, from eigh square roots and an SVD.

    With M^(1/2) = E S E^dagger and N^(1/2) = F T F^dagger (E, F isometries),
    ||M^(1/2) N^(1/2)|| = ||S E^dagger F T||, the largest singular value of
    the small rank(M) x rank(N) matrix (E S)^dagger (F T).
    """
    roots_m = [_root_factor(x) for x in m_elems]
    roots_n = [_root_factor(x) for x in n_elems]
    best = 0.0
    for lm in roots_m:
        for ln in roots_n:
            if lm.shape[1] and ln.shape[1]:
                best = max(best, float(np.linalg.svd(lm.conj().T @ ln, compute_uv=False)[0]))
    return best


def factor(kind: str, m_elems, n_elems, rho: np.ndarray) -> float:
    if kind == "g":
        return g_factor(m_elems, n_elems, rho)
    if kind == "f":
        return f_factor(m_elems, n_elems, rho)
    return f_bar(m_elems, n_elems)


def exact_bin_probabilities(coeffs, nbins: int) -> np.ndarray:
    """Bin integrals of |Psi|^2, Psi(phi) = (2 pi)^(-1/2) sum_l c_l e^(i l phi), from
    the Fourier coefficients: p_k = (1/2pi) sum_(l,l') conj(c_l) c_l' int_bin e^(i(l'-l)phi)."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    half = (c.size - 1) // 2
    ls = np.arange(-half, half + 1)
    diff = ls[None, :] - ls[:, None]
    weights = np.conj(c)[:, None] * c[None, :]
    edges = 2.0 * np.pi * np.arange(nbins + 1) / nbins
    p = np.empty(nbins)
    nonzero = diff != 0
    safe = np.where(nonzero, diff, 1)
    for k in range(nbins):
        lo, hi = edges[k], edges[k + 1]
        seg = np.where(nonzero, (np.exp(1j * safe * hi) - np.exp(1j * safe * lo)) / (1j * safe), hi - lo)
        p[k] = float(np.sum(weights * seg).real) / (2.0 * np.pi)
    return p


def gaussian_coefficients(truncation: int, width: float) -> np.ndarray:
    """Normalized c_l proportional to exp(-l^2/(2 width^2)), l = -L..L."""
    ls = np.arange(-truncation, truncation + 1, dtype=float)
    c = np.exp(-(ls**2) / (2.0 * width**2))
    return c / np.linalg.norm(c)


def phi_min(gamma: float, alpha: float) -> float:
    """Closed-form constrained minimum (gamma^(-alpha/beta) - 1)/(1 - alpha)."""
    beta, _ = conjugate(alpha)
    return (gamma ** (-alpha / beta) - 1.0) / (1.0 - alpha)


def dft_probabilities(psi: np.ndarray) -> np.ndarray:
    """|<k|F psi>|^2 with F_kl = exp(2 pi i k l/d)/sqrt(d), k, l = 1..d, by explicit sums."""
    d = psi.size
    out = np.empty(d)
    for k in range(1, d + 1):
        amp = sum(np.exp(2j * np.pi * k * l / d) * psi[l - 1] for l in range(1, d + 1)) / math.sqrt(d)
        out[k - 1] = abs(amp) ** 2
    return out
