"""Two executable demonstrations of the Tsallis uncertainty bound.

First, complementary observables connected by the discrete Fourier transform
in a d-level system, where the bound is ln_mu(d) and basis states saturate
it.  Second, the binned angle versus the angular momentum of a truncated
wavefunction on the circle, where the bound is ln_mu(2*pi/delta_phi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bounds import BoundReport, bound_report
from .entropy import ConjugateOrders, alpha_log

# gaussian_wavepacket's bound on the weight its truncation discards
TAIL_TOL = 1e-12
# points of psi_lb_norm's trapezoid rule
LB_NORM_POINTS = 8192


def dft_matrix(d: int) -> np.ndarray:
    """Unitary with entries exp(2*pi*i*k*l/d)/sqrt(d), k, l = 1..d."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    k = np.arange(1, d + 1)
    return np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


def dft_uncertainty_demo(state, orders: ConjugateOrders) -> BoundReport:
    """H_a of the Fourier-side distribution plus H_b of the input one vs ln_mu(d).

    state is one vector (d,) or a stack (T, d) of them, each normalized; for a
    stack the report's lhs and slack are (T,) arrays.
    """
    c = np.asarray(state, dtype=complex)
    if c.ndim not in (1, 2):
        raise ValueError(f"state must be a vector or a stack of them, got shape {c.shape}")
    linalg.check_unit_norm(c)
    d = c.shape[-1]
    q = np.abs(c) ** 2
    # |F c|^2 up to the order of its entries, which no entropy sees
    p = np.abs(np.fft.fft(c, axis=-1)) ** 2 / d
    return bound_report(p, q, orders, "tsallis", 1.0 / np.sqrt(d), alpha_log(float(d), orders.mu))


@dataclass(frozen=True)
class AngleState:
    """Momentum amplitudes c_l, l = -L..L, with an angular bin count.

    The wavefunction is Psi(phi) = (2*pi)^(-1/2) sum_l c_l exp(i*l*phi); all
    bins share the width delta_phi = 2*pi/nbins.
    """

    coeffs: np.ndarray
    nbins: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).ravel()
        if c.size % 2 == 0:
            raise ValueError("coeffs must cover l = -L..L, so their count is odd")
        if not abs(np.sum(np.abs(c) ** 2) - 1) <= 1e-10:  # NaN fails too
            raise ValueError("momentum amplitudes are not normalized")
        if self.nbins < 1:
            raise ValueError(f"nbins must be >= 1, got {self.nbins}")
        object.__setattr__(self, "coeffs", c)

    @property
    def truncation(self) -> int:
        return (self.coeffs.size - 1) // 2

    @property
    def delta_phi(self) -> float:
        return 2 * np.pi / self.nbins


def wavefunction(state: AngleState, phis) -> np.ndarray:
    """Psi evaluated at the given angles."""
    ls = np.arange(-state.truncation, state.truncation + 1)
    return np.exp(1j * np.outer(np.asarray(phis, float), ls)) @ state.coeffs / np.sqrt(2 * np.pi)


def bin_probabilities(state: AngleState) -> np.ndarray:
    """Exact per-bin integrals of |Psi|^2.

    |Psi|^2 = (1/2pi) sum_m r_m exp(i*m*phi) with the coefficient
    autocorrelation r_m = sum_l c_(l+m) conj(c_l), and over a bin of width w
    centred on phi_k, int exp(i*m*phi) = w exp(i*m*phi_k) sinc(m*w/2pi), with
    sinc(x) = sin(pi*x)/(pi*x).  With N bins, phi_k = 2pi(k + 1/2)/N, so
    exp(i*m*phi_k) = exp(i*pi*m/N) exp(2pi*i*m*k/N): folding the weighted
    autocorrelation modulo N leaves one length-N inverse FFT, in O(N + L)
    memory.
    """
    c, nbins = state.coeffs, state.nbins
    r = np.correlate(c, c, mode="full")
    m = np.arange(1 - c.size, c.size)
    a = r * np.sinc(m / nbins) * np.exp(1j * np.pi * m / nbins)
    j = m % nbins
    folded = np.bincount(j, a.real, nbins) + 1j * np.bincount(j, a.imag, nbins)
    return np.fft.ifft(folded).real


def angle_momentum_demo(state: AngleState, orders: ConjugateOrders) -> BoundReport:
    """Binned-angle vs angular-momentum bound H_a(phi) + H_b(J) >= ln_mu(nbins)."""
    if orders.alpha < 1:
        raise ValueError("the binned-angle bound needs alpha >= 1 >= beta")
    p = bin_probabilities(state)
    q = np.abs(state.coeffs) ** 2
    k = state.nbins
    return bound_report(p, q, orders, "tsallis", 1.0 / np.sqrt(k), alpha_log(float(k), orders.mu))


def gaussian_wavepacket(truncation: int, width: float, nbins: int) -> AngleState:
    """AngleState with c_l proportional to exp(-l^2/(2*width^2)).

    The weight the truncation discards (relative to the untruncated profile)
    must stay below TAIL_TOL.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    ls = np.arange(-truncation, truncation + 1)
    c = np.exp(-(ls.astype(float) ** 2) / (2 * width**2))
    ls_far = np.arange(truncation + 1, max(10 * truncation, truncation + 1000))
    tail = 2 * np.sum(np.exp(-(ls_far.astype(float) ** 2) / width**2))
    body = np.sum(c**2)
    if tail / (body + tail) > TAIL_TOL:
        raise ValueError(
            f"discarded tail weight {tail / (body + tail):.3e} exceeds {TAIL_TOL:.1e}; raise truncation"
        )
    return AngleState(coeffs=c / np.sqrt(body), nbins=nbins)


def psi_lb_norm(state: AngleState, b: float) -> float:
    """(integral of |Psi|^b over the circle)^(1/b) by periodic trapezoid rule."""
    if b <= 0:
        raise ValueError("b must be positive")
    phis = np.linspace(0.0, 2 * np.pi, LB_NORM_POINTS, endpoint=False)
    vals = np.abs(wavefunction(state, phis)) ** b
    return float((vals.mean() * 2 * np.pi) ** (1.0 / b))
