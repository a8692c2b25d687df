"""Two executable demonstrations of the Tsallis uncertainty bound.

First, complementary observables connected by the discrete Fourier transform
in a d-level system, where the bound is ln_mu(d) and basis states saturate
it.  Second, the binned angle versus the angular momentum of a truncated
wavefunction on the circle, where the bound is ln_mu(2*pi/delta_phi).
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .bounds import BoundReport, _relations
from .entropy import ConjugateOrders, _normalized

# gaussian_wavepacket's bound on the weight its truncation discards
TAIL_TOL = 1e-12


def dft_uncertainty_demo(state, orders: ConjugateOrders) -> BoundReport:
    """H_a of the Fourier-side distribution plus H_b of the input one vs ln_mu(d).

    state is one vector (d,) or a stack (T, d) of them, each normalized; for a
    stack the report's lhs and slack are (T,) arrays.
    """
    c = np.asarray(state, dtype=complex)
    if c.ndim not in (1, 2):
        raise ValueError(f"state must be a vector or a stack of them, got shape {c.shape}")
    linalg.check_unit_norm(linalg.check_entries(c, "state"))
    d = c.shape[-1]
    q = np.abs(c) ** 2
    # |F c|^2 up to the order of its entries, which no entropy sees
    p = np.abs(np.fft.fft(c, axis=-1)) ** 2 / d
    return _relations(_normalized(p), _normalized(q), 1.0 / np.sqrt(d), d, orders, ("tsallis",))[0]


class AngleState:
    """Momentum amplitudes c_l, l = -L..L, with an angular bin count.

    The wavefunction is Psi(phi) = (2*pi)^(-1/2) sum_l c_l exp(i*l*phi); all
    bins share the width delta_phi = 2*pi/nbins.
    """

    def __init__(self, coeffs, nbins: int):
        c = linalg.check_entries(np.asarray(coeffs, dtype=complex).ravel(), "coeffs")
        if c.size % 2 == 0:
            raise ValueError("coeffs must cover l = -L..L, so their count is odd")
        if not abs(np.sum(np.abs(c) ** 2) - 1) <= 1e-10:  # NaN fails too
            raise ValueError("momentum amplitudes are not normalized")
        if isinstance(nbins, bool) or not isinstance(nbins, (int, np.integer)):
            raise ValueError(f"nbins must be an integer, got {nbins!r}")
        if nbins < 1:
            raise ValueError(f"nbins must be >= 1, got {nbins}")
        self.coeffs, self.nbins = c, int(nbins)


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
    return _relations(_normalized(p), _normalized(q), 1.0 / np.sqrt(k), k, orders, ("tsallis",))[0]


def gaussian_wavepacket(truncation: int, width: float, nbins: int) -> AngleState:
    """AngleState with c_l proportional to exp(-l^2/(2*width^2)).

    The weight the truncation discards (relative to the untruncated profile)
    must stay below TAIL_TOL.  Below a width of ~0.026 every c_l but c_0
    underflows to 0: the limiting packet.
    """
    if not width > 0:  # NaN fails too
        raise ValueError(f"width must be positive, got {width}")
    ls = np.arange(-truncation, truncation + 1)
    ls_far = np.arange(truncation + 1, max(10 * truncation, truncation + 1000))
    # overflows to inf: width^2 if too wide (the tail test rejects it), l^2 / w2 if narrow
    with np.errstate(over="ignore"):
        w2 = max(np.float64(width) ** 2, np.finfo(float).tiny)  # never 0, so l^2 / w2 is never 0 / 0
        c = np.exp(-(ls.astype(float) ** 2) / (2 * w2))
        tail = 2 * np.sum(np.exp(-(ls_far.astype(float) ** 2) / w2))
    body = np.sum(c**2)
    if tail / (body + tail) > TAIL_TOL:
        raise ValueError(
            f"discarded tail weight {tail / (body + tail):.3e} exceeds {TAIL_TOL:.1e}; raise truncation"
        )
    return AngleState(coeffs=c / np.sqrt(body), nbins=nbins)
