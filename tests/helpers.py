"""Shared fixtures-free helpers for the test suite."""

from __future__ import annotations

import csv
import io
import json
import math
import time

import numpy as np

from unravel.bounds import Povm
from unravel.cli import ROW_FIELDS, SLACK_TOL
from unravel.channels import Unraveling
from unravel.demos import AngleState
from unravel.entropy import _check_order
from unravel.linalg import TOL_PSD, hermitianize

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# points of psi_lb_norm's trapezoid rule
LB_NORM_POINTS = 8192


def depolarizing_unraveling(p: float) -> Unraveling:
    """Pauli Kraus set {sqrt(1-3p/4) I, sqrt(p/4) X, sqrt(p/4) Y, sqrt(p/4) Z}."""
    return Unraveling(
        (
            np.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex),
            np.sqrt(p / 4) * SIGMA_X,
            np.sqrt(p / 4) * SIGMA_Y,
            np.sqrt(p / 4) * SIGMA_Z,
        )
    )


def z_basis_povm() -> Povm:
    return Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))


def x_basis_povm() -> Povm:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return Povm(tuple(np.outer(h[:, k], h[:, k].conj()) for k in range(2)))


def psd_sqrt(m) -> np.ndarray:
    """Reference Hermitian PSD square root: eigh, eigenvalues in [-TOL_PSD, 0) clipped to 0."""
    w, v = np.linalg.eigh(m)
    if w[0] < -TOL_PSD:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    return hermitianize((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)


def measurement_channel(povm: Povm) -> Unraveling:
    """von Neumann style channel with Kraus operators M_i^(1/2)."""
    return Unraveling(tuple(psd_sqrt(m) for m in povm.elements))


def dft_matrix(d: int) -> np.ndarray:
    """Unitary with entries exp(2*pi*i*k*l/d)/sqrt(d), k, l = 1..d: the matrix
    whose product with a state the DFT demo's FFT stands in for."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    k = np.arange(1, d + 1)
    return np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


def momenta(state: AngleState) -> np.ndarray:
    """The momenta l = -L..L of an AngleState's amplitudes c_l."""
    L = (state.coeffs.size - 1) // 2
    return np.arange(-L, L + 1)


def wavefunction(state: AngleState, phis) -> np.ndarray:
    """Psi evaluated at the given angles."""
    return np.exp(1j * np.outer(np.asarray(phis, float), momenta(state))) @ state.coeffs / np.sqrt(2 * np.pi)


def psi_lb_norm(state: AngleState, b: float) -> float:
    """(integral of |Psi|^b over the circle)^(1/b) by periodic trapezoid rule."""
    if b <= 0:
        raise ValueError("b must be positive")
    phis = np.linspace(0.0, 2 * np.pi, LB_NORM_POINTS, endpoint=False)
    vals = np.abs(wavefunction(state, phis)) ** b
    return float((vals.mean() * 2 * np.pi) ** (1.0 / b))


def renyi_from_tsallis(h: float, alpha: float) -> float:
    """Convert a Tsallis value to the Renyi value of the same order: log1p((1-a) h)/(1-a)."""
    t = 1.0 - _check_order(alpha)
    s = t * float(h)
    if s <= -1:
        raise ValueError(f"log argument {1 + s!r} <= 0 in Tsallis-to-Renyi conversion")
    return math.log1p(s) / t if t else float(h)


def tsallis_rows(p: np.ndarray, alpha: float) -> np.ndarray:
    """Tsallis entropy of each row of a probability matrix, in float64 from the definition."""
    if alpha == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, -p * np.log(np.where(p > 0, p, 1.0)), 0.0)
        return terms.sum(axis=-1)
    return (np.power(p, alpha).sum(axis=-1) - 1.0) / (1.0 - alpha)


def renyi_rows(p: np.ndarray, alpha: float) -> np.ndarray:
    """Renyi entropy of each row of a probability matrix, alpha != 1, in float64 from the definition."""
    return np.log(np.power(p, alpha).sum(axis=-1)) / (1.0 - alpha)


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


class ReferenceReporter:
    """The CLI's former row-at-a-time renderer, the reference for
    cli.Reporter.table: a dict per row, filtered and passed to json.dumps, or
    to csv.DictWriter."""

    def __init__(self, fmt: str, timing: bool, stream):
        self.fmt = fmt
        self.timing = timing
        self.stream = stream
        self.violated = False
        self._csv = io.StringIO()
        self._writer = None
        self._t0 = time.perf_counter()

    def row(self, check_name: str, **fields):
        self.stream.write(self._line(check_name, fields))

    def _line(self, check_name: str, fields: dict) -> str:
        row = {k: None for k in ROW_FIELDS}
        row["check_name"] = check_name
        row.update(fields)
        if self.timing:
            row["wall_time_ms"] = round((time.perf_counter() - self._t0) * 1000.0, 3)
        else:
            row.pop("wall_time_ms")
        if row.get("slack") is not None and not row["slack"] >= SLACK_TOL:
            self.violated = True  # NaN counts as a violation
        if self.fmt == "json":
            return json.dumps({k: v for k, v in row.items() if v is not None}) + "\n"
        if self._writer is None:
            self._writer = csv.DictWriter(self._csv, fieldnames=ROW_FIELDS)
            self._writer.writeheader()
        self._writer.writerow({k: row.get(k) for k in ROW_FIELDS})
        text = self._csv.getvalue()  # the header too, before the first row
        self._csv.seek(0)
        self._csv.truncate()
        return text

    @property
    def exit_code(self) -> int:
        return 1 if self.violated else 0
