"""Phase-space and coordinate representations of Gaussian states.

Evaluators for the Wigner function, the smoothed (Husimi) distribution,
the coordinate density-matrix kernel and correlated (squeezed) coherent
states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import OscillatorSpec, ParameterError, saturates
from .propagator import GaussianState

MEASURE_PLAIN = "dqdp"
MEASURE_CELL = "dqdp/(2*pi*hbar)"


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Values sampled at the (q, p) points of two ascending axes, with their
    measure convention; values[i, j] belongs to (q_axis[i], p_axis[j])."""

    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray
    measure: str = MEASURE_PLAIN
    hbar: float = 1.0

    def __post_init__(self):
        q, p = self.q_axis, self.p_axis
        if len(q) < 2 or len(p) < 2:
            raise ParameterError("grid needs at least 2 points per axis")
        if not (q[0] < q[-1] and p[0] < p[-1]):
            raise ParameterError("grid bounds must satisfy min < max")
        if not all(math.isfinite(b) for b in (q[0], q[-1], p[0], p[-1])):
            raise ParameterError("grid bounds must be finite")
        if np.shape(self.values) != (len(q), len(p)):
            raise ParameterError(
                f"grid values have shape {np.shape(self.values)}, axes give ({len(q)}, {len(p)})"
            )
        if self.measure not in (MEASURE_PLAIN, MEASURE_CELL):
            raise ParameterError(f"unknown measure convention {self.measure!r}")
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("grid values must be finite")

    def integral(self) -> float:
        """Trapezoid quadrature of the stored values with the grid measure."""
        total = np.trapezoid(np.trapezoid(self.values, self.p_axis, axis=1), self.q_axis)
        if self.measure == MEASURE_CELL:
            total /= 2 * math.pi * self.hbar
        return float(total)


@dataclass(frozen=True)
class CoherentWindow:
    """Minimum-uncertainty smoothing window: s_qq * s_pp = hbar**2 / 4."""

    s_qq: float
    s_pp: float
    hbar: float = 1.0

    def __post_init__(self):
        if not (self.s_qq > 0 and self.s_pp > 0):
            raise ParameterError("window variances must be positive")
        if not saturates(self.s_qq * self.s_pp, self.hbar):
            raise ParameterError(
                f"window must satisfy s_qq*s_pp = hbar^2/4, got {self.s_qq * self.s_pp}"
            )

    @classmethod
    def matched(cls, osc: OscillatorSpec) -> "CoherentWindow":
        """Oscillator-matched coherent window."""
        s_qq = osc.hbar / (2 * osc.mass * osc.omega)
        return cls(s_qq=s_qq, s_pp=osc.hbar**2 / (4 * s_qq), hbar=osc.hbar)

    @classmethod
    def squeezed(cls, s_qq: float, hbar: float = 1.0) -> "CoherentWindow":
        if not s_qq > 0:
            raise ParameterError("window variances must be positive")
        return cls(s_qq=s_qq, s_pp=hbar**2 / (4 * s_qq), hbar=hbar)


@dataclass(frozen=True)
class CCSpec:
    """Correlated (squeezed) coherent state: width eta, correlation r and
    complex displacement alpha."""

    eta: float
    r: float
    alpha: complex = 0j
    hbar: float = 1.0

    def __post_init__(self):
        if not self.eta > 0:
            raise ParameterError(f"eta must be > 0, got {self.eta}")
        if not abs(self.r) < 1:
            raise ParameterError(f"|r| must be < 1, got {self.r}")
        object.__setattr__(self, "alpha", complex(self.alpha))

    def covariances(self) -> tuple[float, float, float]:
        """(sigma_qq, sigma_pp, sigma_pq); saturates the uncertainty bound."""
        one = 1 - self.r**2
        return (
            self.eta**2,
            self.hbar**2 / (4 * self.eta**2 * one),
            self.hbar * self.r / (2 * math.sqrt(one)),
        )

    def means(self) -> tuple[float, float]:
        rt = self.r / math.sqrt(1 - self.r**2)
        sigma_q = 2 * self.eta * self.alpha.real
        sigma_p = self.hbar / self.eta * (self.alpha.imag + rt * self.alpha.real)
        return sigma_q, sigma_p

    def state(self, t: float = 0.0) -> GaussianState:
        sq, sp = self.means()
        s_qq, s_pp, s_pq = self.covariances()
        return GaussianState(sq, sp, s_qq, s_pp, s_pq, t=t)


def _gaussian(state: GaussianState, s_qq: float, s_pp: float, q, p):
    """(exp(-quad / (2 det)), det) of the covariance [[s_qq, sigma_pq],
    [sigma_pq, s_pp]] around the state's means, at the points (q, p)."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    det = s_qq * s_pp - state.sigma_pq**2
    dq = q - state.sigma_q
    dp = p - state.sigma_p
    quad = s_pp * dq**2 + s_qq * dp**2 - 2 * state.sigma_pq * dq * dp
    return np.exp(-quad / (2 * det)), det


def wigner_at(state: GaussianState, q, p):
    """Gaussian Wigner function value(s); normalized over plain dq dp."""
    gauss, det = _gaussian(state, state.sigma_qq, state.sigma_pp, q, p)
    out = gauss / (2 * math.pi * math.sqrt(det))
    return float(out) if out.ndim == 0 else out


def husimi_at(state: GaussianState, window: CoherentWindow, q, p):
    """Smoothed phase-space distribution in [0, 1], normalized with respect
    to dq dp / (2 pi hbar)."""
    gauss, det = _gaussian(
        state, state.sigma_qq + window.s_qq, state.sigma_pp + window.s_pp, q, p
    )
    out = window.hbar / math.sqrt(det) * gauss
    return float(out) if out.ndim == 0 else out


def smoothed_covariance_det(state: GaussianState, window: CoherentWindow) -> float:
    """Determinant of the covariance matrix of the smoothed distribution."""
    return (state.sigma_qq + window.s_qq) * (state.sigma_pp + window.s_pp) - state.sigma_pq**2


def density_kernel_at(state: GaussianState, x, y, hbar: float = 1.0):
    """Coordinate-representation density-matrix kernel <x|rho|y>."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mid = (x + y) / 2 - state.sigma_q
    off = x - y
    cond = state.sigma_pp - state.sigma_pq**2 / state.sigma_qq
    exponent = (
        -mid**2 / (2 * state.sigma_qq)
        - cond * off**2 / (2 * hbar**2)
        + 1j * (state.sigma_pq / (hbar * state.sigma_qq) * mid * off + state.sigma_p * off / hbar)
    )
    out = np.exp(exponent) / math.sqrt(2 * math.pi * state.sigma_qq)
    return complex(out) if out.ndim == 0 else out


def ccs_wavefunction_at(ccs: CCSpec, x):
    """Normalized wavefunction of a correlated coherent state."""
    x = np.asarray(x, dtype=float)
    sq, sp = ccs.means()
    s_qq, _, s_pq = ccs.covariances()
    hbar = ccs.hbar
    exponent = (
        -(1 - 2j * s_pq / hbar) * (x - sq) ** 2 / (4 * s_qq) + 1j * sp * x / hbar
    )
    out = (2 * math.pi * s_qq) ** -0.25 * np.exp(exponent)
    return complex(out) if out.ndim == 0 else out


def sample_axis(center: float, variance: float, n: int, width_sigmas: float) -> np.ndarray:
    """n evenly spaced points on center +- width_sigmas * sqrt(variance).

    Raises ParameterError where the points do not increase strictly, as when
    the spread is below the float resolution at the centre.
    """
    half = width_sigmas * math.sqrt(variance)
    axis = np.linspace(center - half, center + half, n)
    if not (np.diff(axis) > 0).all():
        raise ParameterError(
            f"axis points must increase strictly, but {n} points on {center!r} +- {half!r} do not")
    return axis


def wigner_grid(
    state: GaussianState,
    n_q: int = 512,
    n_p: int = 512,
    width_sigmas: float = 8.0,
) -> PhaseSpaceGrid:
    """Sample the Wigner function on a box of width_sigmas marginal sigmas."""
    q = sample_axis(state.sigma_q, state.sigma_qq, n_q, width_sigmas)
    p = sample_axis(state.sigma_p, state.sigma_pp, n_p, width_sigmas)
    return PhaseSpaceGrid(q, p, wigner_at(state, q[:, None], p[None, :]), MEASURE_PLAIN)


def husimi_grid(
    state: GaussianState,
    window: CoherentWindow,
    n_q: int = 512,
    n_p: int = 512,
    width_sigmas: float = 8.0,
) -> PhaseSpaceGrid:
    """Sample the smoothed distribution; measure is dq dp / (2 pi hbar)."""
    q = sample_axis(state.sigma_q, state.sigma_qq + window.s_qq, n_q, width_sigmas)
    p = sample_axis(state.sigma_p, state.sigma_pp + window.s_pp, n_p, width_sigmas)
    values = husimi_at(state, window, q[:, None], p[None, :])
    return PhaseSpaceGrid(q, p, values, MEASURE_CELL, hbar=window.hbar)

