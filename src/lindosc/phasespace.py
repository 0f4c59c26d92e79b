"""Phase-space and coordinate representations of Gaussian states.

Evaluators for the Wigner function, the smoothed (Husimi) distribution,
the coordinate density-matrix kernel and correlated (squeezed) coherent
states, plus the quadrature oracles used to cross-check them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import OscillatorSpec, ParameterError
from .propagator import GaussianState

MEASURE_PLAIN = "dqdp"
MEASURE_CELL = "dqdp/(2*pi*hbar)"


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular (q, p) grid of sampled values with its measure convention."""

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    n_q: int
    n_p: int
    values: np.ndarray
    measure: str = MEASURE_PLAIN
    hbar: float = 1.0

    def __post_init__(self):
        if self.n_q < 2 or self.n_p < 2:
            raise ParameterError("grid needs at least 2 points per axis")
        if not (self.q_min < self.q_max and self.p_min < self.p_max):
            raise ParameterError("grid bounds must satisfy min < max")
        for b in (self.q_min, self.q_max, self.p_min, self.p_max):
            if not math.isfinite(b):
                raise ParameterError("grid bounds must be finite")
        if self.measure not in (MEASURE_PLAIN, MEASURE_CELL):
            raise ParameterError(f"unknown measure convention {self.measure!r}")
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("grid values must be finite")

    @property
    def q_axis(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.n_q)

    @property
    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_p)

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
        target = self.hbar**2 / 4
        if abs(self.s_qq * self.s_pp - target) > 1e-12 * target:
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


def wigner_at(state: GaussianState, q, p):
    """Gaussian Wigner function value(s); normalized over plain dq dp."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    det = state.uncertainty_det
    dq = q - state.sigma_q
    dp = p - state.sigma_p
    quad = state.sigma_pp * dq**2 + state.sigma_qq * dp**2 - 2 * state.sigma_pq * dq * dp
    out = np.exp(-quad / (2 * det)) / (2 * math.pi * math.sqrt(det))
    return float(out) if out.ndim == 0 else out


def husimi_at(state: GaussianState, window: CoherentWindow, q, p):
    """Smoothed phase-space distribution in [0, 1], normalized with respect
    to dq dp / (2 pi hbar)."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    a = state.sigma_qq + window.s_qq
    b = state.sigma_pp + window.s_pp
    det = a * b - state.sigma_pq**2
    dq = q - state.sigma_q
    dp = p - state.sigma_p
    quad = b * dq**2 + a * dp**2 - 2 * state.sigma_pq * dq * dp
    out = window.hbar / math.sqrt(det) * np.exp(-quad / (2 * det))
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


def wigner_to_kernel_oracle(
    state: GaussianState,
    x: float,
    y: float,
    hbar: float = 1.0,
    n_points: int = 4096,
    width_sigmas: float = 8.0,
):
    """Quadrature of the momentum Fourier integral turning W into <x|rho|y>.

    Trapezoid rule over a box of width_sigmas momentum standard deviations.
    """
    half = width_sigmas * math.sqrt(state.sigma_pp)
    p = np.linspace(state.sigma_p - half, state.sigma_p + half, n_points)
    integrand = np.exp(1j * p * (x - y) / hbar) * wigner_at(state, (x + y) / 2, p)
    return complex(np.trapezoid(integrand, p))


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


def wigner_grid(
    state: GaussianState,
    n_q: int = 512,
    n_p: int = 512,
    width_sigmas: float = 8.0,
) -> PhaseSpaceGrid:
    """Sample the Wigner function on a box of width_sigmas marginal sigmas."""
    hq = width_sigmas * math.sqrt(state.sigma_qq)
    hp = width_sigmas * math.sqrt(state.sigma_pp)
    q = np.linspace(state.sigma_q - hq, state.sigma_q + hq, n_q)
    p = np.linspace(state.sigma_p - hp, state.sigma_p + hp, n_p)
    values = wigner_at(state, q[:, None], p[None, :])
    return PhaseSpaceGrid(
        q_min=q[0], q_max=q[-1], p_min=p[0], p_max=p[-1],
        n_q=n_q, n_p=n_p, values=values, measure=MEASURE_PLAIN,
    )


def husimi_grid(
    state: GaussianState,
    window: CoherentWindow,
    n_q: int = 512,
    n_p: int = 512,
    width_sigmas: float = 8.0,
) -> PhaseSpaceGrid:
    """Sample the smoothed distribution; measure is dq dp / (2 pi hbar)."""
    hq = width_sigmas * math.sqrt(state.sigma_qq + window.s_qq)
    hp = width_sigmas * math.sqrt(state.sigma_pp + window.s_pp)
    q = np.linspace(state.sigma_q - hq, state.sigma_q + hq, n_q)
    p = np.linspace(state.sigma_p - hp, state.sigma_p + hp, n_p)
    values = husimi_at(state, window, q[:, None], p[None, :])
    return PhaseSpaceGrid(
        q_min=q[0], q_max=q[-1], p_min=p[0], p_max=p[-1],
        n_q=n_q, n_p=n_p, values=values, measure=MEASURE_CELL, hbar=window.hbar,
    )


def wigner_purity_quadrature(state: GaussianState, hbar: float = 1.0, n: int = 512) -> float:
    """2*pi*hbar * integral of W**2 over phase space (trapezoid)."""
    grid = wigner_grid(state, n_q=n, n_p=n)
    w2 = grid.values**2
    total = np.trapezoid(np.trapezoid(w2, grid.p_axis, axis=1), grid.q_axis)
    return float(2 * math.pi * hbar * total)
