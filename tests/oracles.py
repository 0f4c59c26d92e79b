"""Independent reference computations that the tests compare the closed
forms against: a fixed-step RK4 integrator of the moment ODEs and trapezoid
quadratures of the phase-space integrals.  The runtime package never calls
them."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from lindosc.model import DiffusionSpec, OscillatorSpec, ParameterError
from lindosc.phasespace import (
    CoherentWindow,
    husimi_grid,
    sample_axis,
    wigner_at,
    wigner_grid,
)
from lindosc.propagator import GaussianState


def _moment_system(osc: OscillatorSpec, diff: DiffusionSpec):
    """Linear system d/dt y = A y + d for y = (sq, sp, sqq, spp, spq)."""
    lam, mu, om, m = osc.lam, osc.mu, osc.omega, osc.mass
    a = np.zeros((5, 5))
    a[0, 0], a[0, 1] = -(lam - mu), 1 / m
    a[1, 0], a[1, 1] = -m * om**2, -(lam + mu)
    a[2, 2], a[2, 4] = -2 * (lam - mu), 2 / m
    a[3, 3], a[3, 4] = -2 * (lam + mu), -2 * m * om**2
    a[4, 2], a[4, 3], a[4, 4] = -m * om**2, 1 / m, -2 * lam
    d = np.array([0.0, 0.0, 2 * diff.d_qq, 2 * diff.d_pp, 2 * diff.d_pq])
    return a, d


def default_oracle_step(osc: OscillatorSpec) -> float:
    """1e-4 of the characteristic time 1/max(omega, lam)."""
    return 1e-4 / max(osc.omega, osc.lam)


def _rk4_affine_step(a: np.ndarray, d: np.ndarray, h: float):
    """One classical RK4 step of y' = A y + d as an affine map y -> P y + s."""
    n = a.shape[0]
    eye = np.eye(n)
    ha = h * a
    p = eye + ha @ (eye + ha @ (eye + ha @ (eye + ha / 4) / 3) / 2)
    s = h * (eye + ha @ (eye + ha @ (eye + ha / 4) / 3) / 2) @ d
    return p, s


def ode_oracle(
    osc: OscillatorSpec,
    diff: DiffusionSpec,
    state0: GaussianState,
    t: float,
    step: float | None = None,
) -> GaussianState:
    """Fixed-step classical RK4 integration of the five moment ODEs.

    The step map of RK4 on this linear system is affine, so n steps are
    composed by binary exponentiation; the result is the exact n-step RK4
    iterate.
    """
    if step is None:
        step = default_oracle_step(osc)
    if not step > 0:
        raise ParameterError(f"step must be > 0, got {step}")
    if t == 0:
        return state0
    n = max(1, round(t / step))
    h = t / n
    a, d = _moment_system(osc, diff)
    p, s = _rk4_affine_step(a, d, h)
    # compose the affine map n times (all powers of one map commute)
    acc_p, acc_s = np.eye(5), np.zeros(5)
    while n:
        if n & 1:
            acc_p, acc_s = p @ acc_p, p @ acc_s + s
        p, s = p @ p, p @ s + s
        n >>= 1
    y = acc_p @ np.array(
        [state0.sigma_q, state0.sigma_p, state0.sigma_qq, state0.sigma_pp, state0.sigma_pq]
    ) + acc_s
    return GaussianState(*y, t=state0.t + t)


def wehrl_entropy_quadrature(
    state: GaussianState,
    window: CoherentWindow,
    n: int = 512,
    width_sigmas: float = 8.0,
) -> float:
    """Trapezoid quadrature of -integral (dq dp / 2 pi hbar) Q ln Q; the
    Husimi grid carries the measure and the window's hbar."""
    if width_sigmas < 8.0:
        raise ParameterError("quadrature box must cover at least 8 sigmas")
    grid = husimi_grid(state, window, n_q=n, n_p=n, width_sigmas=width_sigmas)
    q_vals = grid.values
    integrand = np.where(q_vals > 0, -q_vals * np.log(np.where(q_vals > 0, q_vals, 1.0)), 0.0)
    return replace(grid, values=integrand).integral()


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
    p = sample_axis(state.sigma_p, state.sigma_pp, n_points, width_sigmas)
    integrand = np.exp(1j * p * (x - y) / hbar) * wigner_at(state, (x + y) / 2, p)
    return complex(np.trapezoid(integrand, p))


def wigner_purity_quadrature(state: GaussianState, hbar: float = 1.0, n: int = 512) -> float:
    """2*pi*hbar * integral of W**2 over phase space (trapezoid)."""
    grid = wigner_grid(state, n_q=n, n_p=n)
    return 2 * math.pi * hbar * replace(grid, values=grid.values**2).integral()
