"""Scalar diagnostics of a Gaussian state.

von Neumann entropy, effective temperature, closed-form Wehrl entropy,
linear entropy and its near-pure production rate, the uncertainty-entropy
bound and the fluctuation energy.  The 0*ln(0) := 0
convention applies throughout.
"""
from __future__ import annotations

import math
import warnings
from typing import NamedTuple

from .model import ConsistencyError, DiffusionSpec, OscillatorSpec
from .phasespace import CoherentWindow, smoothed_covariance_det
from .propagator import GaussianState, require_physical


class DerivedScalars(NamedTuple):
    """Scalar diagnostics attached to one trajectory sample."""

    sigma_det: float
    nu: float
    s_vn: float
    gamma: float
    s_lin: float
    wehrl: float
    energy: float
    t_eff: float | None = None
    s_lin_rate: float | None = None


def _occupation(root: float, hbar: float) -> float:
    """nu from sqrt(sigma), the root of a validated covariance determinant."""
    return max(0.0, root / hbar - 0.5)


def _entropy(nu: float) -> float:
    """(nu+1)ln(nu+1) - nu*ln(nu), with 0*ln(0) := 0."""
    if nu == 0.0:
        return 0.0
    return (nu + 1) * math.log(nu + 1) - nu * math.log(nu)


def _temperature(osc: OscillatorSpec, nu: float) -> float:
    """Thermal temperature with occupation nu; 0 for nu = 0.  Raises
    ConsistencyError where ln(nu+1) - ln(nu) rounds to 0 (nu above about 1e16)."""
    if nu == 0.0:
        return 0.0
    gap = math.log(nu + 1) - math.log(nu)
    if gap == 0.0:
        raise ConsistencyError(f"effective temperature undefined at nu={nu}: "
                               "ln(nu+1) - ln(nu) rounds to 0")
    return osc.hbar * osc.omega / (osc.boltzmann * gap)


def _purity(root: float, hbar: float) -> float:
    """Tr rho^2 from sqrt(sigma), capped at 1 against rounding."""
    return min(1.0, hbar / (2 * root))


def occupation_nu(state: GaussianState, hbar: float = 1.0) -> float:
    """Effective occupation number: sqrt(sigma)/hbar - 1/2."""
    return _occupation(math.sqrt(require_physical(state, hbar)), hbar)


def von_neumann_entropy(state: GaussianState, hbar: float = 1.0) -> float:
    """(nu+1)ln(nu+1) - nu*ln(nu); zero exactly for minimum-uncertainty states."""
    return _entropy(occupation_nu(state, hbar))


def effective_temperature(osc: OscillatorSpec, state: GaussianState) -> float:
    """Temperature of the thermal state with the same occupation number.

    Returns 0 (with a warning) for minimum-uncertainty states; meaningful
    primarily in a thermal-bath context.
    """
    nu = occupation_nu(state, osc.hbar)
    if nu == 0.0:
        warnings.warn("effective temperature of a pure state returned as 0")
    return _temperature(osc, nu)


def entropy_from_temperature(osc: OscillatorSpec, t_eff: float) -> float:
    """von Neumann entropy re-expressed through the effective temperature."""
    if t_eff <= 0:
        return 0.0
    x = osc.hbar * osc.omega / (osc.boltzmann * t_eff)
    return x / (math.exp(x) - 1) - math.log(1 - math.exp(-x))


def wehrl_entropy_closed(
    state: GaussianState, window: CoherentWindow, hbar: float = 1.0
) -> float:
    """Closed-form Wehrl entropy of the Gaussian smoothed distribution:
    1 + ln(sqrt(det) / hbar) with det the smoothed covariance determinant."""
    det = smoothed_covariance_det(state, window)
    return 1.0 + 0.5 * math.log(det / hbar**2)


def minimized_uncertainty_bound(state: GaussianState, hbar: float = 1.0) -> float:
    """Slack of the window-minimized uncertainty-entropy inequality:
    (sqrt(sigma_qq*sigma_pp) + hbar/2)**2 - sigma_pq**2 - hbar**2 e^{2(S-1)}.
    Non-negative for every physical Gaussian state."""
    s = von_neumann_entropy(state, hbar)
    lhs = (math.sqrt(state.sigma_qq * state.sigma_pp) + hbar / 2) ** 2 - state.sigma_pq**2
    return lhs - hbar**2 * math.exp(2 * (s - 1))


def purity_gamma(state: GaussianState, hbar: float = 1.0) -> float:
    """Purity Tr rho^2 = hbar / (2 sqrt(sigma)) for a Gaussian state."""
    return _purity(math.sqrt(require_physical(state, hbar)), hbar)


def linear_entropy(state: GaussianState, hbar: float = 1.0) -> float:
    """1 - Tr rho^2, in [0, 1)."""
    return 1.0 - purity_gamma(state, hbar)


def linear_entropy_rate(
    osc: OscillatorSpec, diff: DiffusionSpec, state: GaussianState
) -> float:
    """Linear-entropy production rate in the near-pure regime:
    (4/hbar^2)(D_pp s_qq + D_qq s_pp - 2 D_pq s_pq - hbar^2 lam / 2).

    Computable for any state; the identification with d(1 - gamma)/dt is
    only claimed near purity.
    """
    hbar = osc.hbar
    return (
        4
        / hbar**2
        * (
            diff.d_pp * state.sigma_qq
            + diff.d_qq * state.sigma_pp
            - 2 * diff.d_pq * state.sigma_pq
            - hbar**2 * osc.lam / 2
        )
    )


def fluctuation_energy(osc: OscillatorSpec, state: GaussianState) -> float:
    """sigma_pp / 2m + m omega^2 sigma_qq / 2 + mu sigma_pq."""
    return (
        state.sigma_pp / (2 * osc.mass)
        + osc.mass * osc.omega**2 * state.sigma_qq / 2
        + osc.mu * state.sigma_pq
    )


def derived_scalars(
    osc: OscillatorSpec,
    state: GaussianState,
    diff: DiffusionSpec | None = None,
    window: CoherentWindow | None = None,
    thermal_temperature: float | None = None,
) -> DerivedScalars:
    """Bundle of all scalar diagnostics for one state.

    t_eff is populated only in a thermal-bath context (thermal_temperature
    given); the rate needs the diffusion coefficients.  Every entropy and
    purity field derives from one validated determinant.
    """
    hbar = osc.hbar
    window = window or CoherentWindow.matched(osc)
    det = require_physical(state, hbar)
    root = math.sqrt(det)
    nu = _occupation(root, hbar)
    gamma = _purity(root, hbar)
    return DerivedScalars(
        sigma_det=det,
        nu=nu,
        s_vn=_entropy(nu),
        gamma=gamma,
        s_lin=1.0 - gamma,
        wehrl=wehrl_entropy_closed(state, window, hbar),
        energy=fluctuation_energy(osc, state),
        t_eff=None if thermal_temperature is None else _temperature(osc, nu),
        s_lin_rate=None if diff is None else linear_entropy_rate(osc, diff, state),
    )
