"""Detection of pure and purity-preserving configurations.

A Gaussian state is pure iff its covariance determinant saturates
hbar**2/4, in which case it is a correlated (squeezed) coherent state.
Purity is preserved along the evolution only for the special diffusion
coefficients saturating the determinant constraint, with constant
covariances D/lam.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .entropy import purity_gamma
from .model import DiffusionSpec, OscillatorSpec, determinant_margin
from .phasespace import CCSpec
from .propagator import GaussianState, sample_trajectory

# sigma within this relative distance of hbar^2/4 counts as pure
PURITY_RTOL = 1e-10
_PRESERVE_RTOL = 1e-10


@dataclass(frozen=True)
class PurityReport:
    """Purity diagnosis of one state under given coefficients."""

    t: float
    sigma_det: float
    gamma: float
    is_pure: bool
    r: float
    ccs: CCSpec | None
    preserving: bool
    conditions: dict[str, float]


def correlation_coefficient(state: GaussianState) -> float:
    """sigma_pq / sqrt(sigma_qq * sigma_pp); |r| < 1 for physical states."""
    return state.sigma_pq / math.sqrt(state.sigma_qq * state.sigma_pp)


def identify_ccs(state: GaussianState, hbar: float = 1.0) -> CCSpec | None:
    """Reconstruct the unique correlated coherent state matching a
    minimum-uncertainty Gaussian; None for mixed states."""
    target = hbar**2 / 4
    if abs(state.uncertainty_det - target) > PURITY_RTOL * target:
        return None
    eta = math.sqrt(state.sigma_qq)
    r = correlation_coefficient(state)
    rt = r / math.sqrt(1 - r**2)
    re = state.sigma_q / (2 * eta)
    im = eta * state.sigma_p / hbar - rt * state.sigma_q / (2 * eta)
    return CCSpec(eta=eta, r=r, alpha=complex(re, im), hbar=hbar)


def check_pure_preserving(
    osc: OscillatorSpec, diff: DiffusionSpec, state: GaussianState
) -> PurityReport:
    """Report whether the coefficient/state pair keeps purity for all times.

    Residuals of the three coefficient conditions and of the covariance
    constancy sigma_AB = D_AB / lam are all listed; 'preserving' holds when
    every residual is below tolerance.
    """
    hbar, lam = osc.hbar, osc.lam
    det_d = diff.d_pp * diff.d_qq - diff.d_pq**2
    conditions = {
        "diffusion_determinant": determinant_margin(diff, lam, hbar),
        "mixed_balance": diff.d_pp * state.sigma_qq
        - diff.d_pq * state.sigma_pq
        - hbar**2 * lam / 4,
        "cross_balance": state.sigma_pq * det_d - hbar**2 * lam / 4 * diff.d_pq,
    }
    scales = {
        "diffusion_determinant": max(det_d, (hbar * lam) ** 2 / 4),
        "mixed_balance": max(abs(diff.d_pp * state.sigma_qq), hbar**2 * lam / 4),
        "cross_balance": max(abs(state.sigma_pq * det_d), hbar**2 * lam / 4 * abs(diff.d_pq), det_d * hbar),
    }
    preserving = all(
        abs(res) <= _PRESERVE_RTOL * max(scales[name], 1e-300)
        for name, res in conditions.items()
    )
    if lam > 0:
        for name, sigma, d in (
            ("constant_sigma_qq", state.sigma_qq, diff.d_qq),
            ("constant_sigma_pp", state.sigma_pp, diff.d_pp),
            ("constant_sigma_pq", state.sigma_pq, diff.d_pq),
        ):
            res = sigma - d / lam
            conditions[name] = res
            preserving = preserving and abs(res) <= _PRESERVE_RTOL * max(
                abs(sigma), abs(d / lam), 1e-300
            )
    else:
        preserving = False
    ccs = identify_ccs(state, hbar)
    return PurityReport(
        t=state.t,
        sigma_det=state.uncertainty_det,
        gamma=purity_gamma(state, hbar),
        is_pure=ccs is not None,
        r=correlation_coefficient(state),
        ccs=ccs,
        preserving=preserving,
        conditions=conditions,
    )


def purity_scan(
    osc: OscillatorSpec,
    diff: DiffusionSpec,
    state0: GaussianState,
    times: Sequence[float],
) -> list[PurityReport]:
    """Per-time purity reports along the closed-form trajectory."""
    traj = sample_trajectory(osc, diff, state0, times)
    return [check_pure_preserving(osc, diff, state) for state, _ in traj]
