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
from .model import DiffusionSpec, OscillatorSpec, determinant_margin, negligible
from .phasespace import CCSpec
from .propagator import GaussianState, sample_trajectory


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
    if not negligible(state.uncertainty_det - target, target):
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
    hbar2_lam4 = hbar**2 * lam / 4
    # (name, residual, the terms its tolerance is relative to)
    residuals = [
        ("diffusion_determinant", determinant_margin(diff, lam, hbar),
         (det_d, (hbar * lam) ** 2 / 4)),
        ("mixed_balance", diff.d_pp * state.sigma_qq - diff.d_pq * state.sigma_pq - hbar2_lam4,
         (diff.d_pp * state.sigma_qq, hbar2_lam4)),
        ("cross_balance", state.sigma_pq * det_d - hbar2_lam4 * diff.d_pq,
         (state.sigma_pq * det_d, hbar2_lam4 * diff.d_pq, det_d * hbar)),
    ]
    if lam > 0:
        residuals += [
            (f"constant_sigma_{ab}", sigma - d / lam, (sigma, d / lam))
            for ab, sigma, d in (("qq", state.sigma_qq, diff.d_qq),
                                 ("pp", state.sigma_pp, diff.d_pp),
                                 ("pq", state.sigma_pq, diff.d_pq))
        ]
    preserving = lam > 0 and all(negligible(res, *scales) for _, res, scales in residuals)
    ccs = identify_ccs(state, hbar)
    return PurityReport(
        t=state.t,
        sigma_det=state.uncertainty_det,
        gamma=purity_gamma(state, hbar),
        is_pure=ccs is not None,
        r=correlation_coefficient(state),
        ccs=ccs,
        preserving=preserving,
        conditions={name: res for name, res, _ in residuals},
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
