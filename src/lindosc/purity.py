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

import numpy as np

from .entropy import purity_gamma
from .model import DiffusionSpec, OscillatorSpec, determinant_margin, negligible, saturates
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
    if not saturates(state.uncertainty_det, hbar):
        return None
    eta = math.sqrt(state.sigma_qq)
    r = correlation_coefficient(state)
    rt = r / math.sqrt(1 - r**2)
    re = state.sigma_q / (2 * eta)
    im = eta * state.sigma_p / hbar - rt * state.sigma_q / (2 * eta)
    return CCSpec(eta=eta, r=r, alpha=complex(re, im), hbar=hbar)


# Residuals of the purity-preservation conditions, in report and table order.
RESIDUALS = (
    "diffusion_determinant", "mixed_balance", "cross_balance",
    "constant_sigma_qq", "constant_sigma_pp", "constant_sigma_pq",
)


def _residuals(osc: OscillatorSpec, diff: DiffusionSpec, s_qq, s_pp, s_pq) -> list:
    """(name, residual, the terms its tolerance is relative to) of each
    condition; the covariances are floats or numpy arrays alike.

    The three coefficient conditions come first.  The covariance constancy
    sigma_AB = D_AB / lam follows only for lam > 0.
    """
    hbar, lam = osc.hbar, osc.lam
    det_d = diff.d_pp * diff.d_qq - diff.d_pq**2
    hbar2_lam4 = hbar**2 * lam / 4
    residuals = [
        ("diffusion_determinant", determinant_margin(diff, lam, hbar),
         (det_d, (hbar * lam) ** 2 / 4)),
        ("mixed_balance", diff.d_pp * s_qq - diff.d_pq * s_pq - hbar2_lam4,
         (diff.d_pp * s_qq, hbar2_lam4)),
        ("cross_balance", s_pq * det_d - hbar2_lam4 * diff.d_pq,
         (s_pq * det_d, hbar2_lam4 * diff.d_pq, det_d * hbar)),
    ]
    if lam > 0:
        residuals += [
            (f"constant_sigma_{ab}", sigma - d / lam, (sigma, d / lam))
            for ab, sigma, d in (("qq", s_qq, diff.d_qq), ("pp", s_pp, diff.d_pp),
                                 ("pq", s_pq, diff.d_pq))
        ]
    return residuals


def check_pure_preserving(
    osc: OscillatorSpec, diff: DiffusionSpec, state: GaussianState
) -> PurityReport:
    """Report whether the coefficient/state pair keeps purity for all times.

    Residuals of the three coefficient conditions and of the covariance
    constancy sigma_AB = D_AB / lam are all listed; 'preserving' holds when
    every residual is below tolerance.
    """
    residuals = _residuals(osc, diff, state.sigma_qq, state.sigma_pp, state.sigma_pq)
    preserving = osc.lam > 0 and all(negligible(res, *scales) for _, res, scales in residuals)
    ccs = identify_ccs(state, osc.hbar)
    return PurityReport(
        t=state.t,
        sigma_det=state.uncertainty_det,
        gamma=purity_gamma(state, osc.hbar),
        is_pure=ccs is not None,
        r=correlation_coefficient(state),
        ccs=ccs,
        preserving=preserving,
        conditions={name: res for name, res, _ in residuals},
    )


def purity_table(
    osc: OscillatorSpec,
    diff: DiffusionSpec,
    state0: GaussianState,
    times: Sequence[float],
) -> dict[str, np.ndarray]:
    """The PurityReport fields along the closed-form trajectory from
    `state0`, one row per time of `times`, as columns.

    Keys are t, sigma_det, gamma, r, is_pure, preserving and then RESIDUALS;
    each column equals the field of check_pure_preserving row by row, and a
    residual it does not list (the constancy at lam = 0) is NaN.  sigma_det
    and gamma are the ones derived_scalars attaches to each sample.
    """
    pairs = sample_trajectory(osc, diff, state0, times)
    n = len(pairs)
    t, s_qq, s_pp, s_pq, sigma, gamma = table = np.empty((6, n))
    # Row i is filled from pair i, which is then dropped.
    for i, (state, scalars) in enumerate(pairs):
        pairs[i] = None
        table[:, i] = (state.t, state.sigma_qq, state.sigma_pp, state.sigma_pq,
                       scalars.sigma_det, scalars.gamma)
    residuals = _residuals(osc, diff, s_qq, s_pp, s_pq)
    preserving = np.full(n, osc.lam > 0)
    for _, res, scales in residuals:
        preserving &= negligible(res, *scales)
    conditions = {name: res for name, res, _ in residuals}
    return {
        "t": t,
        "sigma_det": sigma,
        "gamma": gamma,
        "r": s_pq / np.sqrt(s_qq * s_pp),
        "is_pure": saturates(sigma, osc.hbar),
        "preserving": preserving,
        **{name: np.full(n, conditions.get(name, math.nan)) for name in RESIDUALS},
    }
