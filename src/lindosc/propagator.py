"""Closed-form time evolution of the five Gaussian moments.

Means decay as damped oscillations; the three covariances follow the
complex diagonalized solution X(t) = (T exp(-Kt) T)(X(0) - X(inf)) + X(inf)
in the scaled coordinates (m*omega*sigma_qq, sigma_pp/(m*omega), sigma_pq).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    AGREE_RTOL,
    ConsistencyError,
    DiffusionSpec,
    InvalidStateError,
    OscillatorSpec,
    ParameterError,
    negligible,
    range_error,
    saturates,
)


@dataclass(frozen=True, slots=True)
class GaussianState:
    """First and second moments of a Gaussian state at one time instant."""

    sigma_q: float
    sigma_p: float
    sigma_qq: float
    sigma_pp: float
    sigma_pq: float
    t: float = 0.0

    def __post_init__(self):
        if not (abs(self.sigma_q) < math.inf and abs(self.sigma_p) < math.inf):
            raise InvalidStateError(
                f"means must be finite, got sigma_q={self.sigma_q}, sigma_p={self.sigma_p}"
            )
        if not self.sigma_qq > 0:
            raise InvalidStateError(f"sigma_qq must be > 0, got {self.sigma_qq}")
        if not self.sigma_pp > 0:
            raise InvalidStateError(f"sigma_pp must be > 0, got {self.sigma_pp}")
        det = self.uncertainty_det
        if not 0 < det < math.inf:
            raise InvalidStateError(
                "covariance matrix must be positive definite with a finite "
                f"determinant, det={det}"
            )

    @property
    def uncertainty_det(self) -> float:
        """Determinant of the covariance matrix."""
        try:
            return self.sigma_qq * self.sigma_pp - self.sigma_pq**2
        except OverflowError:
            raise range_error(OverflowError, "sigma_pq**2", sigma_pq=self.sigma_pq) from None


def require_physical(state: GaussianState, hbar: float) -> float:
    """The covariance determinant of `state`; rejects states below the
    generalized uncertainty bound hbar**2/4."""
    det = state.uncertainty_det
    floor = hbar**2 / 4
    if det < floor and not saturates(det, hbar):
        raise InvalidStateError(f"uncertainty determinant {det} below hbar^2/4={floor}")
    return det


def ground_state(osc: OscillatorSpec) -> GaussianState:
    """Oscillator ground-state moments (zero means, minimum uncertainty)."""
    hbar = osc.hbar
    return GaussianState(
        sigma_q=0.0,
        sigma_p=0.0,
        sigma_qq=hbar / (2 * osc.mass * osc.omega),
        sigma_pp=hbar * osc.mass * osc.omega / 2,
        sigma_pq=0.0,
    )


def _unscaled(osc: OscillatorSpec, x1, x2, x3):
    """(sigma_qq, sigma_pp, sigma_pq) from the scaled coordinates
    (m*w*sigma_qq, sigma_pp/(m*w), sigma_pq); floats or arrays."""
    mw = osc.mass * osc.omega
    return x1 / mw, x2 * mw, x3


def _mode_matrix(osc: OscillatorSpec) -> np.ndarray:
    om, mu, big = osc.omega, osc.mu, osc.big_omega
    return (1 / (2j * big)) * np.array(
        [
            [mu + 1j * big, mu - 1j * big, 2 * om],
            [mu - 1j * big, mu + 1j * big, 2 * om],
            [-om, -om, -2 * mu],
        ]
    )


def _decay_rates(osc: OscillatorSpec) -> np.ndarray:
    big = osc.big_omega
    return np.array(
        [2 * (osc.lam - 1j * big), 2 * (osc.lam + 1j * big), 2 * osc.lam]
    )


def _drive_vector(osc: OscillatorSpec, diff: DiffusionSpec) -> np.ndarray:
    mw = osc.mass * osc.omega
    return np.array([2 * mw * diff.d_qq, 2 * diff.d_pp / mw, 2 * diff.d_pq])


def _real_checked(z: np.ndarray, scale: float) -> np.ndarray:
    residue = abs(z.imag).max()
    if not negligible(residue, scale):
        raise ConsistencyError(
            f"imaginary residue {residue} exceeds tolerance at scale {scale}"
        )
    return z.real


def evolve_means(osc: OscillatorSpec, state0: GaussianState, t):
    """Mean position and momentum at time(s) t (closed form)."""
    t = np.asarray(t, dtype=float)
    big, mu, m = osc.big_omega, osc.mu, osc.mass
    c, s = np.cos(big * t), np.sin(big * t)
    damp = np.exp(-osc.lam * t)
    sq = damp * ((c + mu / big * s) * state0.sigma_q + s / (m * big) * state0.sigma_p)
    sp = damp * (
        -m * osc.omega**2 / big * s * state0.sigma_q + (c - mu / big * s) * state0.sigma_p
    )
    if sq.ndim == 0:
        return float(sq), float(sp)
    return sq, sp


def steady_covariances(osc: OscillatorSpec, diff: DiffusionSpec) -> np.ndarray:
    """Asymptotic covariances in scaled coordinates, shape (3,); requires lam > 0.

    Computed from the explicit rational expressions and cross-checked
    against the diagonalized matrix form T K^-1 T D.
    """
    if not osc.lam > 0:
        raise ParameterError("no steady state for lam = 0")
    lam, mu, om, m = osc.lam, osc.mu, osc.omega, osc.mass
    d = 2 * lam * (lam**2 + om**2 - mu**2)
    try:
        s_qq = (
            m**2 * (2 * lam * (lam + mu) + om**2) * diff.d_qq
            + diff.d_pp
            + 2 * m * (lam + mu) * diff.d_pq
        ) / (m**2 * d)
        s_pp = (
            (m * om) ** 2 * om**2 * diff.d_qq
            + (2 * lam * (lam - mu) + om**2) * diff.d_pp
            - 2 * m * om**2 * (lam - mu) * diff.d_pq
        ) / d
        s_pq = (
            -(lam + mu) * (m * om) ** 2 * diff.d_qq
            + (lam - mu) * diff.d_pp
            + 2 * m * (lam**2 - mu**2) * diff.d_pq
        ) / (m * d)
    except ZeroDivisionError:
        raise range_error(ZeroDivisionError,
                          "steady-state denominator m**2 * 2*lam*(lam**2 + omega**2 - mu**2)",
                          m=m, omega=om, lam=lam, mu=mu) from None
    except OverflowError:  # m**2 or (m*omega)**2
        raise range_error(OverflowError, "steady-state covariances s_qq, s_pp, s_pq",
                          m=m, omega=om, lam=lam, mu=mu) from None
    mw = m * om
    explicit = np.array([mw * s_qq, s_pp / mw, s_pq])

    tm, rates = osc._modes
    matrix = tm @ ((tm @ _drive_vector(osc, diff)) / rates)
    scale = abs(explicit).max()
    matrix = _real_checked(matrix, scale)
    if not negligible(abs(matrix - explicit).max(), scale, rtol=AGREE_RTOL):
        raise ConsistencyError(
            f"steady-state cross-check failed: {explicit} vs {matrix}"
        )
    return explicit


def steady_state(osc: OscillatorSpec, diff: DiffusionSpec) -> GaussianState:
    """Asymptotic Gaussian state (zero means)."""
    s_qq, s_pp, s_pq = _unscaled(osc, *steady_covariances(osc, diff).tolist())
    return GaussianState(0.0, 0.0, s_qq, s_pp, s_pq, t=math.inf)


def evolve_covariances(
    osc: OscillatorSpec, diff: DiffusionSpec, state0: GaussianState, t
):
    """Covariances at time(s) t via the diagonalized complex solution.

    Returns a real array in scaled coordinates: shape (3,) for a scalar t,
    (nt, 3) for an array of times.  lam = 0 is supported through
    the bounded oscillatory variation-of-constants form.
    """
    t_arr = np.asarray(t, dtype=float)
    t_col = t_arr.reshape(-1, 1)
    tm, rates = osc._modes
    mw = osc.mass * osc.omega
    x0 = np.array([mw * state0.sigma_qq, state0.sigma_pp / mw, state0.sigma_pq])
    decay = np.exp(-(t_col * rates))  # (nt, 3)
    if osc.lam > 0:
        xinf = steady_covariances(osc, diff)
        dev = tm @ x0.astype(complex) - tm @ xinf.astype(complex)
        xt = (decay * dev) @ tm.T + xinf
    else:
        # variation of constants: phi_i = (1 - exp(-k_i t)) / k_i, with the
        # k -> 0 limit t for the non-decaying mode
        drive = tm @ _drive_vector(osc, diff).astype(complex)
        phi = np.where(rates == 0, t_col, (1 - decay) / np.where(rates == 0, 1, rates))
        xt = (decay * (tm @ x0.astype(complex))) @ tm.T + (phi * drive) @ tm.T
    xt = _real_checked(xt, float(abs(xt).max()))
    return xt[0] if t_arr.ndim == 0 else xt


def evolve(osc: OscillatorSpec, diff: DiffusionSpec, state0: GaussianState, t: float) -> GaussianState:
    """Full five-moment state at one finite time t >= 0."""
    _check_times([t], "t")
    sq, sp = evolve_means(osc, state0, t)
    s_qq, s_pp, s_pq = _unscaled(osc, *evolve_covariances(osc, diff, state0, t).tolist())
    return GaussianState(sq, sp, s_qq, s_pp, s_pq, t=float(state0.t + t))


def _check_times(times: list, name: str = "times") -> None:
    """The one time rule: reject an infinite, a negative or NaN, or a
    non-increasing time; `name` is what the error message calls `times`."""
    if any(map(math.isinf, times)):
        raise ParameterError(f"{name} must be finite")
    if not all(t >= 0 for t in times):  # NaN fails t >= 0 too
        raise ParameterError(f"{name} must be >= 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ParameterError(f"{name} must be strictly increasing")


def sample_trajectory(
    osc: OscillatorSpec,
    diff: DiffusionSpec,
    state0: GaussianState,
    times: Sequence[float],
) -> list:
    """(state, derived_scalars) pairs of the closed-form state at each time
    of `times`, in order; [] for no times."""
    from .entropy import derived_scalars

    times = list(times)
    _check_times(times)
    if not times:
        return []
    t_arr = np.asarray(times, dtype=float)
    cov = evolve_covariances(osc, diff, state0, t_arr).T
    # A moment beyond the float range is inf, which GaussianState refuses.
    with np.errstate(over="ignore"):
        moments = (*evolve_means(osc, state0, t_arr), *_unscaled(osc, *cov))
    pairs = []
    # Rows hold Python floats: scalar arithmetic on numpy scalars is slower.
    for t, *row in zip(t_arr.tolist(), *(m.tolist() for m in moments)):
        state = GaussianState(*row, t=state0.t + t)
        pairs.append((state, derived_scalars(osc, state, diff=diff)))
    return pairs
