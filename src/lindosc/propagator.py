"""Closed-form time evolution of the five Gaussian moments.

Means decay as damped oscillations; the three covariances follow the
complex diagonalized solution X(t) = (T exp(-Kt) T)(X(0) - X(inf)) + X(inf)
in the scaled coordinates (m*omega*sigma_qq, sigma_pp/(m*omega), sigma_pq).
A fixed-step RK4 integrator of the moment ODEs is provided as an
independent oracle for the tests.
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
)


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a Gaussian state at one time instant."""

    sigma_q: float
    sigma_p: float
    sigma_qq: float
    sigma_pp: float
    sigma_pq: float
    t: float = 0.0

    def __post_init__(self):
        if not self.sigma_qq > 0:
            raise InvalidStateError(f"sigma_qq must be > 0, got {self.sigma_qq}")
        if not self.sigma_pp > 0:
            raise InvalidStateError(f"sigma_pp must be > 0, got {self.sigma_pp}")
        if not self.uncertainty_det > 0:
            raise InvalidStateError(
                f"covariance matrix must be positive definite, det={self.uncertainty_det}"
            )

    @property
    def uncertainty_det(self) -> float:
        """Determinant of the covariance matrix."""
        return self.sigma_qq * self.sigma_pp - self.sigma_pq**2


def require_physical(state: GaussianState, hbar: float) -> float:
    """The covariance determinant of `state`; rejects states below the
    generalized uncertainty bound hbar**2/4."""
    det = state.uncertainty_det
    floor = hbar**2 / 4
    margin = det - floor
    if margin < 0 and not negligible(margin, floor):
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


@dataclass(frozen=True)
class ScaledCovariances:
    """Covariances in common action units: (m*w*s_qq, s_pp/(m*w), s_pq)."""

    x1: float
    x2: float
    x3: float

    @classmethod
    def from_state(cls, osc: OscillatorSpec, state: GaussianState) -> "ScaledCovariances":
        mw = osc.mass * osc.omega
        return cls(mw * state.sigma_qq, state.sigma_pp / mw, state.sigma_pq)

    def to_covariances(self, osc: OscillatorSpec) -> tuple[float, float, float]:
        mw = osc.mass * osc.omega
        return self.x1 / mw, self.x2 * mw, self.x3

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of the evolved state with derived diagnostics."""

    entries: tuple[tuple[GaussianState, "object"], ...]

    def __post_init__(self):
        times = [s.t for s, _ in self.entries]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ParameterError("trajectory times must be strictly increasing")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def states(self) -> list[GaussianState]:
        return [s for s, _ in self.entries]


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
    residue = np.max(np.abs(z.imag))
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


def steady_covariances(osc: OscillatorSpec, diff: DiffusionSpec) -> ScaledCovariances:
    """Asymptotic covariances; requires lam > 0.

    Computed from the explicit rational expressions and cross-checked
    against the diagonalized matrix form T K^-1 T D.
    """
    if not osc.lam > 0:
        raise ParameterError("no steady state for lam = 0")
    lam, mu, om, m = osc.lam, osc.mu, osc.omega, osc.mass
    d = 2 * lam * (lam**2 + om**2 - mu**2)
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
    mw = m * om
    explicit = np.array([mw * s_qq, s_pp / mw, s_pq])

    tm = _mode_matrix(osc)
    matrix = tm @ ((tm @ _drive_vector(osc, diff)) / _decay_rates(osc))
    scale = np.max(np.abs(explicit))
    matrix = _real_checked(matrix, scale)
    if not negligible(np.max(np.abs(matrix - explicit)), scale, rtol=AGREE_RTOL):
        raise ConsistencyError(
            f"steady-state cross-check failed: {explicit} vs {matrix}"
        )
    return ScaledCovariances(*explicit)


def steady_state(osc: OscillatorSpec, diff: DiffusionSpec) -> GaussianState:
    """Asymptotic Gaussian state (zero means)."""
    s_qq, s_pp, s_pq = steady_covariances(osc, diff).to_covariances(osc)
    return GaussianState(0.0, 0.0, s_qq, s_pp, s_pq, t=math.inf)


def evolve_covariances(
    osc: OscillatorSpec, diff: DiffusionSpec, state0: GaussianState, t
):
    """Covariances at time(s) t via the diagonalized complex solution.

    Returns a ScaledCovariances for scalar t, or an (nt, 3) real array in
    scaled coordinates for an array of times.  lam = 0 is supported through
    the bounded oscillatory variation-of-constants form.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    tm = _mode_matrix(osc)
    rates = _decay_rates(osc)
    x0 = ScaledCovariances.from_state(osc, state0).as_array()
    decay = np.exp(-np.outer(t_arr, rates))  # (nt, 3)
    if osc.lam > 0:
        xinf = steady_covariances(osc, diff).as_array()
        dev = tm @ x0.astype(complex) - tm @ xinf.astype(complex)
        xt = (decay * dev) @ tm.T + xinf
    else:
        # variation of constants: phi_i = (1 - exp(-k_i t)) / k_i, with the
        # k -> 0 limit t for the non-decaying mode
        drive = tm @ _drive_vector(osc, diff).astype(complex)
        kt = np.outer(t_arr, rates)
        small = np.abs(kt) < 1e-8
        phi = np.where(small, t_arr[:, None], (1 - decay) / np.where(rates == 0, 1, rates))
        phi = np.where(rates[None, :] == 0, t_arr[:, None], phi)
        xt = (decay * (tm @ x0.astype(complex))) @ tm.T + (phi * drive) @ tm.T
    scale = float(np.max(np.abs(xt)))
    xt = _real_checked(xt, scale)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return ScaledCovariances(*xt[0])
    return xt


def evolve(osc: OscillatorSpec, diff: DiffusionSpec, state0: GaussianState, t: float) -> GaussianState:
    """Full five-moment state at time t >= 0."""
    if not t >= 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    sq, sp = evolve_means(osc, state0, t)
    cov = evolve_covariances(osc, diff, state0, t)
    s_qq, s_pp, s_pq = cov.to_covariances(osc)
    return GaussianState(sq, sp, s_qq, s_pp, s_pq, t=state0.t + t)


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
    iterate.  Test oracle only.
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


def sample_trajectory(
    osc: OscillatorSpec,
    diff: DiffusionSpec,
    state0: GaussianState,
    times: Sequence[float],
    thermal_temperature: float | None = None,
) -> Trajectory:
    """Closed-form evaluation of the state at each time, with derived
    entropy/purity scalars attached."""
    from .entropy import derived_scalars
    from .phasespace import CoherentWindow

    times = list(times)
    if any(t < 0 for t in times):
        raise ParameterError("times must be >= 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ParameterError("times must be strictly increasing")
    if not times:
        return Trajectory(entries=())
    t_arr = np.asarray(times, dtype=float)
    cov = ScaledCovariances(*evolve_covariances(osc, diff, state0, t_arr).T)
    moments = (*evolve_means(osc, state0, t_arr), *cov.to_covariances(osc))
    window = CoherentWindow.matched(osc)
    entries = []
    # Rows hold Python floats: scalar arithmetic on numpy scalars is slower.
    for t, *row in zip(t_arr.tolist(), *(m.tolist() for m in moments)):
        state = GaussianState(*row, t=state0.t + t)
        entries.append((state, derived_scalars(
            osc, state, diff=diff, window=window, thermal_temperature=thermal_temperature
        )))
    return Trajectory(entries=tuple(entries))
