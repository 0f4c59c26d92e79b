"""Physical parameters, diffusion coefficients and the named presets.

Everything here is an immutable value object.  Validation of the
diffusion-coefficient constraints is report-only (``validate``); the
oscillator itself rejects overdamped parameters at construction.
"""
from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import KW_ONLY, dataclass, fields

import numpy as np


class ParameterError(ValueError):
    """Invalid physical parameters at construction time."""


class InvalidStateError(ValueError):
    """A Gaussian state that violates the uncertainty relation."""


class ConsistencyError(RuntimeError):
    """Internal numerical consistency check failed (e.g. imaginary residue)."""


# Tolerance policy: a residual within RTOL of its scale is zero up to rounding.
# Two routes to one value agree within AGREE_RTOL, wider because near
# |mu| -> omega the two steady-state routes differ by about 2e-10 relative.
RTOL = 1e-10
AGREE_RTOL = 1e-9


def negligible(residual, *scales, rtol: float = RTOL):
    """Whether |residual| <= rtol * the largest |scale| (at least 1e-300).

    For a numpy array residual the test is elementwise, with scalar and
    array scales broadcast against it; a Python float residual gives a bool.
    """
    if isinstance(residual, np.ndarray):
        largest = functools.reduce(np.maximum, map(np.abs, scales), 1e-300)
        return np.abs(residual) <= rtol * largest
    return abs(residual) <= rtol * max([1e-300, *map(abs, scales)])


def saturates(value, hbar: float):
    """Whether `value`, a covariance determinant, equals the uncertainty
    floor hbar**2/4 up to rounding; a bool for a float, elementwise for a
    numpy array."""
    floor = hbar**2 / 4
    return negligible(value - floor, floor)


# Admissible magnitudes of hbar and boltzmann: their squares, and the
# moments and diffusion coefficients they scale, stay finite and normal.
UNIT_RANGE = (1e-100, 1e100)


def range_error(kind: type[ArithmeticError], quantity: str, **inputs) -> ArithmeticError:
    """An ArithmeticError of `kind` naming the quantity that left the float
    range and the inputs it was computed from."""
    return kind(f"{quantity} with " + ", ".join(f"{k}={v!r}" for k, v in inputs.items()))


def _check_unit(name: str, value: float) -> None:
    """Raise ParameterError unless the unit constant `name` is finite, > 0
    and within UNIT_RANGE."""
    low, high = UNIT_RANGE
    if not 0 < value < math.inf:
        raise ParameterError(f"{name} must be finite and > 0, got {value}")
    if not low <= value <= high:
        raise ParameterError(f"{name} must be within [{low:g}, {high:g}], got {value}")


@dataclass(frozen=True)
class OscillatorSpec:
    """Damped oscillator parameters: mass, frequency, friction and the
    mixing rate ``mu`` entering the Hamiltonian's symmetrized q-p term, in
    units where the reduced Planck constant is ``hbar`` and the Boltzmann
    constant ``boltzmann``.

    Only the underdamped regime ``omega > |mu|`` is supported.  The shifted
    frequency ``big_omega = sqrt(omega**2 - mu**2)`` and the ``_modes`` and
    ``_window`` constants are built once per instance; pickles hold the fields.
    """

    mass: float
    omega: float
    lam: float
    mu: float = 0.0
    _: KW_ONLY
    hbar: float = 1.0
    boltzmann: float = 1.0

    def __post_init__(self):
        _check_unit("hbar", self.hbar)
        _check_unit("boltzmann", self.boltzmann)
        if not self.mass > 0:
            raise ParameterError(f"mass must be > 0, got {self.mass}")
        if not self.omega > 0:
            raise ParameterError(f"omega must be > 0, got {self.omega}")
        if not self.lam >= 0:
            raise ParameterError(f"lam must be >= 0, got {self.lam}")
        if not self.omega > abs(self.mu):
            raise ParameterError(
                f"underdamped regime required: omega={self.omega} must exceed "
                f"|mu|={abs(self.mu)}"
            )
        try:
            big = self.big_omega
        except OverflowError:
            big = math.inf
        if not 0 < big < math.inf:
            raise ParameterError(f"sqrt(omega**2 - mu**2) must be finite and > 0, got {big}")
        if self.lam >= self.omega:
            warnings.warn(
                f"weak-coupling assumption strained: lam={self.lam} >= "
                f"omega={self.omega}",
                stacklevel=3,
            )

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @functools.cached_property
    def big_omega(self) -> float:
        return math.sqrt(self.omega**2 - self.mu**2)

    @functools.cached_property
    def _modes(self) -> tuple[np.ndarray, np.ndarray]:
        """The propagator's mode matrix T and decay rates K, read-only."""
        from .propagator import _decay_rates, _mode_matrix
        tm, rates = _mode_matrix(self), _decay_rates(self)
        tm.flags.writeable = rates.flags.writeable = False
        return tm, rates

    @functools.cached_property
    def _window(self):
        """The matched phasespace.CoherentWindow."""
        from .phasespace import CoherentWindow
        return CoherentWindow.matched(self)


@dataclass(frozen=True)
class LindbladOps:
    """Environment operators, each a linear combination ``a*p + b*q``.

    At most two linearly independent such operators exist.
    """

    ops: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        if not 1 <= len(self.ops) <= 2:
            raise ParameterError(
                f"between 1 and 2 operators required, got {len(self.ops)}"
            )
        object.__setattr__(
            self, "ops", tuple((complex(a), complex(b)) for a, b in self.ops)
        )


@dataclass(frozen=True)
class DiffusionSpec:
    """Momentum/position diffusion coefficients of the environment.

    Construction is unchecked; use :func:`validate` for the constraint report.
    """

    d_qq: float
    d_pp: float
    d_pq: float = 0.0


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class ConstraintReport:
    checks: tuple[ConstraintCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[ConstraintCheck]:
        return [c for c in self.checks if not c.passed]


def determinant_margin(diff: DiffusionSpec, lam: float, hbar: float) -> float:
    """d_pp*d_qq - d_pq**2 - (lam*hbar/2)**2; >= 0 for admissible coefficients.
    A margin that overflows to +inf, or a square that overflows, raises
    OverflowError."""
    try:
        margin = diff.d_pp * diff.d_qq - diff.d_pq**2 - (lam * hbar) ** 2 / 4
    except OverflowError:
        margin = math.inf
    if margin == math.inf:
        raise range_error(OverflowError,
                          "determinant margin d_pp*d_qq - d_pq**2 - (lam*hbar/2)**2",
                          d_pp=diff.d_pp, d_qq=diff.d_qq, d_pq=diff.d_pq, lam=lam, hbar=hbar)
    return margin


def _determinant_check(diff: DiffusionSpec, lam: float, hbar: float) -> ConstraintCheck:
    """The determinant constraint; presets that saturate it pass up to rounding."""
    det = determinant_margin(diff, lam, hbar)
    scales = (diff.d_pp * diff.d_qq, diff.d_pq**2, (lam * hbar) ** 2 / 4)
    return ConstraintCheck("determinant", det >= 0 or negligible(det, *scales), det)


def validate(diff: DiffusionSpec, osc: OscillatorSpec) -> ConstraintReport:
    """Check the three admissibility constraints on the diffusion coefficients."""
    checks = (
        ConstraintCheck("d_pp_positive", diff.d_pp > 0, diff.d_pp),
        ConstraintCheck("d_qq_positive", diff.d_qq > 0, diff.d_qq),
        _determinant_check(diff, osc.lam, osc.hbar),
    )
    return ConstraintReport(checks)


def coefficients_from_ops(ops: LindbladOps, hbar: float = 1.0) -> tuple[DiffusionSpec, float]:
    """Diffusion coefficients and friction rate induced by the environment
    operators.  The determinant constraint holds automatically
    (Cauchy-Schwarz) and is asserted numerically.
    """
    _check_unit("hbar", hbar)
    try:
        d_qq = hbar / 2 * sum(abs(a) ** 2 for a, _ in ops.ops)
        d_pp = hbar / 2 * sum(abs(b) ** 2 for _, b in ops.ops)
    except OverflowError:
        largest = max((c for op in ops.ops for c in op), key=abs)
        raise range_error(OverflowError, "|c|**2 of the largest ops coefficient c",
                          c=largest) from None
    cross = sum(a.conjugate() * b for a, b in ops.ops)
    d_pq = -hbar / 2 * cross.real
    lam = -cross.imag
    diff = DiffusionSpec(d_qq=d_qq, d_pp=d_pp, d_pq=d_pq)
    check = _determinant_check(diff, lam, hbar)
    if not check.passed:
        raise ConsistencyError(
            f"determinant constraint violated beyond rounding: margin={check.margin}"
        )
    return diff, lam


def preset_gibbs(osc: OscillatorSpec, temperature: float) -> DiffusionSpec:
    """Coefficients driving the oscillator to a thermal (Gibbs) state at the
    given bath temperature.  Requires lam > |mu|.
    """
    if not temperature > 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    if not osc.lam > abs(osc.mu):
        raise ParameterError(
            f"thermal preset requires lam > |mu| (lam={osc.lam}, mu={osc.mu})"
        )
    hbar, k = osc.hbar, osc.boltzmann
    try:
        c = 1.0 / math.tanh(hbar * osc.omega / (2 * k * temperature))
    except ZeroDivisionError:
        raise range_error(ZeroDivisionError, "1/tanh(hbar*omega/(2*boltzmann*temperature))",
                          hbar=hbar, omega=osc.omega, boltzmann=k,
                          temperature=temperature) from None
    return DiffusionSpec(
        d_qq=(osc.lam - osc.mu) / 2 * hbar / (osc.mass * osc.omega) * c,
        d_pp=(osc.lam + osc.mu) / 2 * hbar * osc.mass * osc.omega * c,
        d_pq=0.0,
    )


def preset_pure_state(osc: OscillatorSpec) -> DiffusionSpec:
    """Purity-preserving coefficients (generalized Einstein relations).

    These saturate the determinant constraint exactly: the margin is zero up
    to rounding.
    """
    hbar = osc.hbar
    big = osc.big_omega
    return DiffusionSpec(
        d_qq=hbar * osc.lam / (2 * osc.mass * big),
        d_pp=hbar * osc.lam * osc.mass * osc.omega**2 / (2 * big),
        d_pq=-hbar * osc.lam * osc.mu / (2 * big),
    )


def pure_state_op(osc: OscillatorSpec) -> LindbladOps:
    """The single environment operator realizing the purity-preserving
    coefficients (fixed phase convention)."""
    diff = preset_pure_state(osc)
    hbar = osc.hbar
    if diff.d_qq <= 0:
        raise ParameterError("pure-state operator undefined for lam = 0")
    root = cmath.sqrt(2 / (hbar * diff.d_qq))
    a = root * 1j * diff.d_qq
    b = root * (osc.lam * hbar / 2 - 1j * diff.d_pq)
    return LindbladOps(ops=((a, b),))
