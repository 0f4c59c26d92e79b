import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from lindosc import (
    DiffusionSpec,
    LindbladOps,
    OscillatorSpec,
    ParameterError,
    coefficients_from_ops,
    preset_gibbs,
    preset_pure_state,
    validate,
)
from lindosc.model import RTOL, determinant_margin, negligible, pure_state_op, saturates
from lindosc.sweeps import random_ops, random_oscillator


def test_unit_system_defaults_and_positivity():
    osc = OscillatorSpec(1.0, 1.0, 0.1)
    assert osc.hbar == 1.0 and osc.boltzmann == 1.0
    with pytest.raises(ParameterError):
        OscillatorSpec(1.0, 1.0, 0.1, hbar=0.0)
    with pytest.raises(ParameterError):
        OscillatorSpec(1.0, 1.0, 0.1, boltzmann=-1.0)


def test_units_are_keyword_only():
    with pytest.raises(TypeError):
        OscillatorSpec(1.0, 1.0, 0.1, 0.0, 2.0)


NON_FINITE = [math.inf, -math.inf, math.nan]
OUT_OF_RANGE = [1e155, 1.0000000000000002e100, 9.9e-101, 1e-200, 5e-324]


@pytest.mark.parametrize("field", ["hbar", "boltzmann"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_unit_system_rejects_non_finite(field, value):
    with pytest.raises(ParameterError, match=f"{field} must be finite"):
        OscillatorSpec(1.0, 1.0, 0.1, **{field: value})


@pytest.mark.parametrize("field", ["hbar", "boltzmann"])
@pytest.mark.parametrize("value", OUT_OF_RANGE)
def test_unit_system_rejects_magnitudes_outside_range(field, value):
    with pytest.raises(ParameterError, match=rf"{field} must be within \[1e-100, 1e\+100\]"):
        OscillatorSpec(1.0, 1.0, 0.1, **{field: value})


def test_unit_system_accepts_range_ends():
    assert OscillatorSpec(1.0, 1.0, 0.1, hbar=1e-100, boltzmann=1e100).hbar == 1e-100
    assert OscillatorSpec(1.0, 1.0, 0.1, hbar=1e100, boltzmann=1e-100).boltzmann == 1e-100


@pytest.mark.parametrize("hbar", [0.0, -1.0, *NON_FINITE, *OUT_OF_RANGE])
def test_coefficients_from_ops_rejects_hbar_as_the_oscillator_does(hbar):
    with pytest.raises(ParameterError) as refused:
        OscillatorSpec(1.0, 1.0, 0.1, hbar=hbar)
    with pytest.raises(ParameterError, match=f"^{re.escape(str(refused.value))}$"):
        coefficients_from_ops(LindbladOps(ops=((0.3j, 0.4),)), hbar=hbar)


def test_negligible_zero_residual_without_scale():
    assert negligible(0.0)
    assert negligible(0.0, 0.0, 0.0)
    assert not negligible(1e-300, 0.0)


def test_negligible_takes_scales_by_magnitude():
    assert negligible(1e-11, -1.0)
    assert negligible(-1e-11, -1.0, 0.5)
    assert not negligible(1e-9, -1.0)
    assert negligible(-1e-9, -2.0, 1e-3, rtol=1e-9)


def test_negligible_boundary_is_inclusive():
    scale = 4.0
    assert negligible(RTOL * scale, scale)
    assert negligible(-RTOL * scale, scale)
    assert not negligible(math.nextafter(RTOL * scale, 1.0), scale)
    assert not negligible(math.nan, 1.0)


def test_overdamped_rejected():
    with pytest.raises(ParameterError, match="underdamped"):
        OscillatorSpec(mass=1, omega=1, lam=0.1, mu=1.5)
    with pytest.raises(ParameterError, match="underdamped"):
        OscillatorSpec(mass=1, omega=1, lam=0.1, mu=-1.0)


def test_big_omega():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.1, mu=0.6)
    assert osc.big_omega == pytest.approx(math.sqrt(1 - 0.36), rel=1e-15)


@pytest.mark.parametrize("omega", [1e-300, 1e200])
def test_big_omega_float64_cannot_hold_is_rejected(omega):
    # 1e-300**2 rounds to 0 and 1e200**2 overflows.
    with pytest.raises(ParameterError, match=r"sqrt\(omega\*\*2 - mu\*\*2\) must be finite"):
        OscillatorSpec(mass=1, omega=omega, lam=0.0)


def test_spec_constants_are_kept_on_the_instance():
    spec = OscillatorSpec(mass=1.3, omega=0.9, lam=0.2, mu=0.1)
    twin = OscillatorSpec(mass=1.3, omega=0.9, lam=0.2, mu=0.1)
    pickled = pickle.dumps(spec)
    assert spec._modes is spec._modes and spec._window is spec._window
    assert spec._modes is not twin._modes and spec._window is not twin._window
    for array in spec._modes:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    assert spec == twin and hash(spec) == hash(twin)
    assert pickle.dumps(spec) == pickled == pickle.dumps(twin)
    copy = pickle.loads(pickled)
    assert copy == spec and "_modes" not in vars(copy)
    assert not copy._modes[0].flags.writeable
    replaced = dataclasses.replace(spec, lam=0.3)
    assert replaced._modes is not spec._modes and replaced.lam == 0.3


def test_strong_coupling_warns():
    with pytest.warns(UserWarning, match="weak-coupling"):
        OscillatorSpec(mass=1, omega=1, lam=1.5, mu=0.0)


def test_lindblad_ops_count():
    with pytest.raises(ParameterError):
        LindbladOps(ops=())
    with pytest.raises(ParameterError):
        LindbladOps(ops=((1, 0), (0, 1), (1, 1)))


def test_coefficients_zero_ops():
    diff, lam = coefficients_from_ops(LindbladOps(ops=((0, 0),)))
    assert diff == DiffusionSpec(0.0, 0.0, 0.0)
    assert lam == 0.0
    report = validate(diff, OscillatorSpec(mass=1, omega=1, lam=0.0))
    assert not report.all_passed
    failed = {c.name for c in report.failed()}
    assert {"d_pp_positive", "d_qq_positive"} <= failed


def test_coefficients_brownian_single_op():
    # single operator (2D)^{-1/2}(q + 2i gamma D p / hbar) with D = hbar^2/(8 m gamma k T)
    gamma, temp, m = 0.1, 2.0, 1.0
    d = 1.0 / (8 * m * gamma * temp)
    a = 2j * gamma * d / math.sqrt(2 * d)
    b = 1.0 / math.sqrt(2 * d)
    diff, lam = coefficients_from_ops(LindbladOps(ops=((a, b),)))
    assert lam == pytest.approx(gamma, rel=1e-14)
    # expand |a|^2, |b|^2 by hand: D_qq = gamma^2 D, D_pp = 1/(4D) = 2 m gamma k T
    assert diff.d_qq == pytest.approx(gamma**2 * d, rel=1e-14)
    assert diff.d_pp == pytest.approx(2 * m * gamma * temp, rel=1e-14)
    assert diff.d_pq == pytest.approx(0.0, abs=1e-16)
    # this operator saturates the determinant constraint
    margin = determinant_margin(diff, lam, 1.0)
    assert abs(margin) < 1e-14 * diff.d_pp * diff.d_qq


def test_pure_state_op_undefined_without_friction():
    with pytest.raises(ParameterError, match="^pure-state operator undefined for lam = 0$"):
        pure_state_op(OscillatorSpec(1.0, 1.0, 0.0))


def test_coefficients_pure_state_op_roundtrip():
    osc = OscillatorSpec(mass=1.3, omega=1.1, lam=0.2, mu=0.3)
    ops = pure_state_op(osc)
    diff, lam = coefficients_from_ops(ops, osc.hbar)
    preset = preset_pure_state(osc)
    assert lam == pytest.approx(osc.lam, rel=1e-12)
    assert diff.d_qq == pytest.approx(preset.d_qq, rel=1e-12)
    assert diff.d_pp == pytest.approx(preset.d_pp, rel=1e-12)
    assert diff.d_pq == pytest.approx(preset.d_pq, rel=1e-12)
    # [V, V+] = i hbar (a* b - a b*) = 2 hbar lambda
    (a, b), = ops.ops
    comm = 1j * osc.hbar * (a.conjugate() * b - a * b.conjugate())
    assert comm.imag == pytest.approx(0.0, abs=1e-14)
    assert comm.real == pytest.approx(2 * osc.hbar * osc.lam, rel=1e-12)


def test_coefficients_random_ops_satisfy_determinant(rng):
    for _ in range(1000):
        diff, lam = coefficients_from_ops(random_ops(rng))
        scale = max(diff.d_pp * diff.d_qq, (lam / 2) ** 2, 1e-30)
        assert determinant_margin(diff, lam, 1.0) >= -1e-12 * scale


def test_validate_gibbs_passes():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.1)
    diff = preset_gibbs(osc, temperature=1.0)
    assert validate(diff, osc).all_passed


def test_validate_determinant_failure():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.1)
    d = osc.hbar * osc.lam / 2 * 0.9
    report = validate(DiffusionSpec(d_qq=d, d_pp=d, d_pq=0.0), osc)
    assert not report.all_passed
    [determinant] = [c for c in report.checks if c.name == "determinant"]
    assert determinant.margin < 0


def test_overflowed_determinant_margin_raises():
    with pytest.raises(OverflowError) as info:
        determinant_margin(DiffusionSpec(d_qq=1e200, d_pp=1e200), 0.1, 1.0)
    assert str(info.value) == ("determinant margin d_pp*d_qq - d_pq**2 - (lam*hbar/2)**2 with "
                               "d_pp=1e+200, d_qq=1e+200, d_pq=0.0, lam=0.1, hbar=1.0")
    # A margin that overflows below zero is a failed constraint, not an error.
    assert determinant_margin(DiffusionSpec(d_qq=-1e200, d_pp=1e200), 0.1, 1.0) == -math.inf


def test_preset_gibbs_limits():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.0)
    hot = preset_gibbs(osc, temperature=1e6)
    coth = 1 / math.tanh(5e-7)
    assert hot.d_pp == pytest.approx(0.1 * coth, rel=1e-12)
    assert hot.d_qq == pytest.approx(0.1 * coth, rel=1e-12)
    assert hot.d_pq == 0.0
    cold = preset_gibbs(osc, temperature=1e-6)
    assert cold.d_pp == pytest.approx(osc.lam * 0.5, rel=1e-12)
    assert cold.d_qq == pytest.approx(osc.lam * 0.5, rel=1e-12)


def test_preset_gibbs_rejects_weak_friction():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.1, mu=0.2)
    with pytest.raises(ParameterError, match=r"lam > \|mu\|"):
        preset_gibbs(osc, temperature=1.0)
    with pytest.raises(ParameterError):
        preset_gibbs(OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.1), temperature=0.0)


def test_preset_gibbs_variance_ratio(rng):
    for _ in range(50):
        osc = OscillatorSpec(
            mass=rng.uniform(0.3, 3.0), omega=rng.uniform(0.3, 3.0),
            lam=rng.uniform(0.05, 0.3), mu=0.0,
        )
        temp = 10 ** rng.uniform(-2, 2)
        diff = preset_gibbs(osc, temp)
        assert diff.d_pp / diff.d_qq == pytest.approx((osc.mass * osc.omega) ** 2, rel=1e-12)


def test_preset_pure_state_values():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.1, mu=0.0)
    diff = preset_pure_state(osc)
    assert diff.d_qq == pytest.approx(0.05, rel=1e-15)
    assert diff.d_pp == pytest.approx(0.05, rel=1e-15)
    assert diff.d_pq == 0.0


def test_preset_pure_state_saturates_determinant(rng):
    for _ in range(1000):
        osc = random_oscillator(rng, lam_range=(0.01, 0.5), mu_frac=0.9)
        diff = preset_pure_state(osc)
        margin = determinant_margin(diff, osc.lam, osc.hbar)
        assert abs(margin) <= 1e-14 * diff.d_pp * diff.d_qq


def test_negligible_scalar_call_returns_bool():
    assert negligible(1e-11, -1.0) is True
    assert negligible(1e-9, -1.0) is False
    assert negligible(0.0) is True


def test_negligible_elementwise_matches_scalar_calls(rng):
    n = 400
    scale_a = rng.standard_normal(n) * np.exp(rng.uniform(-20, 20, n))
    scale_a[:10] = 0.0
    residual = scale_a * rng.uniform(-2e-10, 2e-10, n)
    residual[10:20] = RTOL * np.abs(scale_a[10:20])  # on the inclusive boundary
    residual[20:30] = np.nextafter(residual[10:20], 1.0)
    residual[:5] = 0.0
    residual[30] = math.nan
    scale_b = 1e-3
    for rtol in (RTOL, 1e-9):
        got = negligible(residual, scale_a, scale_b, rtol=rtol)
        assert got.dtype == bool and got.shape == (n,)
        expected = [negligible(r, a, scale_b, rtol=rtol)
                    for r, a in zip(residual.tolist(), scale_a.tolist())]
        assert got.tolist() == expected
    assert 0 < negligible(residual, scale_a).sum() < n
    assert negligible(np.zeros(3)).all()

    # saturates(det, hbar) is the same test against the floor hbar**2/4.
    for hbar in (1.0, 0.3, 1e-40):
        floor = hbar**2 / 4
        det = floor * (1 + rng.uniform(-2e-10, 2e-10, n))
        # the largest det whose excess over the floor is on the inclusive
        # boundary, and the next float above it; det - floor is exact there
        edge = floor * (1 + RTOL)
        while edge - floor > RTOL * floor:
            edge = math.nextafter(edge, 0.0)
        while math.nextafter(edge, 1.0) - floor <= RTOL * floor:
            edge = math.nextafter(edge, 1.0)
        det[:3] = edge, math.nextafter(edge, 1.0), floor
        det[3] = math.nan
        got = saturates(det, hbar)
        assert got.dtype == bool and got.shape == (n,)
        expected = [negligible(d - floor, floor) for d in det.tolist()]
        assert got.tolist() == expected == [saturates(d, hbar) for d in det.tolist()]
        assert got[:4].tolist() == [True, False, True, False]
        assert 0 < got.sum() < n
        assert all(type(saturates(d, hbar)) is bool for d in det[:4].tolist())
