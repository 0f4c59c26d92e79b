import math

import numpy as np
import pytest

from lindosc import (
    CCSpec,
    DiffusionSpec,
    GaussianState,
    OscillatorSpec,
    ParameterError,
    ground_state,
    preset_gibbs,
    preset_pure_state,
    steady_state,
)
from lindosc.entropy import fluctuation_energy
from lindosc.propagator import sample_trajectory
from lindosc.purity import (
    RESIDUALS,
    check_pure_preserving,
    correlation_coefficient,
    identify_ccs,
    purity_table,
)
from lindosc.sweeps import random_diffusion, random_oscillator, random_state


def test_correlation_coefficient_basic():
    assert correlation_coefficient(GaussianState(0, 0, 1.0, 1.0, 0.0)) == 0.0
    state = GaussianState(0, 0, 2.0, 0.5, 0.6)
    assert correlation_coefficient(state) == pytest.approx(0.6, rel=1e-14)


def test_correlation_pure_preset_steady(rng):
    # r relaxes to -mu/omega on the purity-preserving manifold
    for _ in range(50):
        osc = random_oscillator(rng, mu_frac=0.8)
        state = steady_state(osc, preset_pure_state(osc))
        assert correlation_coefficient(state) == pytest.approx(
            -osc.mu / osc.omega, rel=1e-12
        )


def test_identify_ccs_ground_state():
    osc = OscillatorSpec(mass=1.5, omega=0.8, lam=0.1)
    ccs = identify_ccs(ground_state(osc), hbar=osc.hbar)
    assert ccs is not None
    assert ccs.r == pytest.approx(0.0, abs=1e-15)
    assert ccs.eta == pytest.approx(math.sqrt(osc.hbar / (2 * osc.mass * osc.omega)), rel=1e-14)
    assert ccs.alpha == 0


def test_identify_ccs_thermal_returns_none():
    assert identify_ccs(GaussianState(0, 0, 1.5, 1.5, 0.0)) is None


def test_identify_ccs_roundtrip(rng):
    for _ in range(200):
        orig = CCSpec(
            eta=float(np.exp(rng.uniform(-1, 1))),
            r=float(rng.uniform(-0.95, 0.95)),
            alpha=complex(rng.normal(), rng.normal()),
        )
        back = identify_ccs(orig.state())
        assert back is not None
        assert back.eta == pytest.approx(orig.eta, rel=1e-12)
        assert back.r == pytest.approx(orig.r, abs=1e-12)
        assert back.alpha.real == pytest.approx(orig.alpha.real, abs=1e-11)
        assert back.alpha.imag == pytest.approx(orig.alpha.imag, abs=1e-11)


def test_identify_ccs_pure_preset_steady():
    osc = OscillatorSpec(mass=1.1, omega=1.0, lam=0.12, mu=0.3)
    ccs = identify_ccs(steady_state(osc, preset_pure_state(osc)), hbar=osc.hbar)
    assert ccs is not None
    assert ccs.r == pytest.approx(-0.3, rel=1e-12)


def test_pure_preserving_detected(rng):
    for _ in range(100):
        osc = random_oscillator(rng, mu_frac=0.8)
        diff = preset_pure_state(osc)
        report = check_pure_preserving(osc, diff, steady_state(osc, diff))
        assert report.preserving
        assert report.is_pure
        assert report.ccs is not None
        for res in report.conditions.values():
            assert abs(res) < 1e-10


def test_gibbs_not_pure_preserving():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.0)
    diff = preset_gibbs(osc, temperature=1.0)
    report = check_pure_preserving(osc, diff, ground_state(osc))
    assert not report.preserving


def test_perturbed_coefficients_detected():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.15, mu=0.2)
    base = preset_pure_state(osc)
    state = steady_state(osc, base)
    perturbed = DiffusionSpec(base.d_qq, base.d_pp, base.d_pq + 1e-3)
    report = check_pure_preserving(osc, perturbed, state)
    assert not report.preserving


def test_frictionless_never_preserving():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.0, mu=0.0)
    report = check_pure_preserving(
        osc, DiffusionSpec(0.0, 0.0, 0.0), ground_state(osc)
    )
    assert not report.preserving
    assert "constant_sigma_qq" not in report.conditions


def test_purity_scan_pure_manifold_stays_pure():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.1, mu=0.25)
    diff = preset_pure_state(osc)
    steady = steady_state(osc, diff)
    start = GaussianState(1.0, -0.4, steady.sigma_qq, steady.sigma_pp, steady.sigma_pq)
    times = np.linspace(0, 30, 61)
    table = purity_table(osc, diff, start, times)
    assert table["is_pure"].all()
    assert table["gamma"] == pytest.approx(1.0, abs=1e-12)
    assert table["preserving"].all()
    for state, _ in sample_trajectory(osc, diff, start, times):
        assert identify_ccs(state, osc.hbar) is not None


def test_purity_scan_gibbs_decoheres_monotonically():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.0)
    diff = preset_gibbs(osc, temperature=2.0)
    gammas = purity_table(osc, diff, ground_state(osc), np.linspace(0, 60, 121))["gamma"]
    assert gammas[0] == pytest.approx(1.0, abs=1e-12)
    assert all(b <= a + 1e-12 for a, b in zip(gammas, gammas[1:]))
    gamma_inf = 0.5 / math.sqrt(steady_state(osc, diff).uncertainty_det)
    assert gammas[-1] == pytest.approx(gamma_inf, abs=1e-8)


def test_purity_scan_off_manifold_start_bounded():
    # pure but mismatched start: stays physical, gamma never above 1
    osc = OscillatorSpec(mass=1, omega=1, lam=0.15, mu=0.1)
    diff = preset_pure_state(osc)
    start = CCSpec(eta=1.3, r=0.4, alpha=0.2 + 0.1j).state()
    gammas = purity_table(osc, diff, start, np.linspace(0, 100, 81))["gamma"]
    assert (gammas <= 1.0 + 1e-12).all()
    assert gammas[-1] == pytest.approx(1.0, abs=1e-8)


def test_energy_minimal_on_pure_manifold(rng):
    # the purity-preserving steady state minimizes the fluctuation energy
    # over all pure states; minimum value hbar*Omega/2
    osc = OscillatorSpec(mass=1.2, omega=1.1, lam=0.1, mu=0.35)
    e_star = fluctuation_energy(osc, steady_state(osc, preset_pure_state(osc)))
    assert e_star == pytest.approx(osc.hbar * osc.big_omega / 2, rel=1e-12)
    for _ in range(1000):
        ccs = CCSpec(
            eta=float(np.exp(rng.uniform(-1.5, 1.5))),
            r=float(rng.uniform(-0.99, 0.99)),
            hbar=osc.hbar,
        )
        assert fluctuation_energy(osc, ccs.state()) >= e_star - 1e-12


def test_preserving_equivalences(rng):
    # on the preserving manifold the three coefficient conditions and the
    # constancy conditions all hold simultaneously
    for _ in range(100):
        osc = random_oscillator(rng, mu_frac=0.8)
        diff = preset_pure_state(osc)
        state = steady_state(osc, diff)
        report = check_pure_preserving(osc, diff, state)
        assert abs(report.conditions["diffusion_determinant"]) < 1e-12
        assert abs(report.conditions["mixed_balance"]) < 1e-12
        assert abs(report.conditions["cross_balance"]) < 1e-12
        assert abs(report.conditions["constant_sigma_qq"]) < 1e-12
        assert abs(report.conditions["constant_sigma_pp"]) < 1e-12
        assert abs(report.conditions["constant_sigma_pq"]) < 1e-12


def _table_scenario(rng, kind):
    """(osc, diff, start state) of one draw of a purity_table scenario."""
    if kind == "lam_zero":
        osc = random_oscillator(rng, lam_range=(0.0, 0.0))
        return osc, random_diffusion(rng, osc), random_state(rng)
    if kind == "gibbs":
        osc = random_oscillator(rng, lam_range=(0.1, 0.3), mu_frac=0.05)
        return osc, preset_gibbs(osc, rng.uniform(0.2, 3.0)), random_state(rng)
    osc = random_oscillator(rng, mu_frac=0.8)
    diff = preset_pure_state(osc)
    steady = steady_state(osc, diff)
    start = GaussianState(rng.normal(), rng.normal(),
                          steady.sigma_qq, steady.sigma_pp, steady.sigma_pq)
    return osc, diff, start


@pytest.mark.parametrize("kind", ["lam_zero", "pure", "gibbs"])
def test_purity_table_equals_reports_row_by_row(rng, kind):
    flags = np.zeros(2, dtype=int)
    for _ in range(8):
        osc, diff, start = _table_scenario(rng, kind)
        times = np.linspace(0, 40, 41)
        table = purity_table(osc, diff, start, times)
        reports = [check_pure_preserving(osc, diff, state)
                   for state, _ in sample_trajectory(osc, diff, start, times)]
        assert list(table) == ["t", "sigma_det", "gamma", "r", "is_pure", "preserving",
                               *RESIDUALS]
        for field in ("t", "sigma_det", "gamma", "r", "is_pure", "preserving"):
            expected = np.array([getattr(rep, field) for rep in reports])
            assert table[field].dtype == expected.dtype
            np.testing.assert_array_equal(table[field], expected, strict=True)
        for name in RESIDUALS:
            expected = np.array([rep.conditions.get(name, math.nan) for rep in reports])
            np.testing.assert_array_equal(table[name], expected, strict=True)
        flags += table["is_pure"].any(), table["preserving"].any()
    # the pure preset keeps a pure start pure and preserving; the others never are
    assert flags.tolist() == ([8, 8] if kind == "pure" else [0, 0])
    if kind == "lam_zero":
        assert np.isnan(table["constant_sigma_qq"]).all()


@pytest.mark.parametrize("t,message", [(math.nan, "must be >= 0"), (math.inf, "must be finite"),
                                       (-math.inf, "must be finite")])
def test_purity_table_rejects_non_finite_time(t, message):
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.1)
    diff = preset_gibbs(osc, temperature=1.5)
    with pytest.raises(ParameterError, match=f"^times {message}$"):
        purity_table(osc, diff, ground_state(osc), [0.0, t])


def test_purity_table_of_empty_trajectory():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.1)
    diff = preset_gibbs(osc, temperature=1.5)
    table = purity_table(osc, diff, ground_state(osc), [])
    assert all(column.shape == (0,) for column in table.values())
