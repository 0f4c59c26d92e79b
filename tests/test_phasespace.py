import cmath
import math

import numpy as np
import pytest

from lindosc import (
    CCSpec,
    CoherentWindow,
    GaussianState,
    OscillatorSpec,
    ParameterError,
    evolve,
    ground_state,
    preset_gibbs,
    preset_pure_state,
    steady_state,
)
from lindosc.phasespace import (
    PhaseSpaceGrid,
    ccs_wavefunction_at,
    density_kernel_at,
    husimi_at,
    husimi_grid,
    sample_axis,
    smoothed_covariance_det,
    wigner_at,
    wigner_grid,
)
from lindosc.sweeps import random_state
from oracles import wigner_purity_quadrature, wigner_to_kernel_oracle


def test_grid_validation():
    axis = np.linspace(0, 1, 4)
    vals = np.zeros((4, 4))
    PhaseSpaceGrid(axis, axis, vals)
    with pytest.raises(ParameterError, match="at least 2 points"):
        PhaseSpaceGrid(axis[:1], axis, vals[:1])
    with pytest.raises(ParameterError, match="min < max"):
        PhaseSpaceGrid(axis[::-1], axis, vals)
    with pytest.raises(ParameterError, match="finite"):
        PhaseSpaceGrid(np.array([0, 1, 2, np.inf]), axis, vals)
    with pytest.raises(ParameterError, match="shape"):
        PhaseSpaceGrid(axis, axis[:3], vals)
    with pytest.raises(ParameterError, match="measure"):
        PhaseSpaceGrid(axis, axis, vals, measure="bogus")
    with pytest.raises(ParameterError, match="values must be finite"):
        PhaseSpaceGrid(axis, axis, np.full((4, 4), np.nan))


def test_sample_axis_rejects_points_that_do_not_increase():
    np.testing.assert_array_equal(sample_axis(1.0, 4.0, 5, 1.0), [-1.0, 0.0, 1.0, 2.0, 3.0])
    # A spread of 1 is below the float spacing at either centre: 2 at 1e16.
    for center, n in ((1e300, 3), (1e16, 5)):
        with pytest.raises(ParameterError, match="must increase strictly"):
            sample_axis(center, 1.0, n, 1.0)


def test_window_product_constraint():
    CoherentWindow(s_qq=0.5, s_pp=0.5)
    with pytest.raises(ParameterError):
        CoherentWindow(s_qq=0.5, s_pp=0.6)
    matched = CoherentWindow.matched(OscillatorSpec(mass=2.0, omega=1.5, lam=0.1))
    assert matched.s_qq == pytest.approx(1 / 6, rel=1e-15)
    assert matched.s_qq * matched.s_pp == pytest.approx(0.25, rel=1e-12)


def test_wigner_peak_value():
    state = GaussianState(0.3, -0.7, 0.8, 0.9, 0.2)
    det = state.uncertainty_det
    assert wigner_at(state, 0.3, -0.7) == pytest.approx(
        1 / (2 * math.pi * math.sqrt(det)), rel=1e-14
    )


def test_wigner_normalization(rng):
    for _ in range(50):
        state = random_state(rng)
        assert wigner_grid(state).integral() == pytest.approx(1.0, abs=1e-8)


def test_wigner_steady_gibbs_isotropic():
    osc = OscillatorSpec(mass=1.4, omega=0.9, lam=0.2, mu=0.0)
    state = steady_state(osc, preset_gibbs(osc, 1.3))
    # thermal state: W depends only on the scaled radius m*w*q^2 + p^2/(m*w)
    mw = osc.mass * osc.omega
    pts = [(0.4, 0.0), (0.0, 0.4 * mw), (0.4 / math.sqrt(2), 0.4 * mw / math.sqrt(2))]
    vals = [wigner_at(state, q, p) for q, p in pts]
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[0] == pytest.approx(vals[2], rel=1e-12)


def test_wigner_steady_pure_preset_closed_form():
    osc = OscillatorSpec(mass=1.2, omega=1.1, lam=0.15, mu=0.25)
    state = steady_state(osc, preset_pure_state(osc))
    hbar, m, big = osc.hbar, osc.mass, osc.big_omega
    for q in np.linspace(-1, 1, 5):
        for p in np.linspace(-1, 1, 5):
            expected = (
                1
                / (math.pi * hbar)
                * math.exp(
                    -(p**2 / m + m * osc.omega**2 * q**2 + 2 * osc.mu * q * p)
                    / (hbar * big)
                )
            )
            assert wigner_at(state, q, p) == pytest.approx(expected, rel=1e-12)


def test_husimi_matched_coherent_peak():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.1)
    window = CoherentWindow.matched(osc)
    ccs = CCSpec(eta=math.sqrt(0.5), r=0.0, alpha=0.4 + 0.3j)
    state = ccs.state()
    assert husimi_at(state, window, state.sigma_q, state.sigma_p) == pytest.approx(
        1.0, rel=1e-12
    )


def test_husimi_normalization_and_range(rng):
    osc = OscillatorSpec(mass=1, omega=1, lam=0.1)
    window = CoherentWindow.matched(osc)
    for _ in range(10):
        state = random_state(rng)
        grid = husimi_grid(state, window)
        assert grid.integral() == pytest.approx(1.0, abs=1e-6)
        assert np.all(grid.values >= 0)
        assert np.all(grid.values <= 1 + 1e-12)


def test_husimi_normalization_and_range_small_hbar(rng):
    hbar = 0.3
    window = CoherentWindow(0.5 * hbar, 0.5 * hbar, hbar=hbar)
    for _ in range(10):
        state = random_state(rng, hbar)
        grid = husimi_grid(state, window)
        assert grid.integral() == pytest.approx(1.0, abs=1e-6)
        assert np.all(grid.values >= 0)
        assert np.all(grid.values <= 1 + 1e-12)


def test_husimi_mixed_state_peak_small():
    window = CoherentWindow(0.5, 0.5)
    state = GaussianState(0, 0, 50.0, 50.0, 0.0)
    assert husimi_at(state, window, 0, 0) < 0.05


def test_husimi_convolution_identity(rng):
    # smoothing W with the window Gaussian reproduces the closed form
    window = CoherentWindow(s_qq=0.4, s_pp=0.25 / 0.4)
    state = random_state(rng)
    hq = 8 * math.sqrt(state.sigma_qq)
    hp = 8 * math.sqrt(state.sigma_pp)
    q = np.linspace(state.sigma_q - hq, state.sigma_q + hq, 801)
    p = np.linspace(state.sigma_p - hp, state.sigma_p + hp, 801)
    w = wigner_at(state, q[:, None], p[None, :])
    for dq, dp in [(0.0, 0.0), (0.7, -0.3), (-1.1, 0.5)]:
        q0 = state.sigma_q + dq
        p0 = state.sigma_p + dp
        kernel = np.exp(
            -((q0 - q[:, None]) ** 2) / (2 * window.s_qq)
            - ((p0 - p[None, :]) ** 2) / (2 * window.s_pp)
        )
        quad = 2 * np.trapezoid(np.trapezoid(w * kernel, p, axis=1), q)
        assert quad == pytest.approx(husimi_at(state, window, q0, p0), abs=1e-5)


def test_kernel_diagonal_peak():
    state = GaussianState(0.4, 0.2, 0.6, 0.7, 0.1)
    val = density_kernel_at(state, 0.4, 0.4)
    assert val.imag == pytest.approx(0.0, abs=1e-16)
    assert val.real == pytest.approx(1 / math.sqrt(2 * math.pi * 0.6), rel=1e-14)


def test_kernel_hermitian_and_unit_trace(rng):
    state = random_state(rng)
    for x, y in [(0.1, 0.5), (-0.3, 0.9), (1.2, -0.2)]:
        assert density_kernel_at(state, x, y) == pytest.approx(
            density_kernel_at(state, y, x).conjugate(), rel=1e-14
        )
    half = 8 * math.sqrt(state.sigma_qq)
    x = np.linspace(state.sigma_q - half, state.sigma_q + half, 4096)
    diag = density_kernel_at(state, x, x)
    assert np.max(np.abs(diag.imag)) < 1e-16
    assert np.trapezoid(diag.real, x) == pytest.approx(1.0, abs=1e-8)


def test_kernel_long_time_closed_form():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.1)
    diff = preset_gibbs(osc, 0.8)
    state = steady_state(osc, diff)
    cond = state.sigma_pp - state.sigma_pq**2 / state.sigma_qq
    for x in np.linspace(-1, 1, 5):
        for y in np.linspace(-1, 1, 5):
            expected = math.sqrt(1 / (2 * math.pi * state.sigma_qq)) * cmath.exp(
                -((x + y) ** 2) / (8 * state.sigma_qq)
                - cond * (x - y) ** 2 / 2
                + 1j * state.sigma_pq * (x**2 - y**2) / (2 * state.sigma_qq)
            )
            assert density_kernel_at(state, x, y) == pytest.approx(expected, rel=1e-12)


def test_kernel_fourier_oracle_ground_state():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.1)
    state = ground_state(osc)
    closed = density_kernel_at(state, 0.0, 0.0)
    quad = wigner_to_kernel_oracle(state, 0.0, 0.0)
    assert quad == pytest.approx(closed, abs=1e-8)


def test_kernel_fourier_oracle_mixed_state():
    state = GaussianState(0.2, -0.1, 0.9, 1.1, 0.3)
    closed = density_kernel_at(state, 0.3, -0.2)
    quad = wigner_to_kernel_oracle(state, 0.3, -0.2)
    assert quad == pytest.approx(closed, abs=1e-7)


def test_kernel_far_off_diagonal_decoheres():
    state = GaussianState(0.0, 0.0, 0.5, 0.6, 0.0)
    width = math.sqrt(state.sigma_qq)
    val = density_kernel_at(state, 5 * width, -5 * width)
    quad = wigner_to_kernel_oracle(state, 5 * width, -5 * width)
    assert abs(val) < 1e-6
    assert abs(quad) < 1e-6


def test_ccs_covariances_saturate_uncertainty(rng):
    for _ in range(100):
        ccs = CCSpec(eta=np.exp(rng.uniform(-1, 1)), r=rng.uniform(-0.99, 0.99))
        s_qq, s_pp, s_pq = ccs.covariances()
        assert s_qq * s_pp - s_pq**2 == pytest.approx(0.25, rel=1e-12)


def test_ccs_wavefunction_normalized_and_peaked():
    ccs = CCSpec(eta=0.8, r=0.4, alpha=0.5 - 0.2j)
    state = ccs.state()
    x = np.linspace(state.sigma_q - 10 * ccs.eta, state.sigma_q + 10 * ccs.eta, 8192)
    psi = ccs_wavefunction_at(ccs, x)
    assert np.trapezoid(np.abs(psi) ** 2, x) == pytest.approx(1.0, abs=1e-10)
    peak = abs(ccs_wavefunction_at(ccs, state.sigma_q)) ** 2
    assert peak == pytest.approx((2 * math.pi * state.sigma_qq) ** -0.5, rel=1e-13)


def test_ccs_pure_kernel_identity():
    ccs = CCSpec(eta=0.7, r=-0.3, alpha=0.2 + 0.6j)
    state = ccs.state()
    for x, y in [(0.0, 0.0), (0.5, -0.4), (1.1, 0.3)]:
        product = ccs_wavefunction_at(ccs, x) * ccs_wavefunction_at(ccs, y).conjugate()
        assert product == pytest.approx(density_kernel_at(state, x, y), rel=1e-12)


def test_ccs_reduces_to_glauber_coherent():
    osc = OscillatorSpec(mass=1.5, omega=0.8, lam=0.1)
    eta = math.sqrt(osc.hbar / (2 * osc.mass * osc.omega))
    ccs = CCSpec(eta=eta, r=0.0, alpha=0.0)
    state = ccs.state()
    gs = ground_state(osc)
    assert state.sigma_qq == pytest.approx(gs.sigma_qq, rel=1e-14)
    assert state.sigma_pp == pytest.approx(gs.sigma_pp, rel=1e-14)
    assert state.sigma_pq == 0.0
    x = np.linspace(-5, 5, 7)
    psi = ccs_wavefunction_at(ccs, x)
    expected = (2 * math.pi * eta**2) ** -0.25 * np.exp(-(x**2) / (4 * eta**2))
    assert psi == pytest.approx(expected, rel=1e-12)


def test_ccs_wigner_transform_quadrature():
    ccs = CCSpec(eta=0.9, r=0.5, alpha=0.3 + 0.1j)
    state = ccs.state()
    y = np.linspace(-10 * ccs.eta, 10 * ccs.eta, 8192)
    for q, p in [(state.sigma_q, state.sigma_p), (0.5, -0.3), (-0.2, 0.8)]:
        rho = ccs_wavefunction_at(ccs, q - y) * np.conj(ccs_wavefunction_at(ccs, q + y))
        quad = np.trapezoid(rho * np.exp(2j * p * y), y) / math.pi
        assert quad.imag == pytest.approx(0.0, abs=1e-9)
        assert quad.real == pytest.approx(wigner_at(state, q, p), abs=1e-7)


def test_purity_from_wigner_quadrature(rng):
    for _ in range(10):
        state = random_state(rng)
        gamma = 0.5 / math.sqrt(state.uncertainty_det)
        assert wigner_purity_quadrature(state) == pytest.approx(gamma, abs=1e-6)


def test_evolved_ccs_kernel_matches_closed_form():
    # pure preset: evolving kernel keeps constant widths m*Omega/hbar and
    # m*Omega/(4 hbar) with phase factor m*mu/hbar
    osc = OscillatorSpec(mass=1.1, omega=1.0, lam=0.12, mu=0.3)
    diff = preset_pure_state(osc)
    steady = steady_state(osc, diff)
    ccs0 = GaussianState(
        0.8, -0.5, steady.sigma_qq, steady.sigma_pp, steady.sigma_pq
    )
    m, big, hbar = osc.mass, osc.big_omega, osc.hbar
    for t in (0.0, 0.7, 2.5):
        state = evolve(osc, diff, ccs0, t) if t else ccs0
        for x in np.linspace(-0.8, 0.8, 5):
            for y in np.linspace(-0.9, 0.7, 5):
                mid = (x + y) / 2 - state.sigma_q
                off = x - y
                expected = math.sqrt(m * big / (math.pi * hbar)) * cmath.exp(
                    -m * big / hbar * mid**2
                    - m * big / (4 * hbar) * off**2
                    - 1j * m * osc.mu / hbar * mid * off
                    + 1j * state.sigma_p * off / hbar
                )
                assert density_kernel_at(state, x, y, hbar=hbar) == pytest.approx(
                    expected, rel=1e-12
                )
