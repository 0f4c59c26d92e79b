import math
import warnings

import numpy as np
import pytest

from lindosc import (
    CoherentWindow,
    DiffusionSpec,
    GaussianState,
    InvalidStateError,
    OscillatorSpec,
    UnitSystem,
    ground_state,
    preset_gibbs,
    preset_pure_state,
    steady_state,
)
from lindosc.entropy import (
    DerivedScalars,
    derived_scalars,
    effective_temperature,
    entropy_from_temperature,
    fluctuation_energy,
    linear_entropy,
    linear_entropy_rate,
    minimized_uncertainty_bound,
    occupation_nu,
    purity_gamma,
    von_neumann_entropy,
    wehrl_entropy_closed,
)
from lindosc.propagator import evolve, sample_trajectory
from lindosc.sweeps import random_diffusion, random_oscillator, random_state
from oracles import wehrl_entropy_quadrature


def thermal_state(nu: float, hbar: float = 1.0) -> GaussianState:
    s = hbar * (nu + 0.5)
    return GaussianState(0.0, 0.0, s, s, 0.0)


def test_occupation_nu_values():
    assert occupation_nu(thermal_state(0.0)) == 0.0
    assert occupation_nu(thermal_state(2.5)) == pytest.approx(2.5, rel=1e-14)
    with pytest.raises(InvalidStateError):
        occupation_nu(GaussianState(0, 0, 0.3, 0.3, 0.0))


def test_von_neumann_entropy_reference_values():
    assert von_neumann_entropy(thermal_state(0.0)) == 0.0
    # nu = 1: S = 2 ln 2 - 0 = 2 ln 2
    assert von_neumann_entropy(thermal_state(1.0)) == pytest.approx(
        2 * math.log(2), rel=1e-14
    )
    # large occupation: S approaches ln(nu) + 1
    nu = 1e3
    s = von_neumann_entropy(thermal_state(nu))
    assert s == pytest.approx(math.log(nu) + 1, rel=1e-2)


def test_effective_temperature_inverts_occupation():
    osc = OscillatorSpec(mass=1.2, omega=0.8, lam=0.1)
    nu = 1.7
    t_eff = effective_temperature(osc, thermal_state(nu, osc.hbar))
    # Bose occupation at that temperature reproduces nu
    x = osc.hbar * osc.omega / t_eff
    assert 1 / (math.exp(x) - 1) == pytest.approx(nu, rel=1e-12)


def test_effective_temperature_gibbs_steady_matches_bath():
    osc = OscillatorSpec(mass=1, omega=1.3, lam=0.25, mu=0.0)
    for temp in (0.3, 1.0, 4.0):
        state = steady_state(osc, preset_gibbs(osc, temp))
        assert effective_temperature(osc, state) == pytest.approx(temp, rel=1e-10)


def test_effective_temperature_pure_state_warns():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.1)
    with pytest.warns(UserWarning, match="pure state"):
        assert effective_temperature(osc, ground_state(osc)) == 0.0


def test_entropy_from_temperature_consistency(rng):
    osc = OscillatorSpec(mass=1, omega=0.9, lam=0.1)
    for _ in range(200):
        state = random_state(rng, mixedness=(0.01, 5.0))
        t_eff = effective_temperature(osc, state)
        assert entropy_from_temperature(osc, t_eff) == pytest.approx(
            von_neumann_entropy(state), rel=1e-12
        )
    assert entropy_from_temperature(osc, 0.0) == 0.0


def test_wehrl_matched_coherent_is_one():
    osc = OscillatorSpec(mass=1.4, omega=0.7, lam=0.1)
    window = CoherentWindow.matched(osc)
    state = ground_state(osc)
    assert wehrl_entropy_closed(state, window, osc.hbar) == pytest.approx(
        1.0, abs=1e-12
    )


def test_wehrl_closed_vs_quadrature(rng):
    window = CoherentWindow(0.5, 0.5)
    for _ in range(10):
        state = random_state(rng)
        closed = wehrl_entropy_closed(state, window)
        quad = wehrl_entropy_quadrature(state, window)
        assert quad == pytest.approx(closed, abs=1e-6)


def test_wehrl_closed_vs_quadrature_small_hbar(rng):
    hbar = 0.3
    window = CoherentWindow(0.5 * hbar, 0.5 * hbar, hbar=hbar)
    for _ in range(10):
        state = random_state(rng, hbar)
        closed = wehrl_entropy_closed(state, window, hbar)
        quad = wehrl_entropy_quadrature(state, window)
        assert quad == pytest.approx(closed, abs=1e-6)


def test_wehrl_quadrature_rejects_narrow_box():
    window = CoherentWindow(0.5, 0.5)
    state = GaussianState(0, 0, 1.0, 1.0, 0.0)
    with pytest.raises(Exception):
        wehrl_entropy_quadrature(state, window, width_sigmas=4.0)


def test_wehrl_dominates_von_neumann_for_thermal():
    window = CoherentWindow(0.5, 0.5)
    for nu in (0.0, 0.5, 2.0, 20.0):
        state = thermal_state(nu)
        assert wehrl_entropy_closed(state, window) >= von_neumann_entropy(state)


def test_uncertainty_bound_pure_positive():
    # correlated pure state: S = 0, product sigma_qq*sigma_pp exceeds hbar^2/4
    state = GaussianState(0, 0, 2.0, (0.25 + 0.3**2) / 2.0, 0.3)
    assert state.uncertainty_det == pytest.approx(0.25, rel=1e-14)
    assert minimized_uncertainty_bound(state) > 0


def test_uncertainty_bound_tightens_for_large_occupation():
    for nu in (1e3, 1e4):
        state = thermal_state(nu)
        slack = minimized_uncertainty_bound(state)
        lhs = (state.sigma_qq + 0.5) ** 2
        # bound approaches equality: relative slack shrinks like 1/nu
        assert slack / lhs < 2 / nu


def test_uncertainty_bound_nonnegative_random(rng):
    for _ in range(1000):
        state = random_state(rng, mixedness=(0.0, 10.0))
        assert minimized_uncertainty_bound(state) >= -1e-12


def test_purity_and_linear_entropy_values():
    assert purity_gamma(thermal_state(0.0)) == 1.0
    assert linear_entropy(thermal_state(0.0)) == 0.0
    # nu = 1: gamma = 1/(2 nu + 1) = 1/3
    assert purity_gamma(thermal_state(1.0)) == pytest.approx(1 / 3, rel=1e-14)
    assert linear_entropy(thermal_state(1.0)) == pytest.approx(2 / 3, rel=1e-14)
    assert linear_entropy(thermal_state(1.0)) <= 0.75
    assert linear_entropy(thermal_state(1e3)) == pytest.approx(1.0, abs=1e-3)


def test_linear_entropy_rate_zero_on_pure_manifold(rng):
    for _ in range(100):
        osc = random_oscillator(rng)
        diff = preset_pure_state(osc)
        state = steady_state(osc, diff)
        assert abs(linear_entropy_rate(osc, diff, state)) < 1e-13


def test_linear_entropy_rate_positive_for_heating():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.0)
    diff = preset_gibbs(osc, temperature=2.0)
    assert linear_entropy_rate(osc, diff, ground_state(osc)) > 0


def test_linear_entropy_rate_linear_in_diffusion():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.0, mu=0.0)
    state = GaussianState(0, 0, 0.8, 0.9, 0.2)
    d1 = DiffusionSpec(0.3, 0.4, 0.05)
    d2 = DiffusionSpec(0.1, 0.2, -0.02)
    dsum = DiffusionSpec(0.4, 0.6, 0.03)
    assert linear_entropy_rate(osc, dsum, state) == pytest.approx(
        linear_entropy_rate(osc, d1, state) + linear_entropy_rate(osc, d2, state),
        rel=1e-12,
    )


def test_fluctuation_energy_ground_state():
    osc = OscillatorSpec(mass=1.3, omega=0.9, lam=0.1, mu=0.0)
    assert fluctuation_energy(osc, ground_state(osc)) == pytest.approx(
        osc.hbar * osc.omega / 2, rel=1e-14
    )


def test_fluctuation_energy_pure_preset_steady():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.15, mu=0.3)
    state = steady_state(osc, preset_pure_state(osc))
    # minimum of the energy on the pure manifold: hbar Omega / 2
    assert fluctuation_energy(osc, state) == pytest.approx(
        math.sqrt(1 - 0.09) / 2, rel=1e-12
    )


def test_fluctuation_energy_scales_linearly():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.1, mu=0.2)
    state = GaussianState(0, 0, 0.7, 0.8, 0.1)
    doubled = GaussianState(0, 0, 1.4, 1.6, 0.2)
    assert fluctuation_energy(osc, doubled) == pytest.approx(
        2 * fluctuation_energy(osc, state), rel=1e-14
    )


def test_entropy_chain_consistency(rng):
    # nu -> S -> T_e -> S round trip plus gamma/S_lin coherence
    osc = OscillatorSpec(mass=1, omega=1, lam=0.1)
    window = CoherentWindow.matched(osc)
    for _ in range(1000):
        state = random_state(rng, mixedness=(0.001, 8.0))
        nu = occupation_nu(state)
        s = von_neumann_entropy(state)
        gamma = purity_gamma(state)
        assert gamma == pytest.approx(1 / (2 * nu + 1), rel=1e-12)
        assert linear_entropy(state) == pytest.approx(1 - gamma, rel=1e-12)
        t_eff = effective_temperature(osc, state)
        assert entropy_from_temperature(osc, t_eff) == pytest.approx(s, rel=1e-10)
        assert wehrl_entropy_closed(state, window) >= 1.0 - 1e-12
        assert minimized_uncertainty_bound(state) >= -1e-12


def test_entropy_relaxes_to_steady_value():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.0)
    diff = preset_gibbs(osc, temperature=1.5)
    s_inf = von_neumann_entropy(steady_state(osc, diff))
    late = evolve(osc, diff, ground_state(osc), 100 / osc.lam)
    assert von_neumann_entropy(late) == pytest.approx(s_inf, abs=1e-8)


def test_derived_scalars_bundle():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.0)
    diff = preset_gibbs(osc, temperature=1.0)
    state = steady_state(osc, diff)
    bare = derived_scalars(osc, state)
    assert bare.t_eff is None and bare.s_lin_rate is None
    full = derived_scalars(osc, state, diff=diff, thermal_temperature=1.0)
    assert full.t_eff == pytest.approx(1.0, rel=1e-10)
    assert full.s_lin_rate == pytest.approx(
        linear_entropy_rate(osc, diff, state), rel=1e-14
    )
    assert full.nu == pytest.approx(occupation_nu(state), rel=1e-14)
    assert full.gamma == pytest.approx(purity_gamma(state), rel=1e-14)


def test_sample_trajectory_scalars_monotone_entropy():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.0)
    diff = preset_gibbs(osc, temperature=2.0)
    times = np.linspace(0.0, 40.0, 81)
    traj = sample_trajectory(osc, diff, ground_state(osc), times)
    s_vals = [scalars.s_vn for _, scalars in traj]
    assert s_vals[0] == 0.0
    assert all(b >= a - 1e-12 for a, b in zip(s_vals, s_vals[1:]))


@pytest.mark.parametrize("hbar", [1.0, 0.3])
@pytest.mark.parametrize("mixedness", [(0.0, 0.0), (0.0, 3.0)], ids=["pure", "mixed"])
def test_derived_scalars_equal_single_quantity_functions(rng, hbar, mixedness):
    zero_nu = 0
    for _ in range(60):
        drawn = random_oscillator(rng)
        osc = OscillatorSpec(drawn.mass, drawn.omega, drawn.lam, drawn.mu, UnitSystem(hbar=hbar))
        diff = random_diffusion(rng, osc)
        state = random_state(rng, hbar, mixedness)
        window = CoherentWindow.matched(osc)
        fused = derived_scalars(osc, state, diff=diff, window=window, thermal_temperature=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t_eff = effective_temperature(osc, state)
        assert fused.sigma_det == state.uncertainty_det
        assert fused.nu == occupation_nu(state, hbar)
        assert fused.s_vn == von_neumann_entropy(state, hbar)
        assert fused.t_eff == t_eff
        assert fused.gamma == purity_gamma(state, hbar)
        assert fused.s_lin == linear_entropy(state, hbar)
        assert fused.s_lin_rate == linear_entropy_rate(osc, diff, state)
        assert fused.wehrl == wehrl_entropy_closed(state, window, hbar)
        assert fused.energy == fluctuation_energy(osc, state)
        zero_nu += fused.nu == 0.0
    # the pure draws reach nu = 0, where every formula takes its special case
    assert (zero_nu > 0) == (mixedness == (0.0, 0.0))


@pytest.mark.parametrize("state", [thermal_state(0.0), thermal_state(0.0, hbar=2.0)])
def test_derived_scalars_of_pure_state_is_silent(state):
    hbar = 2 * state.sigma_qq
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, units=UnitSystem(hbar=hbar))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fused = derived_scalars(osc, state, thermal_temperature=1.0)
    assert (fused.nu, fused.s_vn, fused.t_eff, fused.gamma, fused.s_lin) == (
        0.0, 0.0, 0.0, 1.0, 0.0
    )
    with pytest.warns(UserWarning, match="pure state"):
        assert effective_temperature(osc, state) == 0.0


def test_derived_scalars_is_an_immutable_named_tuple():
    assert DerivedScalars._fields == (
        "sigma_det", "nu", "s_vn", "gamma", "s_lin", "wehrl", "energy",
        "t_eff", "s_lin_rate",
    )
    assert DerivedScalars._field_defaults == {"t_eff": None, "s_lin_rate": None}
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2)
    scalars = derived_scalars(osc, ground_state(osc))
    assert scalars.t_eff is None and scalars.s_lin_rate is None
    with pytest.raises(AttributeError):
        scalars.gamma = 0.5
    assert scalars._replace(gamma=0.5).gamma == 0.5 and scalars.gamma == 1.0
