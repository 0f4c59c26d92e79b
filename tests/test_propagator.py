import dataclasses
import math

import numpy as np
import pytest

from lindosc import (
    CCSpec,
    DiffusionSpec,
    GaussianState,
    OscillatorSpec,
    ParameterError,
    evolve,
    evolve_covariances,
    evolve_means,
    ground_state,
    preset_gibbs,
    preset_pure_state,
    sample_trajectory,
    steady_covariances,
    steady_state,
)
from lindosc.entropy import derived_scalars
from lindosc.model import AGREE_RTOL, RTOL
from lindosc.propagator import ScaledCovariances, _decay_rates, _drive_vector, _mode_matrix
from lindosc.sweeps import random_diffusion, random_oscillator, random_state
from oracles import default_oracle_step, ode_oracle


def moments(state: GaussianState) -> np.ndarray:
    return np.array(
        [state.sigma_q, state.sigma_p, state.sigma_qq, state.sigma_pp, state.sigma_pq]
    )


def test_state_invariants():
    with pytest.raises(Exception):
        GaussianState(0, 0, -1.0, 1.0, 0.0)
    with pytest.raises(Exception):
        GaussianState(0, 0, 1.0, 1.0, 1.5)  # indefinite covariance


def test_scaled_covariances_roundtrip():
    osc = OscillatorSpec(mass=1.7, omega=0.8, lam=0.1)
    state = GaussianState(0.1, -0.2, 0.7, 0.9, 0.2)
    cov = ScaledCovariances.from_state(osc, state)
    assert cov.to_covariances(osc) == pytest.approx((0.7, 0.9, 0.2), rel=1e-15)


def test_evolve_means_identity_at_zero():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.1)
    state = GaussianState(1.3, -0.4, 0.5, 0.5, 0.0)
    assert evolve_means(osc, state, 0.0) == pytest.approx((1.3, -0.4), rel=1e-15)


def test_evolve_means_quarter_period():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.0, mu=0.0)
    state = GaussianState(1.0, 0.0, 0.5, 0.5, 0.0)
    sq, sp = evolve_means(osc, state, math.pi / 2)
    assert sq == pytest.approx(0.0, abs=1e-15)
    assert sp == pytest.approx(-1.0, rel=1e-15)


def test_evolve_means_matches_rk4():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.1, mu=0.05)
    diff = DiffusionSpec(0.1, 0.1, 0.0)
    state = GaussianState(1.0, 0.5, 0.5, 0.5, 0.0)
    sq, sp = evolve_means(osc, state, 3.0)
    oracle = ode_oracle(osc, diff, state, 3.0, step=1e-4)
    assert sq == pytest.approx(oracle.sigma_q, abs=1e-8)
    assert sp == pytest.approx(oracle.sigma_p, abs=1e-8)


def test_means_decay_to_zero():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.1)
    state = GaussianState(2.0, -1.0, 0.5, 0.5, 0.0)
    sq, sp = evolve_means(osc, state, 200.0)
    assert abs(sq) < 1e-15 and abs(sp) < 1e-15


def test_steady_gibbs_is_thermal():
    osc = OscillatorSpec(mass=1.2, omega=0.9, lam=0.25, mu=0.08)
    temp = 1.7
    diff = preset_gibbs(osc, temp)
    s_qq, s_pp, s_pq = steady_covariances(osc, diff).to_covariances(osc)
    coth = 1 / math.tanh(osc.hbar * osc.omega / (2 * temp))
    assert s_qq == pytest.approx(osc.hbar / (2 * osc.mass * osc.omega) * coth, rel=1e-12)
    assert s_pp == pytest.approx(osc.hbar * osc.mass * osc.omega / 2 * coth, rel=1e-12)
    assert s_pq == pytest.approx(0.0, abs=1e-14)


def test_steady_pure_preset():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.15, mu=0.3)
    s_qq, s_pp, s_pq = steady_covariances(osc, preset_pure_state(osc)).to_covariances(osc)
    big = osc.big_omega
    assert s_qq == pytest.approx(0.5 / big, rel=1e-12)
    assert s_pp == pytest.approx(0.5 / big, rel=1e-12)  # omega = 1
    assert s_pq == pytest.approx(-0.3 / (2 * big), rel=1e-12)


def test_steady_matches_long_time_rk4():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.3, mu=0.1)
    diff = DiffusionSpec(d_qq=0.2, d_pp=0.4, d_pq=0.05)
    target = steady_covariances(osc, diff).to_covariances(osc)
    late = ode_oracle(osc, diff, ground_state(osc), 200 / osc.lam, step=1e-3)
    assert late.sigma_qq == pytest.approx(target[0], rel=1e-8)
    assert late.sigma_pp == pytest.approx(target[1], rel=1e-8)
    assert late.sigma_pq == pytest.approx(target[2], abs=1e-8)


def test_steady_requires_friction():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.0)
    with pytest.raises(ParameterError):
        steady_covariances(osc, DiffusionSpec(0.1, 0.1, 0.0))


def test_steady_routes_agree_within_agree_rtol_near_critical():
    # At |mu|/omega = 1 - 1e-6 the matrix route T K^-1 T D loses about six
    # digits: its gap to the explicit route is above RTOL yet below AGREE_RTOL.
    omega = 0.57
    osc = OscillatorSpec(mass=0.2, omega=omega, lam=0.41, mu=omega * (1 - 1e-6))
    diff = DiffusionSpec(d_qq=0.91, d_pp=0.82, d_pq=0.14)
    tm = _mode_matrix(osc)
    matrix = (tm @ ((tm @ _drive_vector(osc, diff)) / _decay_rates(osc))).real
    explicit = steady_covariances(osc, diff).as_array()
    gap = np.max(np.abs(matrix - explicit)) / np.max(np.abs(explicit))
    assert RTOL < gap < AGREE_RTOL
    assert steady_state(osc, diff).sigma_qq > 0


def test_covariances_identity_at_zero():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.1)
    diff = DiffusionSpec(0.15, 0.2, 0.02)
    state = GaussianState(0, 0, 0.8, 0.9, 0.1)
    cov = evolve_covariances(osc, diff, state, 0.0)
    assert cov.to_covariances(osc) == pytest.approx((0.8, 0.9, 0.1), rel=1e-12)


def test_covariances_fixed_point():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.0)
    diff = DiffusionSpec(0.15, 0.2, 0.02)
    start = steady_state(osc, diff)
    fixed = GaussianState(0, 0, start.sigma_qq, start.sigma_pp, start.sigma_pq)
    for t in (0.3, 1.0, 7.0, 42.0):
        cov = evolve_covariances(osc, diff, fixed, t).to_covariances(osc)
        assert cov == pytest.approx(
            (start.sigma_qq, start.sigma_pp, start.sigma_pq), rel=1e-10
        )


def test_covariances_match_rk4_from_ground_state():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.15, mu=0.05)
    diff = DiffusionSpec(d_qq=0.12, d_pp=0.3, d_pq=-0.03)
    state = ground_state(osc)
    for t in (0.5, 1.0, 5.0):
        cov = evolve_covariances(osc, diff, state, t).to_covariances(osc)
        oracle = ode_oracle(osc, diff, state, t, step=1e-4)
        assert cov[0] == pytest.approx(oracle.sigma_qq, rel=1e-8)
        assert cov[1] == pytest.approx(oracle.sigma_pp, rel=1e-8)
        assert cov[2] == pytest.approx(oracle.sigma_pq, abs=1e-8)


def test_frictionless_evolution():
    # lam = 0 keeps the covariances bounded and (for D = 0) area-preserving
    osc = OscillatorSpec(mass=1, omega=1, lam=0.0, mu=0.0)
    diff = DiffusionSpec(0.0, 0.0, 0.0)
    state = GaussianState(0.5, 0.0, 0.9, 0.4, 0.2)
    for t in (0.7, 2.0, 9.0):
        out = evolve(osc, diff, state, t)
        assert out.uncertainty_det == pytest.approx(state.uncertainty_det, rel=1e-10)


def test_frictionless_with_diffusion_matches_rk4():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.0, mu=0.1)
    diff = DiffusionSpec(0.05, 0.08, 0.0)
    state = ground_state(osc)
    for t in (0.5, 3.0):
        cov = evolve_covariances(osc, diff, state, t).to_covariances(osc)
        oracle = ode_oracle(osc, diff, state, t, step=1e-4)
        assert cov[0] == pytest.approx(oracle.sigma_qq, rel=1e-7)
        assert cov[1] == pytest.approx(oracle.sigma_pp, rel=1e-7)
        assert cov[2] == pytest.approx(oracle.sigma_pq, abs=1e-7)


def test_frictionless_tiny_times_match_rk4():
    """At lam = 0 the drive weight (1 - exp(-kt))/k serves every t > 0, down
    to |kt| far below 1e-8."""
    osc = OscillatorSpec(mass=1.3, omega=0.9, lam=0.0, mu=0.2)
    diff = DiffusionSpec(0.3, 0.4, 0.05)
    state0 = GaussianState(0.7, -0.3, 0.6, 0.9, 0.2)
    worst = 0.0
    for t in (1e-14, 1e-12, 1e-9, 4e-9 / osc.big_omega, 1e-6):
        got, ref = evolve(osc, diff, state0, t), ode_oracle(osc, diff, state0, t, step=t / 4)
        scale = np.maximum(np.maximum(abs(moments(got)), abs(moments(ref))),
                           max(state0.sigma_qq, state0.sigma_pp))
        worst = max(worst, (abs(moments(got) - moments(ref)) / scale).max())
    assert worst < 1e-12


def test_oracle_closed_system_invariance():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.0, mu=0.0)
    diff = DiffusionSpec(0.0, 0.0, 0.0)
    state = GaussianState(0.3, -0.1, 0.7, 0.6, 0.1)
    out = ode_oracle(osc, diff, state, 5.0, step=1e-3)
    assert out.uncertainty_det == pytest.approx(state.uncertainty_det, rel=1e-10)


def test_oracle_fourth_order_convergence():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.1)
    diff = DiffusionSpec(0.15, 0.25, 0.02)
    state = ground_state(osc)
    exact = moments(evolve(osc, diff, state, 2.0))
    errs = []
    for step in (0.02, 0.01):
        approx = moments(ode_oracle(osc, diff, state, 2.0, step=step))
        errs.append(np.max(np.abs(approx - exact)))
    ratio = errs[0] / errs[1]
    assert 12 < ratio < 20


def test_oracle_pure_preset_constant_covariances():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.1, mu=0.2)
    diff = preset_pure_state(osc)
    start = steady_state(osc, diff)
    state = GaussianState(1.0, 0.0, start.sigma_qq, start.sigma_pp, start.sigma_pq)
    out = ode_oracle(osc, diff, state, 10.0, step=1e-3)
    assert out.sigma_qq == pytest.approx(state.sigma_qq, rel=1e-10)
    assert out.sigma_pp == pytest.approx(state.sigma_pp, rel=1e-10)
    assert out.sigma_pq == pytest.approx(state.sigma_pq, rel=1e-8)


def test_oracle_default_step():
    osc = OscillatorSpec(mass=1, omega=2.0, lam=0.1)
    assert default_oracle_step(osc) == pytest.approx(5e-5)


def test_trajectory_single_time_zero():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2)
    diff = preset_gibbs(osc, 1.0)
    state = ground_state(osc)
    traj = sample_trajectory(osc, diff, state, [0.0])
    assert len(traj) == 1
    assert moments(traj[0][0]) == pytest.approx(moments(state), rel=1e-12)


def test_trajectory_relaxes_to_steady():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.05)
    diff = preset_gibbs(osc, 1.0)
    times = np.linspace(0, 50 / osc.lam, 200)
    traj = sample_trajectory(osc, diff, ground_state(osc), times)
    final, _ = traj[-1]
    target = steady_covariances(osc, diff).to_covariances(osc)
    assert final.sigma_qq == pytest.approx(target[0], rel=1e-10)
    assert final.sigma_pp == pytest.approx(target[1], rel=1e-10)
    assert final.sigma_pq == pytest.approx(target[2], abs=1e-10)


def test_trajectory_empty():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2)
    traj = sample_trajectory(osc, preset_gibbs(osc, 1.0), ground_state(osc), [])
    assert traj == []


@pytest.mark.parametrize("lam", [0.2, 0.0])
def test_trajectory_is_a_list_of_state_scalars_pairs(lam):
    osc = OscillatorSpec(mass=1.3, omega=0.9, lam=lam, mu=0.1)
    diff = DiffusionSpec(0.3, 0.4, 0.05)
    start = CCSpec(eta=0.8, r=0.3, alpha=1 + 0.5j).state()
    times = np.linspace(0.0, 3.0, 7)
    pairs = sample_trajectory(osc, diff, start, times)
    assert type(pairs) is list
    assert [state.t for state, _ in pairs] == times.tolist()
    for state, scalars in pairs:
        assert scalars == derived_scalars(osc, state, diff=diff)


def test_trajectory_rejects_bad_times():
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2)
    diff = preset_gibbs(osc, 1.0)
    for times, message in (
        ([1.0, 0.5], "times must be strictly increasing"),
        ([0.0, 1.0, 1.0], "times must be strictly increasing"),
        ([-1.0, 0.5], "times must be >= 0"),
        ([0.0, math.nan], "times must be >= 0"),
        ([0.0, math.inf], "times must be finite"),
        ([-math.inf, 0.0], "times must be finite"),
    ):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            sample_trajectory(osc, diff, ground_state(osc), times)


def test_trajectory_times_checked_once_on_the_grid():
    # The grid is valid; state0.t + t rounds both samples to 1e17, which
    # a second check on the state times would reject.
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2)
    state0 = GaussianState(0.0, 0.0, 0.5, 0.5, 0.0, t=1e17)
    traj = sample_trajectory(osc, preset_gibbs(osc, 1.0), state0, [0.0, 1.0])
    assert len(traj) == 2


@pytest.mark.parametrize("t", [-1.0, -1e-300, math.nan])
def test_evolve_rejects_negative_time(t):
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2)
    with pytest.raises(ParameterError, match="t must be >= 0"):
        evolve(osc, preset_gibbs(osc, 1.0), ground_state(osc), t)


@pytest.mark.parametrize("t", [math.inf, -math.inf])
def test_evolve_rejects_infinite_time(t):
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2)
    with pytest.raises(ParameterError, match="^t must be finite$"):
        evolve(osc, preset_gibbs(osc, 1.0), ground_state(osc), t)


@pytest.mark.parametrize("lam", [0.2, 0.0])
def test_returned_states_hold_python_floats(lam):
    osc = OscillatorSpec(mass=1.0, omega=1.0, lam=lam, mu=0.1)
    diff = DiffusionSpec(0.3, 0.4, 0.05)
    start = CCSpec(eta=0.8, r=0.3, alpha=1 + 0.5j).state()
    states = [ground_state(osc), start, evolve(osc, diff, start, 2.0),
              evolve(osc, diff, start, np.float64(0.5)),
              *(state for state, _ in
                sample_trajectory(osc, diff, start, np.linspace(0.0, 3.0, 4)))]
    if lam > 0:
        states.append(steady_state(osc, diff))
    for state in states:
        for field in dataclasses.fields(state):
            assert type(getattr(state, field.name)) is float, (state, field.name)


def test_scalar_evolve_is_row_zero_of_a_one_time_batch():
    # A scalar t takes the batch arithmetic on the same shapes, so every moment
    # equals the one row of a batch at np.array([t]) bit for bit.
    rng = np.random.default_rng(0)
    for i in range(400):
        osc = random_oscillator(rng, lam_range=(0.0, 0.0) if i % 4 == 0 else (0.01, 0.3))
        diff = random_diffusion(rng, osc)
        state0 = random_state(rng)
        for t in rng.uniform(0.0, 30.0, 23).tolist():
            state = evolve(osc, diff, state0, t)
            batch = np.array([t])
            cov = ScaledCovariances(*evolve_covariances(osc, diff, state0, batch).T)
            row = [*evolve_means(osc, state0, batch), *cov.to_covariances(osc)]
            assert moments(state).tolist() == [float(c[0]) for c in row], (i, t)


def test_uncertainty_preserved_along_evolution(rng):
    for _ in range(100):
        osc = random_oscillator(rng)
        diff = random_diffusion(rng, osc)
        state0 = random_state(rng)
        for t in np.linspace(0, 10 / osc.lam, 17)[1:]:
            out = evolve(osc, diff, state0, float(t))
            assert out.uncertainty_det >= 0.25 * (1 - 1e-10)


def test_steady_state_independent_of_initial(rng):
    for _ in range(20):
        osc = random_oscillator(rng)
        diff = random_diffusion(rng, osc)
        t = 100 / osc.lam
        a = evolve(osc, diff, random_state(rng), t)
        b = evolve(osc, diff, random_state(rng), t)
        assert moments(a)[2:] == pytest.approx(moments(b)[2:], rel=1e-9, abs=1e-9)


def test_exponential_envelope(rng):
    # deviation from the steady state decays at least as exp(-2 lam t):
    # fit the envelope constant on early times, check it bounds later times
    for _ in range(10):
        osc = random_oscillator(rng, lam_range=(0.05, 0.3))
        diff = random_diffusion(rng, osc)
        state0 = random_state(rng)
        xinf = steady_covariances(osc, diff).as_array()
        fit_times = np.linspace(0.0, 8 / osc.lam, 2000)
        dev_fit = np.linalg.norm(
            evolve_covariances(osc, diff, state0, fit_times) - xinf, axis=1
        )
        c = (dev_fit * np.exp(2 * osc.lam * fit_times)).max()
        check_times = np.linspace(0.013, 8 / osc.lam, 1777)
        dev = np.linalg.norm(
            evolve_covariances(osc, diff, state0, check_times) - xinf, axis=1
        )
        assert np.all(dev <= 1.01 * c * np.exp(-2 * osc.lam * check_times))
