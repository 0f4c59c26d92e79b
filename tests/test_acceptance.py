"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with -s to see the per-criterion lines.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from lindosc import (
    CCSpec,
    CoherentWindow,
    GaussianState,
    OscillatorSpec,
    evolve,
    ground_state,
    preset_gibbs,
    preset_pure_state,
    sample_trajectory,
    steady_covariances,
    steady_state,
)
from lindosc.entropy import (
    effective_temperature,
    fluctuation_energy,
    linear_entropy,
    linear_entropy_rate,
    minimized_uncertainty_bound,
    purity_gamma,
    von_neumann_entropy,
    wehrl_entropy_closed,
)
from lindosc.phasespace import density_kernel_at, wigner_at, wigner_grid
from lindosc.propagator import _decay_rates, _drive_vector, _mode_matrix, _real_checked
from lindosc.sweeps import random_diffusion, random_oscillator, random_state
from oracles import (
    ode_oracle,
    wehrl_entropy_quadrature,
    wigner_purity_quadrature,
    wigner_to_kernel_oracle,
)

SEED = 20260826


def _report(num: int, name: str, ok: bool) -> bool:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _configs(n=100, seed=SEED):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        osc = random_oscillator(rng, lam_range=(0.01, 0.3), mu_frac=0.5)
        out.append((osc, random_diffusion(rng, osc), random_state(rng, osc.hbar)))
    return out


def test_criterion_01_propagator_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for osc, diff, state0 in _configs(100):
        for t in np.linspace(0, 10 / osc.lam, 6)[1:]:
            got = evolve(osc, diff, state0, float(t))
            ref = ode_oracle(osc, diff, state0, float(t), step=1e-4)
            for a, b in (
                (got.sigma_q, ref.sigma_q), (got.sigma_p, ref.sigma_p),
                (got.sigma_qq, ref.sigma_qq), (got.sigma_pp, ref.sigma_pp),
                (got.sigma_pq, ref.sigma_pq),
            ):
                scale = max(abs(a), abs(b), state0.sigma_qq, state0.sigma_pp)
                worst = max(worst, abs(a - b) / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and elapsed < 10.0
    assert _report(1, "propagator-oracle equivalence", ok), (worst, elapsed)


def test_criterion_02_steady_state_formulas():
    worst = 0.0
    for osc, diff, state0 in _configs(100):
        explicit = steady_covariances(osc, diff).as_array()
        tm = _mode_matrix(osc)
        matrix = tm @ ((tm @ _drive_vector(osc, diff)) / _decay_rates(osc))
        matrix = _real_checked(matrix, float(np.max(np.abs(explicit))))
        late = evolve(osc, diff, state0, 200 / osc.lam)
        mw = osc.mass * osc.omega
        traj = np.array([mw * late.sigma_qq, late.sigma_pp / mw, late.sigma_pq])
        scale = max(1.0, float(np.max(np.abs(explicit))))
        worst = max(
            worst,
            float(np.max(np.abs(matrix - explicit))) / scale,
            float(np.max(np.abs(traj - explicit))) / scale,
        )
    ok = worst < 1e-8
    assert _report(2, "steady-state formulas", ok), worst


def test_criterion_03_gibbs_fixed_point():
    ok = True
    for temp in (0.1, 1.0, 10.0):
        for osc in (
            OscillatorSpec(mass=1.0, omega=1.0, lam=0.2, mu=0.0),
            OscillatorSpec(mass=1.7, omega=0.6, lam=0.15, mu=0.05),
        ):
            state = steady_state(osc, preset_gibbs(osc, temp))
            coth = 1 / math.tanh(osc.hbar * osc.omega / (2 * osc.boltzmann * temp))
            mw = osc.mass * osc.omega
            ok = ok and abs(state.sigma_qq - osc.hbar / (2 * mw) * coth) < 1e-10
            ok = ok and abs(state.sigma_pp - osc.hbar * mw / 2 * coth) < 1e-10
            ok = ok and abs(state.sigma_pq) < 1e-10
            ok = ok and abs(effective_temperature(osc, state) - temp) < 1e-8
    assert _report(3, "gibbs fixed point", ok)


def test_criterion_04_pure_state_preservation():
    rng = np.random.default_rng(SEED + 4)
    ok = True
    for _ in range(20):
        osc = random_oscillator(rng, lam_range=(0.02, 0.3), mu_frac=0.8)
        diff = preset_pure_state(osc)
        manifold = steady_state(osc, diff)
        start = GaussianState(
            rng.normal(), rng.normal(),
            manifold.sigma_qq, manifold.sigma_pp, manifold.sigma_pq,
        )
        hbar, e_star = osc.hbar, osc.hbar * osc.big_omega / 2
        for t in np.linspace(0, 100 / osc.lam, 26):
            state = evolve(osc, diff, start, float(t)) if t else start
            ok = ok and abs(state.uncertainty_det - hbar**2 / 4) < 1e-10
            ok = ok and abs(von_neumann_entropy(state, hbar)) < 1e-10
            ok = ok and abs(purity_gamma(state, hbar) - 1.0) < 1e-10
            ok = ok and abs(linear_entropy_rate(osc, diff, state)) < 1e-10
            ok = ok and abs(fluctuation_energy(osc, state) - e_star) < 1e-10
    assert _report(4, "pure-state preservation", ok)


def test_criterion_05_uncertainty_invariant():
    ok = True
    for osc, diff, state0 in _configs(1000, seed=SEED + 5):
        floor = osc.hbar**2 / 4
        for t in np.linspace(0, 10 / osc.lam, 9)[1:]:
            det = evolve(osc, diff, state0, float(t)).uncertainty_det
            ok = ok and det >= floor * (1 - 1e-10)
    assert _report(5, "uncertainty invariant", ok)


def test_criterion_06_entropy_chain():
    rng = np.random.default_rng(SEED + 6)
    ok = True
    for _ in range(1000):
        state = random_state(rng, mixedness=(0.0, 6.0))
        s = von_neumann_entropy(state)
        window = CoherentWindow.squeezed(
            math.sqrt(state.sigma_qq / state.sigma_pp) / 2
        )
        wehrl = wehrl_entropy_closed(state, window)
        ok = ok and wehrl >= max(1.0, s) - 1e-9
        ok = ok and linear_entropy(state) <= 1 - math.exp(-s) + 1e-12
        ok = ok and minimized_uncertainty_bound(state) >= -1e-12
    osc = OscillatorSpec(mass=1.3, omega=0.8, lam=0.1)
    coherent = ground_state(osc)
    ok = ok and abs(
        wehrl_entropy_closed(coherent, CoherentWindow.matched(osc), osc.hbar) - 1.0
    ) < 1e-12
    assert _report(6, "entropy chain", ok)


def test_criterion_07_quadrature_oracles():
    rng = np.random.default_rng(SEED + 7)
    ok = True
    window = CoherentWindow(0.5, 0.5)
    for _ in range(50):
        state = random_state(rng)
        closed = wehrl_entropy_closed(state, window)
        ok = ok and abs(wehrl_entropy_quadrature(state, window) - closed) < 1e-6
    for _ in range(10):
        state = random_state(rng)
        ok = ok and abs(wigner_grid(state).integral() - 1.0) < 1e-8
        gamma = 0.5 / math.sqrt(state.uncertainty_det)
        ok = ok and abs(wigner_purity_quadrature(state) - gamma) < 1e-6
        width = math.sqrt(state.sigma_qq)
        for _ in range(10):
            x = state.sigma_q + rng.uniform(-2, 2) * width
            y = state.sigma_q + rng.uniform(-2, 2) * width
            ok = ok and abs(
                wigner_to_kernel_oracle(state, x, y) - density_kernel_at(state, x, y)
            ) < 1e-7
    assert _report(7, "quadrature oracles", ok)


def test_criterion_08_ccs_kernel_evolution():
    osc = OscillatorSpec(mass=1.1, omega=1.0, lam=0.12, mu=0.3)
    diff = preset_pure_state(osc)
    manifold = steady_state(osc, diff)
    start = GaussianState(
        0.8, -0.5, manifold.sigma_qq, manifold.sigma_pp, manifold.sigma_pq
    )
    m, big, hbar, mu = osc.mass, osc.big_omega, osc.hbar, osc.mu
    ok = True
    xs = np.linspace(-0.8, 0.8, 5)
    ys = np.linspace(-0.9, 0.7, 5)
    for t in (0.0, 0.5, 1.3, 2.7, 5.0):
        state = evolve(osc, diff, start, t) if t else start
        for x in xs:
            for y in ys:
                mid = (x + y) / 2 - state.sigma_q
                off = x - y
                expected = math.sqrt(m * big / (math.pi * hbar)) * np.exp(
                    -m * big / hbar * mid**2
                    - m * big / (4 * hbar) * off**2
                    - 1j * m * mu / hbar * mid * off
                    + 1j * state.sigma_p * off / hbar
                )
                got = density_kernel_at(state, x, y, hbar=hbar)
                ok = ok and abs(got - expected) < 1e-12 * abs(expected) + 1e-13
    # asymptotic closed forms: zero-mean kernel and Wigner function
    for x in xs:
        for y in ys:
            mid, off = (x + y) / 2, x - y
            k_inf = math.sqrt(m * big / (math.pi * hbar)) * np.exp(
                -m * big / hbar * mid**2
                - m * big / (4 * hbar) * off**2
                - 1j * m * mu / hbar * mid * off
            )
            ok = ok and abs(density_kernel_at(manifold, x, y, hbar=hbar) - k_inf) < 1e-12
    for q in xs:
        for p in ys:
            w_inf = 1 / (math.pi * hbar) * math.exp(
                -(p**2 / m + m * osc.omega**2 * q**2 + 2 * mu * q * p) / (hbar * big)
            )
            ok = ok and abs(wigner_at(manifold, q, p) - w_inf) < 1e-12 * w_inf + 1e-15
    assert _report(8, "ccs kernel evolution", ok)


def test_criterion_09_energy_minimality():
    rng = np.random.default_rng(SEED + 9)
    osc = OscillatorSpec(mass=1.2, omega=1.1, lam=0.1, mu=0.35)
    e_star = osc.hbar * osc.big_omega / 2
    ok = abs(
        fluctuation_energy(osc, steady_state(osc, preset_pure_state(osc))) - e_star
    ) < 1e-9
    for _ in range(1000):
        ccs = CCSpec(
            eta=float(np.exp(rng.uniform(-1.5, 1.5))),
            r=float(rng.uniform(-0.99, 0.99)),
            hbar=osc.hbar,
        )
        ok = ok and fluctuation_energy(osc, ccs.state()) >= e_star - 1e-12
    assert _report(9, "energy minimality", ok)


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "oscillator": {"m": 1.0, "omega": 1.0, "lambda": 0.2, "mu": 0.1},
        "diffusion": {"preset": "gibbs", "temperature": 1.5},
        "initial_state": {"kind": "ground"},
        "times": {"t_start": 0.0, "t_end": 30.0, "n_samples": 61},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "lindosc", "evolve", "--config", str(path)],
            capture_output=True,
        )
        for _ in range(2)
    ]
    ok = (
        runs[0].returncode == 0
        and runs[1].returncode == 0
        and runs[0].stdout == runs[1].stdout
        and len(runs[0].stdout) > 0
    )
    assert _report(10, "determinism", ok)
