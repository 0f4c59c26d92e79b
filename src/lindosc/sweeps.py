"""Seeded random scenarios and the property sweeps of `lindosc selftest`.

The test suite draws its random scenarios from the same generators.  Each
sweep judges its property with the library's own rule, not a tolerance.
"""
from __future__ import annotations

import math

import numpy as np

from . import entropy, model, propagator
from .model import ConsistencyError, DiffusionSpec, InvalidStateError, LindbladOps, OscillatorSpec
from .phasespace import CoherentWindow
from .propagator import GaussianState


def random_oscillator(rng, lam_range=(0.01, 0.3), mu_frac=0.5) -> OscillatorSpec:
    omega = rng.uniform(0.5, 2.0)
    return OscillatorSpec(
        mass=rng.uniform(0.5, 2.0),
        omega=omega,
        lam=rng.uniform(*lam_range) * omega,
        mu=rng.uniform(-mu_frac, mu_frac) * omega,
    )


def random_diffusion(rng, osc: OscillatorSpec) -> DiffusionSpec:
    # valid coefficients: product kept above the determinant floor, d_pq
    # bounded by the remaining margin
    d_qq = rng.uniform(0.5, 2.0)
    d_pp = rng.uniform(0.5, 2.0)
    floor = osc.lam * osc.hbar / 2
    scale = max(floor, 0.05) / math.sqrt(d_qq * d_pp) * rng.uniform(1.0, 4.0)
    d_qq *= scale
    d_pp *= scale
    cap = math.sqrt(d_qq * d_pp - floor**2)
    return DiffusionSpec(d_qq=d_qq, d_pp=d_pp, d_pq=rng.uniform(-0.9, 0.9) * cap)


def random_state(rng, hbar: float = 1.0, mixedness=(0.0, 3.0)) -> GaussianState:
    s_qq, s_pp = np.exp(rng.uniform(-1.5, 1.5, 2))
    r = rng.uniform(-0.99, 0.99)
    s_pq = r * math.sqrt(s_qq * s_pp)
    det = s_qq * s_pp - s_pq**2
    # rescale onto or above the uncertainty floor
    scale = (hbar / 2) / math.sqrt(det) * (1 + rng.uniform(*mixedness))
    return GaussianState(
        sigma_q=rng.normal(scale=1.5),
        sigma_p=rng.normal(scale=1.5),
        sigma_qq=s_qq * scale,
        sigma_pp=s_pp * scale,
        sigma_pq=s_pq * scale,
    )


def random_ops(rng) -> LindbladOps:
    """One or two environment operators with normal complex coefficients."""
    n_ops = rng.integers(1, 3)
    return LindbladOps(
        ops=tuple(
            (complex(*rng.standard_normal(2) * 3), complex(*rng.standard_normal(2) * 3))
            for _ in range(n_ops)
        )
    )


def _at_least(a: float, b: float) -> bool:
    """a >= b, or a equal to b up to rounding."""
    return a >= b or model.negligible(a - b, a, b)


def _ops_admissible(rng) -> bool:
    try:
        model.coefficients_from_ops(random_ops(rng))
    except ConsistencyError:
        return False
    return True


def _evolution_physical(rng) -> bool:
    osc = random_oscillator(rng)
    diff = random_diffusion(rng, osc)
    state0 = propagator.ground_state(osc)
    try:
        for t in np.linspace(0, 10 / osc.lam, 23)[1:]:
            propagator.require_physical(propagator.evolve(osc, diff, state0, float(t)), osc.hbar)
    except InvalidStateError:
        return False
    return True


def _entropy_chain(rng) -> bool:
    state = random_state(rng)
    s = entropy.von_neumann_entropy(state)
    window = CoherentWindow.squeezed(math.sqrt(state.sigma_qq / state.sigma_pp) / 2)
    return (_at_least(entropy.wehrl_entropy_closed(state, window), max(1.0, s))
            and _at_least(1 - math.exp(-s), entropy.linear_entropy(state))
            and _at_least(entropy.minimized_uncertainty_bound(state), 0.0))


def selftest(seed: int) -> list[tuple[str, bool]]:
    """(name, passed) of each property sweep, all drawn from `seed`."""
    rng = np.random.default_rng(seed)
    return [(name, all([check(rng) for _ in range(n)])) for name, check, n in (
        ("coefficient determinant margin >= 0", _ops_admissible, 200),
        ("uncertainty preserved along evolution", _evolution_physical, 100),
        ("entropy inequality chain", _entropy_chain, 500),
    )]
