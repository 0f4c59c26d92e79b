"""Workloads of the lindosc benchmark and the checks of their outputs.

Two CLI workloads run three commands each on the ROADMAP baseline
scenario, in-process through ``lindosc.cli.main(argv)`` with stdout
captured; every command's output must match the recorded SHA-256 and length
byte for byte.  The
``library`` workload calls the public scalar API on seeded random scenarios
drawn from a fixed pool whose results were recorded in ``reference.json``;
each result must match to a relative tolerance of 1e-9.

Every function of lindosc is looked up on its module at call time, so the
tracer's wrappers are seen when they are installed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from lindosc import cli, entropy, model, phasespace, propagator, purity

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# ROADMAP baseline: omega=1, lambda=0.2, mu=0.1, Gibbs preset at T=1.5,
# coherent start alpha=1+0.5i, 10,001 samples on [0, 50].
BASELINE_SCENARIO = {
    "oscillator": {"m": 1.0, "omega": 1.0, "lambda": 0.2, "mu": 0.1},
    "diffusion": {"preset": "gibbs", "temperature": 1.5},
    "initial_state": {"kind": "coherent", "alpha": [1.0, 0.5]},
    "times": {"t_start": 0.0, "t_end": 50.0, "n_samples": 10001},
}
N_SAMPLES = 10001
GRID_N = 512
KERNEL_N = 301
GRID_TIME = "2"

_GRID = ["--time", GRID_TIME, "--n-q", str(GRID_N), "--n-p", str(GRID_N)]

# command -> (command line after the config, output rows per command)
COMMANDS = {
    "evolve_csv": (["evolve"], N_SAMPLES),
    "evolve_json": (["evolve", "--format", "json"], N_SAMPLES),
    "purity_scan": (["purity-scan"], N_SAMPLES),
    "wigner_grid": (["wigner-grid", *_GRID], GRID_N * GRID_N),
    "husimi_grid": (["husimi-grid", *_GRID], GRID_N * GRID_N),
    "kernel": (["kernel", "--time", GRID_TIME, "--n-x", str(KERNEL_N)], KERNEL_N**2),
}
# CLI workload -> the commands one pass runs, in order
CLI_WORKLOADS = {
    "trajectory": ("evolve_csv", "evolve_json", "purity_scan"),
    "phase_grid": ("wigner_grid", "husimi_grid", "kernel"),
}
WORKLOADS = (*CLI_WORKLOADS, "library")

# Library pool: POOL_SIZE scenarios from a fixed generator seed, a quarter
# of them with lam = 0 (the variation-of-constants branch of the
# propagator).  A pass evaluates PASS_ZERO + PASS_DAMPED of them, drawn by
# the run's seed.
POOL_SEED = 1999
POOL_SIZE = 64
POOL_ZERO = POOL_SIZE // 4
PASS_ZERO = 8
PASS_DAMPED = 24
TIMES_PER_SCENARIO = 5

REL_TOL = 1e-9
# Floor for values that are zero up to rounding, such as purity residuals.
ABS_TOL = 1e-12


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# -- CLI workloads --------------------------------------------------------

class _Capture:
    """Stand-in for stdout that keeps the written strings without copying."""

    def __init__(self):
        self.chunks = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def output_digest(text: str) -> dict:
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


class CliOp:
    """One invocation of a lindosc command, checked against its recorded digest."""

    def __init__(self, argv: list[str], rows: int, expected: dict | None, name: str = "cli"):
        self.name = name
        self.argv = argv
        self.rows = rows
        self.expected = expected

    def run(self):
        out = _Capture()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(self.argv)
            except SystemExit as exc:  # argparse rejecting the command line
                code = exc.code
        return code, "".join(out.chunks)

    def check(self, result) -> tuple[bool, int]:
        """(output correct, output bytes)."""
        code, text = result
        digest = output_digest(text)
        return code == 0 and digest == self.expected, digest["bytes"]


def cli_op(command: str, config_path: Path, reference: dict | None) -> CliOp:
    args, rows = COMMANDS[command]
    expected = None if reference is None else reference["cli"][command]
    return CliOp([args[0], "--config", str(config_path), *args[1:]], rows, expected, command)


# -- library workload -----------------------------------------------------

def _draw_scenario(rng: np.random.Generator, index: int, damped: bool) -> dict:
    """One scenario; the diffusion source and initial state cycle with index."""
    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    sources = ("gibbs", "explicit", "ops") if damped else ("explicit", "ops")
    source = sources[index % len(sources)]
    scen = {"mass": u(0.5, 2.0), "source": source}
    if source == "ops":
        n_ops = 1 + index % 2
        coeffs = rng.standard_normal((n_ops, 4))
        if not damped:
            coeffs[:, [1, 3]] = 0.0  # real a and b: no friction
        ops = [[complex(c[0], c[1]), complex(c[2], c[3])] for c in coeffs]
        lam = -sum(a.conjugate() * b for a, b in ops).imag
        if lam < 0:
            ops = [[a, -b] for a, b in ops]
            lam = -lam
        scen["ops"] = [[a.real, a.imag, b.real, b.imag] for a, b in ops]
        scen["omega"] = lam / u(0.05, 0.5) if damped else u(0.5, 2.0)
        scen["mu"] = u(-0.5, 0.5) * scen["omega"]
    else:
        scen["omega"] = u(0.5, 2.0)
        lam = u(0.05, 0.5) * scen["omega"] if damped else 0.0
    scen["lam"] = lam
    if source == "gibbs":
        scen["mu"] = u(-0.9, 0.9) * lam
        scen["temperature"] = u(0.2, 3.0)
    elif source == "explicit":
        scen["mu"] = u(-0.5, 0.5) * scen["omega"]
        d_qq, d_pp = u(0.05, 0.5), u(0.05, 0.5)
        floor = lam / 2
        scale = max(floor, 0.05) / math.sqrt(d_qq * d_pp) * u(1.0, 4.0)
        d_qq, d_pp = d_qq * scale, d_pp * scale
        cap = math.sqrt(d_qq * d_pp - floor**2)
        scen["d"] = [d_qq, d_pp, u(-0.9, 0.9) * cap]
    kind = ("ground", "coherent", "ccs")[(index // 3) % 3]
    scen["initial"] = kind
    scen["alpha"] = [float(x) for x in rng.standard_normal(2)]
    if kind == "ccs":
        scen["eta_scale"] = u(0.5, 2.0)
        scen["r"] = u(-0.8, 0.8)
    scen["times"] = sorted(u(0.0, 20.0) for _ in range(TIMES_PER_SCENARIO))
    return scen


def library_pool() -> list[dict]:
    """The POOL_SIZE reference scenarios; the first POOL_ZERO have lam = 0."""
    rng = np.random.default_rng(POOL_SEED)
    return [_draw_scenario(rng, i, damped=i >= POOL_ZERO) for i in range(POOL_SIZE)]


def library_plan(seed: int) -> list[int]:
    """Pool indices one pass evaluates, in order: a seeded sample with a fixed
    share of lam = 0 scenarios."""
    rng = np.random.default_rng(seed)
    zero = rng.choice(POOL_ZERO, PASS_ZERO, replace=False)
    damped = POOL_ZERO + rng.choice(POOL_SIZE - POOL_ZERO, PASS_DAMPED, replace=False)
    return [int(i) for i in rng.permutation(np.concatenate([zero, damped]))]


def run_scenario(scen: dict):
    """Build the scenario, validate it, evolve it and diagnose every state."""
    temperature = None
    if scen["source"] == "ops":
        ops = model.LindbladOps(
            ops=tuple((complex(c[0], c[1]), complex(c[2], c[3])) for c in scen["ops"])
        )
        diff, lam = model.coefficients_from_ops(ops)
        osc = model.OscillatorSpec(scen["mass"], scen["omega"], lam, scen["mu"])
    else:
        osc = model.OscillatorSpec(scen["mass"], scen["omega"], scen["lam"], scen["mu"])
        if scen["source"] == "gibbs":
            temperature = scen["temperature"]
            diff = model.preset_gibbs(osc, temperature)
        else:
            diff = model.DiffusionSpec(*scen["d"])
    report = model.validate(diff, osc)
    alpha = complex(*scen["alpha"])
    eta = math.sqrt(osc.hbar / (2 * osc.mass * osc.omega))
    if scen["initial"] == "ground":
        state0 = propagator.ground_state(osc)
    elif scen["initial"] == "coherent":
        state0 = phasespace.CCSpec(eta=eta, r=0.0, alpha=alpha).state()
    else:
        state0 = phasespace.CCSpec(eta=eta * scen["eta_scale"], r=scen["r"], alpha=alpha).state()
    samples = []
    for t in scen["times"]:
        state = propagator.evolve(osc, diff, state0, t)
        samples.append((
            state,
            entropy.derived_scalars(osc, state, diff=diff, thermal_temperature=temperature),
            purity.check_pure_preserving(osc, diff, state),
        ))
    steady = propagator.steady_state(osc, diff) if osc.lam > 0 else None
    return report, samples, steady


def _opt(value):
    return None if value is None else float(value)


def result_values(result) -> list:
    """Every number a library operation produced, flattened in a fixed order;
    absent values are None and booleans are 0.0 or 1.0."""
    report, samples, steady = result
    values = [float(c.margin) for c in report.checks] + [float(report.all_passed)]
    for state, sc, rep in samples:
        values += [
            state.t, state.sigma_q, state.sigma_p,
            state.sigma_qq, state.sigma_pp, state.sigma_pq,
            sc.sigma_det, sc.nu, sc.s_vn, sc.gamma, sc.s_lin, sc.wehrl, sc.energy,
            _opt(sc.t_eff), _opt(sc.s_lin_rate),
            rep.t, rep.sigma_det, rep.gamma, float(rep.is_pure), rep.r,
            float(rep.preserving),
        ]
        ccs = rep.ccs
        values += (
            [None] * 4 if ccs is None
            else [ccs.eta, ccs.r, ccs.alpha.real, ccs.alpha.imag]
        )
        values += [rep.conditions[name] for name in sorted(rep.conditions)]
    if steady is not None:
        values += [
            steady.sigma_q, steady.sigma_p,
            steady.sigma_qq, steady.sigma_pp, steady.sigma_pq,
        ]
    return [_opt(v) for v in values]


def values_match(got: list, expected: list) -> bool:
    if len(got) != len(expected):
        return False
    for a, b in zip(got, expected):
        if (a is None) != (b is None):
            return False
        if a is not None and not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return False
    return True


class LibraryOp:
    """One library scenario, checked against its recorded values."""

    rows = TIMES_PER_SCENARIO  # states evaluated

    def __init__(self, scenario: dict, expected: list, name: str = "scenario"):
        self.name = name
        self.scenario = scenario
        self.expected = expected

    def run(self):
        return run_scenario(self.scenario)

    def check(self, result) -> tuple[bool, int]:
        return values_match(result_values(result), self.expected), 0


def make_ops(workload: str, seed: int, config_path: Path, reference: dict) -> list:
    """The operations of one pass of a workload."""
    if workload in CLI_WORKLOADS:
        return [cli_op(c, config_path, reference) for c in CLI_WORKLOADS[workload]]
    pool = library_pool()
    return [
        LibraryOp(pool[i], reference["library"][i], f"scenario{i}")
        for i in library_plan(seed)
    ]


def describe(workload: str) -> dict:
    """Scenario and input sizes of a workload, for the run record."""
    if workload in CLI_WORKLOADS:
        return {
            "scenario": BASELINE_SCENARIO,
            "commands": {c: {"argv": COMMANDS[c][0], "rows": COMMANDS[c][1]}
                         for c in CLI_WORKLOADS[workload]},
        }
    return {
        "pool_seed": POOL_SEED, "pool_size": POOL_SIZE, "pool_lam_zero": POOL_ZERO,
        "ops_per_pass": PASS_ZERO + PASS_DAMPED, "lam_zero_per_pass": PASS_ZERO,
        "times_per_scenario": TIMES_PER_SCENARIO,
    }
