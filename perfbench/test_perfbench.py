"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_SCENARIO = {
    **workloads.BASELINE_SCENARIO,
    "times": {"t_start": 0.0, "t_end": 5.0, "n_samples": 11},
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SMALL_SCENARIO))
    return path


def _bindings():
    """Every attribute of every lindosc module, and the state constructor hook."""
    modules = {
        name: dict(vars(mod)) for name, mod in sys.modules.items()
        if name == "lindosc" or name.startswith("lindosc.")
    }
    state_cls = sys.modules["lindosc.propagator"].GaussianState
    return modules, state_cls.__post_init__


def test_tracer_restores_every_wrapped_name():
    before = _bindings()
    tr = tracing.Tracer()
    tr.install()
    try:
        import lindosc
        from lindosc import cli, entropy, purity

        originals = before[0]
        for module, name in (
            (purity, "sample_trajectory"), (purity, "purity_gamma"),
            (entropy, "smoothed_covariance_det"), (lindosc, "evolve"),
            (cli, "_emit"), (cli, "main"),
        ):
            assert getattr(module, name) is not originals[module.__name__][name]
        assert _bindings() != before
    finally:
        tr.uninstall()
    modules, post_init = _bindings()
    assert post_init is before[1]
    for name, attrs in before[0].items():
        assert modules[name].keys() == attrs.keys()
        for attr, value in attrs.items():
            assert modules[name][attr] is value, f"{name}.{attr} not restored"


def test_mutated_output_byte_counts_as_failure(small_config):
    op = workloads.CliOp(["evolve", "--config", str(small_config)], rows=11, expected=None)
    code, text = op.run()
    assert code == 0
    op.expected = workloads.output_digest(text)
    assert op.check((code, text)) == (True, len(text))

    class Mutated:
        rows = op.rows

        def run(self):
            code, text = op.run()
            i = len(text) // 2
            return code, text[:i] + ("0" if text[i] != "0" else "1") + text[i + 1:]

        check = op.check

    ops = [op, Mutated()]
    tally = run.Tally(len(ops))
    run.run_ops(ops, seconds=0.0, tally=tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    metrics, _ = run.end_to_end(tally, ops, setup_s=1.0, per_command=False)
    assert metrics["ok_ratio"] == 0.5


def test_seed_reproduces_library_scenarios():
    plan = workloads.library_plan(7)
    assert plan == workloads.library_plan(7)
    assert plan != workloads.library_plan(8)
    assert len(set(plan)) == len(plan) == workloads.PASS_ZERO + workloads.PASS_DAMPED
    pool = workloads.library_pool()
    assert pool == workloads.library_pool()
    assert sum(pool[i]["lam"] == 0 for i in plan) == workloads.PASS_ZERO
    assert [s["source"] for s in pool[: workloads.POOL_ZERO]].count("gibbs") == 0


def test_library_pool_matches_reference():
    reference = workloads.load_reference()["library"]
    ops = [workloads.LibraryOp(s, v) for s, v in zip(workloads.library_pool(), reference)]
    assert len(ops) == workloads.POOL_SIZE
    assert all(op.check(op.run())[0] for op in ops)


def test_traced_counts_repeat(small_config):
    op = workloads.CliOp(["evolve", "--config", str(small_config)], rows=11, expected=None)
    counts = []
    for _ in range(2):
        tr = tracing.Tracer()
        tr.install()
        try:
            tr.begin()
            code, _ = op.run()
        finally:
            tr.uninstall()
        assert code == 0
        s = tr.stats
        counts.append((dict(s.calls), dict(s.func_calls), s.points, s.states_built))
    assert counts[0] == counts[1]
    calls, func_calls, points, states = counts[0]
    assert func_calls["entropy.derived_scalars"] == 2 * 11
    assert points == calls["phasespace"]
    assert func_calls["propagator.steady_covariances"] == 1
    assert states >= 11


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for section, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[section]} == units


def test_tail_latency_needs_ten_samples_beyond():
    assert run.tail_latency([1.0] * 5 + [2.0]) == (2.0, "max")
    values = [float(i) for i in range(1, 1001)]
    assert run.tail_latency(values) == (990.0, "p99")
    assert run.tail_latency(values[:999]) == (999.0, "max")


def test_traced_run_reports_each_operation(small_config):
    ops = [
        workloads.CliOp(["evolve", "--config", str(small_config)], 11, None, "evolve_csv"),
        workloads.CliOp(["purity-scan", "--config", str(small_config)], 11, None,
                        "purity_scan"),
    ]
    for op in ops:
        op.expected = workloads.output_digest(op.run()[1])
    untraced, traced = run.Tally(len(ops)), run.Tally(len(ops))
    run.run_ops(ops, 0.0, untraced)
    tr = tracing.Tracer()
    tr.install()
    try:
        run.run_ops(ops, 0.0, traced, tr)
    finally:
        tr.uninstall()
    assert (traced.attempted, traced.failed) == (2, 0)
    metrics, notes = run.end_to_end(untraced, ops, setup_s=1.0, per_command=True)
    assert metrics["wall_s"] == notes["cmd.evolve_csv_s"] + notes["cmd.purity_scan_s"]
    assert metrics["rows_per_s"] == 22 / metrics["wall_s"]
    metrics, notes = run.per_layer(untraced, traced, ops, tracing.LAYERS)
    assert metrics["entropy.scalars_per_row"] == (2 * 11 + 11) / 22
    assert notes["by_operation"]["evolve_csv"]["entropy.scalars_per_row"] == 2.0
    assert notes["by_operation"]["purity_scan"]["entropy.scalars_per_row"] == 1.0
    assert notes["counts_repeat_across_runs"]
