import contextlib
import csv
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from lindosc import (
    CoherentWindow,
    ConsistencyError,
    InvalidStateError,
    OscillatorSpec,
    cli,
    entropy,
    model,
    phasespace,
    preset_gibbs,
    propagator,
    steady_state,
)
from lindosc.entropy import von_neumann_entropy
from lindosc.sweeps import random_diffusion, random_oscillator, random_state


# The child runs in development mode with ResourceWarning as an error, as the
# tests do, so that a file a real run leaves open shows on its stderr.
DEV_MODE = {"PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error::ResourceWarning"}


def run_cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "lindosc", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, **DEV_MODE},
        **kwargs,
    )


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def gibbs_config(**over):
    cfg = {
        "oscillator": {"m": 1.0, "omega": 1.0, "lambda": 0.2, "mu": 0.0},
        "diffusion": {"preset": "gibbs", "temperature": 1.5},
        "initial_state": {"kind": "ground"},
        "times": {"t_start": 0.0, "t_end": 50.0, "n_samples": 11},
    }
    cfg.update(over)
    return cfg


def _evolve_config(tmp_path):
    """A scenario whose evolve output is a table of three output blocks."""
    return write_config(tmp_path, gibbs_config(times={
        "t_start": 0.0, "t_end": 50.0, "n_samples": 2 * cli._BLOCK_ROWS + 1}))


def pure_config():
    return {
        "oscillator": {"m": 1.0, "omega": 1.0, "lambda": 0.15, "mu": 0.3},
        "diffusion": {"preset": "pure"},
        "initial_state": {
            "kind": "ccs",
            "eta": math.sqrt(1 / (2 * math.sqrt(1 - 0.09))),
            "r": -0.3 / 1.0,
            "alpha": [0.5, 0.2],
        },
        "times": {"t_start": 0.0, "t_end": 20.0, "n_samples": 9},
    }


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, [dict(zip(header, row)) for row in reader]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_example() -> tuple[str, list[list[str]]]:
    """The example scenario of the README's CLI section, and the argument
    list of each command in the shell block that follows it."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    scenario = section.split("```json\n", 1)[1].split("```", 1)[0]
    shell = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in shell.splitlines()]
    assert all(line[0] == "lindosc" for line in lines)
    return scenario, [line[1:] for line in lines]


def test_readme_cli_example_runs(tmp_path, capsys):
    scenario, commands = _readme_cli_example()
    config = tmp_path / "scenario.json"
    config.write_text(scenario, encoding="utf-8")
    assert sorted(argv[0] for argv in commands) == sorted([*COMMANDS_WITH_CONFIG, "selftest"])
    for argv in commands:
        code = cli.main([str(config) if arg == "scenario.json" else arg for arg in argv])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
        assert out, argv


def test_cli_import_loads_no_third_party_module_but_numpy():
    """The runtime stays numpy-only.  Modules that site hooks load at
    interpreter start are in sys.modules before the import, so not counted."""
    code = ("import sys; before = set(sys.modules); import lindosc.cli; "
            "print(sorted({name.partition('.')[0] for name in set(sys.modules) - before}"
            " - sys.stdlib_module_names))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "['lindosc', 'numpy']\n"


def test_validate_pass(tmp_path):
    cfg = write_config(tmp_path, gibbs_config())
    proc = run_cli("validate", "--config", cfg)
    assert proc.returncode == 0
    assert "constraint determinant: PASS" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_validate_fail(tmp_path):
    bad = gibbs_config(diffusion={"d_qq": 0.01, "d_pp": 0.01, "d_pq": 0.0})
    cfg = write_config(tmp_path, bad)
    proc = run_cli("validate", "--config", cfg)
    assert proc.returncode == 1
    assert "constraint determinant: FAIL" in proc.stdout


def test_validate_rejects_overdamped(tmp_path):
    bad = gibbs_config(oscillator={"m": 1.0, "omega": 1.0, "lambda": 0.2, "mu": 1.5})
    cfg = write_config(tmp_path, bad)
    proc = run_cli("validate", "--config", cfg)
    assert proc.returncode == 1
    assert "underdamped" in proc.stderr


def test_gibbs_preset_rejects_weak_friction(tmp_path):
    bad = gibbs_config(oscillator={"m": 1.0, "omega": 1.0, "lambda": 0.1, "mu": 0.2})
    cfg = write_config(tmp_path, bad)
    proc = run_cli("validate", "--config", cfg)
    assert proc.returncode == 1
    assert "lam > |mu|" in proc.stderr


def test_evolve_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, gibbs_config())
    out1 = run_cli("evolve", "--config", cfg)
    out2 = run_cli("evolve", "--config", cfg)
    assert out1.returncode == 0
    assert out1.stdout == out2.stdout
    assert out1.stdout.encode() == out2.stdout.encode()


def test_evolve_csv_roundtrip(tmp_path):
    cfg = write_config(tmp_path, gibbs_config())
    proc = run_cli("evolve", "--config", cfg)
    header, rows = parse_csv(proc.stdout)
    assert header[:6] == ["t", "sigma_q", "sigma_p", "sigma_qq", "sigma_pp", "sigma_pq"]
    assert len(rows) == 11
    # 17 significant digits survive a parse round trip exactly
    for row in rows:
        for key in header:
            val = float(row[key])
            assert format(val, ".17g") == row[key]


def test_evolve_pure_scenario_stays_pure(tmp_path):
    cfg = write_config(tmp_path, pure_config())
    proc = run_cli("evolve", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    _, rows = parse_csv(proc.stdout)
    for row in rows:
        assert abs(float(row["s_vn"])) < 1e-10
        assert float(row["gamma"]) == pytest.approx(1.0, abs=1e-10)
        assert abs(float(row["s_lin_rate"])) < 1e-10


def test_evolve_gibbs_relaxes_to_steady_entropy(tmp_path):
    conf = gibbs_config()
    conf["times"] = {"t_start": 0.0, "t_end": 100.0, "n_samples": 3}
    cfg = write_config(tmp_path, conf)
    proc = run_cli("evolve", "--config", cfg)
    _, rows = parse_csv(proc.stdout)
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.0)
    s_inf = von_neumann_entropy(steady_state(osc, preset_gibbs(osc, 1.5)))
    assert float(rows[-1]["s_vn"]) == pytest.approx(s_inf, abs=1e-8)
    assert float(rows[-1]["t_eff"]) == pytest.approx(1.5, abs=1e-8)


def test_evolve_single_sample_at_zero(tmp_path):
    conf = gibbs_config()
    conf["times"] = {"t_start": 0.0, "t_end": 0.0, "n_samples": 1}
    cfg = write_config(tmp_path, conf)
    proc = run_cli("evolve", "--config", cfg)
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    assert len(rows) == 1
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[0]["s_vn"]) == 0.0


def test_evolve_json_format(tmp_path):
    cfg = write_config(tmp_path, gibbs_config())
    proc = run_cli("evolve", "--config", cfg, "--format", "json")
    payload = json.loads(proc.stdout)
    assert len(payload["rows"]) == 11
    first = payload["rows"][0]
    assert first["t"] == 0.0
    assert isinstance(first["gamma"], float)


def test_evolve_output_file(tmp_path, capsys):
    # A table of three blocks: the file holds the stdout bytes, and the
    # dev-mode child reports no file left open.
    cfg = _evolve_config(tmp_path)
    target = tmp_path / "run.out"
    for fmt in ("csv", "json"):
        proc = run_cli("evolve", "--config", cfg, "--format", fmt, "--out", str(target))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert cli.main(["evolve", "--config", cfg, "--format", fmt]) == 0
        assert target.read_bytes() == capsys.readouterr().out.encode("utf-8")
        if fmt == "csv":
            assert len(parse_csv(target.read_text())[1]) == 2 * cli._BLOCK_ROWS + 1


def test_steady_command(tmp_path):
    cfg = write_config(tmp_path, gibbs_config())
    proc = run_cli("steady", "--config", cfg)
    header, rows = parse_csv(proc.stdout)
    assert len(rows) == 1
    assert rows[0]["t"] == "inf"
    osc = OscillatorSpec(mass=1, omega=1, lam=0.2, mu=0.0)
    expected = steady_state(osc, preset_gibbs(osc, 1.5))
    assert float(rows[0]["sigma_qq"]) == pytest.approx(expected.sigma_qq, rel=1e-12)
    assert float(rows[0]["sigma_q"]) == 0.0


def _command_state(*argv):
    """The state that a grid or kernel command line samples."""
    return cli._grid_state(cli.build_parser().parse_args(argv))[1]


def test_wigner_grid_normalized(tmp_path):
    cfg = write_config(tmp_path, gibbs_config())
    argv = ("wigner-grid", "--config", cfg, "--n-q", "101", "--n-p", "101")
    proc = run_cli(*argv)
    lines = proc.stdout.splitlines()
    assert lines[0] == "# measure=dqdp"
    header, rows = parse_csv(proc.stdout)
    assert header == ["q", "p", "value"]
    assert len(rows) == 101 * 101
    q = sorted({float(r["q"]) for r in rows})
    p = sorted({float(r["p"]) for r in rows})
    vals = np.array([float(r["value"]) for r in rows]).reshape(101, 101)
    total = np.trapezoid(np.trapezoid(vals, p, axis=1), q)
    assert total == pytest.approx(1.0, abs=1e-6)
    state = _command_state(*argv)
    axis = phasespace.sample_axis(state.sigma_q, state.sigma_qq, 101, 8.0)
    assert np.array_equal(phasespace.wigner_grid(state, 101, 101, 8.0).q_axis, axis)
    assert np.array_equal(q, axis)


def test_husimi_grid_measure_and_range(tmp_path):
    cfg = write_config(tmp_path, gibbs_config())
    proc = run_cli("husimi-grid", "--config", cfg, "--time", "2.0")
    assert proc.stdout.splitlines()[0] == "# measure=dqdp/(2*pi*hbar)"
    _, rows = parse_csv(proc.stdout)
    vals = [float(r["value"]) for r in rows]
    assert max(vals) <= 1.0 + 1e-12
    assert min(vals) >= 0.0


def test_kernel_command_hermitian(tmp_path):
    cfg = write_config(tmp_path, pure_config())
    argv = ("kernel", "--config", cfg, "--time", "1.0", "--n-x", "7")
    proc = run_cli(*argv)
    header, rows = parse_csv(proc.stdout)
    assert header == ["x", "y", "re", "im"]
    state = _command_state(*argv)
    assert np.array_equal(sorted({float(r["x"]) for r in rows}),
                          phasespace.sample_axis(state.sigma_q, state.sigma_qq, 7, 4.0))
    table = {(r["x"], r["y"]): (float(r["re"]), float(r["im"])) for r in rows}
    assert len(table) == 49
    for (x, y), (re, im) in table.items():
        re_t, im_t = table[(y, x)]
        assert re == pytest.approx(re_t, rel=1e-12, abs=1e-15)
        assert im == pytest.approx(-im_t, rel=1e-12, abs=1e-15)


def test_purity_scan_command(tmp_path):
    cfg = write_config(tmp_path, pure_config())
    proc = run_cli("purity-scan", "--config", cfg)
    header, rows = parse_csv(proc.stdout)
    assert "res_diffusion_determinant" in header
    for row in rows:
        assert row["is_pure"] == "true"
        assert row["preserving"] == "true"
        assert float(row["gamma"]) == pytest.approx(1.0, abs=1e-10)


def test_purity_scan_json_nan_to_null(tmp_path):
    conf = gibbs_config()
    conf["oscillator"]["lambda"] = 0.0
    conf["diffusion"] = {"d_qq": 0.3, "d_pp": 0.3, "d_pq": 0.0}
    cfg = write_config(tmp_path, conf)
    proc = run_cli("purity-scan", "--config", cfg, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["rows"][0]["res_constant_sigma_qq"] is None


def test_hbar_override(tmp_path):
    cfg = write_config(tmp_path, gibbs_config())
    base = run_cli("steady", "--config", cfg)
    scaled = run_cli("steady", "--config", cfg, "--hbar", "2.0")
    _, rows_b = parse_csv(base.stdout)
    _, rows_s = parse_csv(scaled.stdout)
    # thermal variances scale with the hbar coth(hbar w / 2T) factor
    factor = 2.0 / math.tanh(2.0 / 3.0) * math.tanh(1.0 / 3.0)
    assert float(rows_s[0]["sigma_qq"]) == pytest.approx(
        float(rows_b[0]["sigma_qq"]) * factor, rel=1e-10
    )


def test_window_sqq_override_changes_wehrl(tmp_path):
    cfg = write_config(tmp_path, gibbs_config())
    base = run_cli("steady", "--config", cfg)
    squeezed = run_cli("steady", "--config", cfg, "--window-sqq", "0.05")
    _, rows_b = parse_csv(base.stdout)
    _, rows_s = parse_csv(squeezed.stdout)
    assert float(rows_s[0]["wehrl"]) > float(rows_b[0]["wehrl"])


def test_ops_diffusion_block(tmp_path):
    # single Brownian-motion operator; lambda must match the oscillator
    gamma, temp = 0.2, 1.0
    d = 1.0 / (8 * gamma * temp)
    s = math.sqrt(2 * d)
    conf = gibbs_config()
    conf["diffusion"] = {"ops": [{"a": [0.0, 2 * gamma * d / s], "b": [1 / s, 0.0]}]}
    cfg = write_config(tmp_path, conf)
    proc = run_cli("validate", "--config", cfg)
    assert proc.returncode == 0, proc.stderr + proc.stdout


def test_ops_lambda_mismatch_rejected(tmp_path):
    conf = gibbs_config()
    conf["oscillator"]["lambda"] = 0.05
    gamma, temp = 0.2, 1.0
    d = 1.0 / (8 * gamma * temp)
    s = math.sqrt(2 * d)
    conf["diffusion"] = {"ops": [{"a": [0.0, 2 * gamma * d / s], "b": [1 / s, 0.0]}]}
    cfg = write_config(tmp_path, conf)
    proc = run_cli("validate", "--config", cfg)
    assert proc.returncode == 1
    assert "disagrees" in proc.stderr


def test_config_errors_exit_one(tmp_path):
    missing = run_cli("evolve", "--config", str(tmp_path / "nope.json"))
    assert missing.returncode == 1

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run_cli("evolve", "--config", str(bad_json)).returncode == 1

    conf = gibbs_config()
    conf["diffusion"] = {"preset": "gibbs", "temperature": 1.0, "d_qq": 0.1}
    assert run_cli("evolve", "--config", write_config(tmp_path, conf, "a.json")).returncode == 1

    conf = gibbs_config()
    del conf["times"]
    assert run_cli("evolve", "--config", write_config(tmp_path, conf, "b.json")).returncode == 1

    conf = gibbs_config()
    conf["times"] = {"list": [1.0, 0.5]}
    assert run_cli("evolve", "--config", write_config(tmp_path, conf, "c.json")).returncode == 1

    conf = gibbs_config()
    conf["initial_state"] = {"kind": "ground", "sigma_q": 0, "sigma_p": 0,
                             "sigma_qq": 1, "sigma_pp": 1, "sigma_pq": 0}
    assert run_cli("evolve", "--config", write_config(tmp_path, conf, "d.json")).returncode == 1

    conf = gibbs_config()
    conf["initial_state"] = {"sigma_q": 0, "sigma_p": 0,
                             "sigma_qq": 0.1, "sigma_pp": 0.1, "sigma_pq": 0}
    assert run_cli("evolve", "--config", write_config(tmp_path, conf, "e.json")).returncode == 1


def test_explicit_times_list(tmp_path):
    conf = gibbs_config()
    conf["times"] = {"list": [0.0, 0.5, 2.5]}
    cfg = write_config(tmp_path, conf)
    proc = run_cli("evolve", "--config", cfg)
    _, rows = parse_csv(proc.stdout)
    assert [float(r["t"]) for r in rows] == [0.0, 0.5, 2.5]


def test_selftest_passes():
    proc = run_cli("selftest")
    assert proc.returncode == 0, proc.stdout
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("selftest ")]
    assert len(lines) == 3
    assert all(ln.endswith("PASS") for ln in lines)


SELFTEST_NAMES = ("coefficient determinant margin >= 0",
                  "uncertainty preserved along evolution", "entropy inequality chain")


def test_selftest_seed_flag(capsys):
    for seed in range(10):
        assert cli.main(["selftest", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == "".join(f"selftest {n}: PASS\n" for n in SELFTEST_NAMES)


def _raises(exc):
    def replacement(*args, **kwargs):
        raise exc
    return replacement


@pytest.mark.parametrize("target,name,replacement,failing", [
    (model, "coefficients_from_ops", _raises(ConsistencyError("margin")), SELFTEST_NAMES[0]),
    (propagator, "require_physical", _raises(InvalidStateError("floor")), SELFTEST_NAMES[1]),
    (entropy, "linear_entropy", lambda *args, **kwargs: 2.0, SELFTEST_NAMES[2]),
])
def test_selftest_violation_prints_fail_and_exits_one(monkeypatch, capsys, target, name,
                                                     replacement, failing):
    monkeypatch.setattr(target, name, replacement)
    assert _main_error(capsys, ["selftest"]) == (1, "".join(
        f"selftest {n}: {'FAIL' if n == failing else 'PASS'}\n" for n in SELFTEST_NAMES), [])


def test_temperature_beyond_float_resolution_exits_two(tmp_path, capsys):
    """At hbar = 1e-20 the steady occupation is about 1.5e20, where
    ln(nu+1) - ln(nu) rounds to 0: one error line, not a traceback."""
    argv = ["steady", "--config", write_config(tmp_path, gibbs_config()), "--hbar", "1e-20"]
    code, out, [line] = _main_error(capsys, argv)
    assert (code, out) == (2, "")
    assert line.startswith("numerical-consistency error: effective temperature undefined at nu=")


def _bad_times(**times):
    conf = gibbs_config()
    conf["times"] = times
    return conf


def _bad_ops(ops):
    conf = gibbs_config()
    conf["diffusion"] = {"ops": ops}
    return conf


def _bad_block(block, **values):
    conf = gibbs_config()
    conf[block] = {**conf.get(block, {}), **values}
    return conf


_EXPLICIT_D = {"d_qq": 0.3, "d_pp": 0.3, "d_pq": 0.0}

# name -> (config, text the error line names, output format)
BAD_INPUTS = {
    "times-list-infinity": (_bad_times(list=[0.0, math.inf]), "times.list", "csv"),
    "times-list-infinity-json": (_bad_times(list=[0.0, math.inf]), "times.list", "json"),
    "times-list-nan": (_bad_times(list=[0.0, math.nan]), "times.list", "csv"),
    "times-list-text": (_bad_times(list=[0.0, "abc"]), "times.list", "csv"),
    "times-list-not-a-list": (_bad_times(list=5), "times.list", "csv"),
    "times-n-samples-text": (
        _bad_times(t_start=0.0, t_end=1.0, n_samples="abc"), "times.n_samples", "csv"
    ),
    "times-n-samples-infinity": (
        _bad_times(t_start=0.0, t_end=1.0, n_samples=math.inf), "times.n_samples", "json"
    ),
    "times-t-end-infinity": (
        _bad_times(t_start=0.0, t_end=math.inf, n_samples=3), "times.t_end", "json"
    ),
    "ops-missing-b": (_bad_ops([{"a": [0.0, 0.5]}]), "diffusion.ops", "csv"),
    "ops-entry-not-object": (_bad_ops([[0.0, 0.5]]), "diffusion.ops", "csv"),
    "ops-not-a-list": (
        _bad_ops({"a": [0.0, 0.5], "b": [1.0, 0.0]}), "diffusion.ops", "csv"
    ),
    "ops-text-coefficient": (
        _bad_ops([{"a": [0.0, "x"], "b": [1.0, 0.0]}]), "complex component", "csv"
    ),
    "ops-bool-coefficient": (
        _bad_ops([{"a": [0.0, True], "b": [1.0, 0.0]}]), "complex component", "csv"
    ),
    "alpha-bool": (
        gibbs_config(initial_state={"kind": "coherent", "alpha": True}), "complex value", "csv"
    ),
    "times-list-numeric-text": (_bad_times(list=["0.5", 1]), "times.list", "csv"),
    "times-list-bool": (_bad_times(list=[True]), "times.list", "json"),
    "times-t-start-text": (
        _bad_times(t_start="0", t_end=1.0, n_samples=3), "times.t_start", "csv"
    ),
    "times-n-samples-fraction": (
        _bad_times(t_start=0.0, t_end=1.0, n_samples=2.7), "times.n_samples", "csv"
    ),
    "times-n-samples-bool": (
        _bad_times(t_start=0.0, t_end=1.0, n_samples=True), "times.n_samples", "csv"
    ),
    "omega-bool": (_bad_block("oscillator", omega=True), "oscillator.omega", "csv"),
    "hbar-bool": (_bad_block("oscillator", hbar=True), "oscillator.hbar", "json"),
    "temperature-bool": (
        _bad_block("diffusion", temperature=True), "diffusion.temperature", "csv"
    ),
    "omega-text": (_bad_block("oscillator", omega="1"), "oscillator.omega", "csv"),
    "mass-text": (_bad_block("oscillator", m="1"), "oscillator.m", "json"),
    "temperature-text": (
        _bad_block("diffusion", temperature="1.5"), "diffusion.temperature", "csv"
    ),
    "d-qq-text": (
        gibbs_config(diffusion={**_EXPLICIT_D, "d_qq": "0.3"}), "diffusion.d_qq", "csv"
    ),
    "d-qq-nan": (
        gibbs_config(diffusion={**_EXPLICIT_D, "d_qq": math.nan}), "diffusion.d_qq", "csv"
    ),
    "ccs-eta-text": (
        gibbs_config(initial_state={"kind": "ccs", "eta": "1", "r": 0.0}),
        "initial_state.eta", "csv",
    ),
    "explicit-sigma-qq-text": (
        gibbs_config(initial_state={"sigma_q": 0.0, "sigma_p": 0.0, "sigma_qq": "1",
                                    "sigma_pp": 1.0, "sigma_pq": 0.0}),
        "initial_state.sigma_qq", "csv",
    ),
    "window-s-qq-text": (gibbs_config(window={"s_qq": "0.5"}), "window.s_qq", "csv"),
    "window-s-qq-zero": (
        gibbs_config(window={"s_qq": 0}), "window variances must be positive", "csv"
    ),
    "window-not-object": (gibbs_config(window=5), "window must be an object", "csv"),
    "output-not-object": (gibbs_config(output=5), "output must be an object", "json"),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_one_with_one_line(tmp_path, name):
    conf, key, fmt = BAD_INPUTS[name]
    cfg = write_config(tmp_path, conf)
    proc = run_cli("evolve", "--config", cfg, "--format", fmt)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ") and key in proc.stderr


# name -> (command, a scenario whose big_omega = sqrt(omega**2 - mu**2) float64
# cannot hold)
UNHELD_BIG_OMEGA = {
    "validate-omega-1e-300": (
        "validate",
        {"oscillator": {"omega": 1e-300, "lambda": 0.0}, "diffusion": {"preset": "pure"}},
    ),
    "evolve-omega-1e200": (
        "evolve", gibbs_config(oscillator={"m": 1.0, "omega": 1e200, "lambda": 0.2, "mu": 0.0}),
    ),
}


@pytest.mark.parametrize("name", sorted(UNHELD_BIG_OMEGA))
def test_big_omega_float64_cannot_hold_exits_one(tmp_path, name):
    command, conf = UNHELD_BIG_OMEGA[name]
    proc = run_cli(command, "--config", write_config(tmp_path, conf))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: sqrt(omega**2 - mu**2) must be finite and > 0")


# name -> bytes of a scenario file that json cannot read
UNREADABLE_CONFIGS = {
    "non-utf8-byte": b'{"oscillator": {"omega": "\xff"}}',
    "deep-nesting": b"[" * 200_000,
}


@pytest.mark.parametrize("name", sorted(UNREADABLE_CONFIGS))
def test_unreadable_config_exits_one_with_one_line(tmp_path, name):
    path = tmp_path / "scenario.json"
    path.write_bytes(UNREADABLE_CONFIGS[name])
    proc = run_cli("validate", "--config", str(path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: config is not valid JSON: ")


@pytest.mark.parametrize("command", ["evolve", "steady", "husimi-grid"])
def test_zero_window_sqq_flag_exits_one(tmp_path, command):
    cfg = write_config(tmp_path, gibbs_config())
    proc = run_cli(command, "--config", cfg, "--window-sqq", "0")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: window variances must be positive\n"


def test_integral_float_n_samples_accepted(tmp_path):
    cfg = write_config(tmp_path, _bad_times(t_start=0.0, t_end=1.0, n_samples=3.0))
    proc = run_cli("evolve", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    _, rows = parse_csv(proc.stdout)
    assert [float(r["t"]) for r in rows] == [0.0, 0.5, 1.0]


# name -> (command and flags, flag the error line names)
BAD_FLAGS = {
    "kernel-n-x-negative": (["kernel", "--n-x", "-1"], "--n-x"),
    "kernel-n-x-zero": (["kernel", "--n-x", "0"], "--n-x"),
    "kernel-n-x-one": (["kernel", "--n-x", "1"], "--n-x"),
    "kernel-time-negative": (["kernel", "--time", "-1"], "--time"),
    "kernel-width-zero": (["kernel", "--width-sigmas", "0"], "--width-sigmas"),
    "wigner-time-infinity": (["wigner-grid", "--time", "inf"], "--time"),
    "wigner-time-nan": (["wigner-grid", "--time", "nan"], "--time"),
    "wigner-n-q-zero": (["wigner-grid", "--n-q", "0"], "--n-q"),
    "husimi-n-p-one": (["husimi-grid", "--n-p", "1"], "--n-p"),
    "husimi-width-infinity": (["husimi-grid", "--width-sigmas", "inf"], "--width-sigmas"),
}


@pytest.mark.parametrize("name", sorted(BAD_FLAGS))
def test_bad_grid_flag_exits_one_with_one_line(tmp_path, name):
    argv, flag = BAD_FLAGS[name]
    cfg = write_config(tmp_path, gibbs_config())
    proc = run_cli(argv[0], "--config", cfg, *argv[1:])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ") and flag in proc.stderr


# name -> a command line the parser rejects
BAD_COMMAND_LINES = {
    "non-integer-size": ["wigner-grid", "--config", "scenario.json", "--n-q", "abc"],
    "missing-config": ["evolve"],
    "no-command": [],
    "unknown-flag": ["steady", "--config", "scenario.json", "--bogus"],
    "negative-seed": ["selftest", "--seed", "-1"],
}


@pytest.mark.parametrize("name", sorted(BAD_COMMAND_LINES))
def test_command_line_error_exits_one_with_one_line(name):
    proc = run_cli(*BAD_COMMAND_LINES[name])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


# Flags a command does not act on, so it does not offer them.
DROPPED_FLAGS = [
    *[(command, "--window-sqq", "0.3") for command in
      ("validate", "wigner-grid", "kernel", "purity-scan")],
    ("validate", "--format", "json"),
    ("validate", "--out", "report.txt"),
]


@pytest.mark.parametrize("command,flag,value", DROPPED_FLAGS)
def test_flag_a_command_ignores_is_rejected(tmp_path, capsys, command, flag, value):
    argv = [command, "--config", write_config(tmp_path, gibbs_config()), flag, value]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "")
    assert err == f"error: unrecognized arguments: {flag} {value}\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["husimi-grid", "-h"])
    assert exc.value.code == 0 and "--window-sqq" in capsys.readouterr().out


def test_weak_coupling_warning_is_one_line(tmp_path):
    conf = {
        "oscillator": {"m": 1.0, "omega": 1.0, "lambda": 1.5, "mu": 0.1},
        "diffusion": {"preset": "gibbs", "temperature": 1.5},
        "initial_state": {"kind": "coherent", "alpha": [1.0, 0.5]},
        "times": {"list": [0.0, 0.5, 2.0]},
    }
    proc = run_cli("evolve", "--config", write_config(tmp_path, conf))
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        "warning: weak-coupling assumption strained: lam=1.5 >= omega=1.0"
    ]
    data = proc.stdout.encode("utf-8")
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        "cf0b45ce076f5e0b0844dc0bdac7136873b17f94a9efff33e7c60eca75452349", 915
    )


@pytest.mark.parametrize("command,header", [
    ("evolve", ",".join(cli.RUN_COLUMNS)),
    ("purity-scan", "t,sigma,gamma,r,is_pure,preserving,res_diffusion_determinant,"
     "res_mixed_balance,res_cross_balance,res_constant_sigma_qq,res_constant_sigma_pp,"
     "res_constant_sigma_pq"),
])
def test_empty_times_list_emits_no_rows(tmp_path, command, header):
    cfg = write_config(tmp_path, _bad_times(list=[]))
    proc = run_cli(command, "--config", cfg)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, header + "\n", "")
    proc = run_cli(command, "--config", cfg, "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"rows": []}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_axes_match_expanded_columns(capsys, fmt):
    q = np.array([-1.5, -0.0, 0.0, 1e-300, 2.0 / 3.0])
    p = np.array([-0.0, 0.1, 7.0])
    values = np.arange(15, dtype=float).reshape(5, 3) - 7
    values[1, 2] = math.nan
    flags = np.arange(15).reshape(5, 3) % 2 == 0
    output = (fmt, None)
    header = ["q", "p", "value", "flag"]
    cli._emit(output, header, [values, flags], ["measure=test"], axes=(q, p))
    with_axes = capsys.readouterr().out
    expanded = [np.repeat(q, 3), np.tile(p, 5), values.ravel(), flags.ravel()]
    cli._emit(output, header, expanded, ["measure=test"])
    assert with_axes == capsys.readouterr().out
    if fmt == "csv":
        assert with_axes.splitlines()[2:5] == [
            "-1.5,-0,-7,true", "-1.5,0.10000000000000001,-6,false", "-1.5,7,-5,true",
        ]
    for n_q, n_p in GRID_SHAPES:
        columns, axes = _grid_case(n_q, n_p)
        cli._emit(output, header, columns, ["measure=test"], axes=axes)
        with_axes = capsys.readouterr().out
        expanded = [np.repeat(axes[0], n_p), np.tile(axes[1], n_q), *map(np.ravel, columns)]
        cli._emit(output, header, expanded, ["measure=test"])
        assert with_axes == capsys.readouterr().out


# Grids of 1, B, B + 1 and 2B + 1 points, B = cli._BLOCK_ROWS, so that the
# expanded tables end on and just past a block boundary.
GRID_SHAPES = ((1, 1), (4, cli._BLOCK_ROWS // 4), (25, 41), (3, 683))


def _grid_case(n_q: int, n_p: int) -> tuple:
    """The value and flag columns and the axes of an n_q x n_p test grid."""
    q, p = np.linspace(-1.0, 1.0, n_q) / 3, np.linspace(-2.0, 5.0, n_p) / 7
    values = np.cos(np.add.outer(q, p) * 9)
    values[-1, 0] = math.nan
    return [values, values > 0], (q, p)


def _json_reference(header, columns, comments, axes):
    """What json.dumps writes for the rows and metadata _emit is given."""
    points = [g.ravel().tolist() for g in np.meshgrid(*axes, indexing="ij")]
    values = points + [np.ravel(c).tolist() for c in columns]
    rows = [
        {name: None if isinstance(v, float) and math.isnan(v) else v
         for name, v in zip(header, row)}
        for row in zip(*values)
    ]
    payload = {"rows": rows}
    if comments:
        payload["metadata"] = comments
    return json.dumps(payload, indent=1, allow_nan=False) + "\n"


JSON_CASES = {
    "no-rows": (["t", "x"], [[], []], None, ()),
    "no-rows-metadata": (["t"], [[]], ["measure=dqdp", "note"], ()),
    "bool-string-int-nan": (
        ["t", "flag", "name", "count", "value"],
        [[0.0, 0.5, 1e-300], [True, False, True], ["inf", 'a"b%s', "\u00e9"],
         [1, -2, 3], [math.nan, -0.0, 2.0 / 3.0]],
        None, (),
    ),
    "grid-metadata": (
        ["q", "p", "value"], [np.arange(6.0).reshape(2, 3) / 7], ["measure=dqdp"],
        (np.array([-1.0, 0.1]), np.array([0.0, 1e-5, 7.0])),
    ),
}


def _table_case(rows: int) -> tuple:
    t = np.arange(rows) / 7
    value = np.where(np.arange(rows) % 5 == 4, math.nan, -t)
    return ["t", "flag", "value"], [t, t > 0.5, value], ["measure=dqdp"] if rows > 1 else None, ()


# Tables that end on and just past a block boundary.
JSON_CASES.update({
    f"{rows}-rows": _table_case(rows)
    for rows in (1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1, 2 * cli._BLOCK_ROWS + 1)
})
# Non-ASCII text over three blocks.
JSON_CASES["3-blocks-non-ascii"] = (
    ["t", "name"],
    [np.arange(2 * cli._BLOCK_ROWS + 1) / 7,
     [f"\u00e9{k}\u2603" for k in range(2 * cli._BLOCK_ROWS + 1)]],
    None, (),
)
# Header names holding %, which go into the separators of each row as they are.
JSON_CASES["percent-header"] = (["100%", "a%%b%s"], [[0.5, math.nan], [1, 2]], None, ())
# Floats on each side of every boundary of repr's layout, on grid axes and
# in a column mixed with bools, strings and NaN.
JSON_CASES["layout-boundaries"] = (
    ["q", "p", "value", "flag", "name"],
    [[1e-4, math.nan, -0.0, 123.0, 1e16, 1e-5], [True, False] * 3, list("abcdef")],
    None,
    (np.array([1e16, 9999999999999998.0]), np.array([1e-4, 1e-5, -0.0])),
)
# A grid whose blocks of B points end in the middle of an outer-axis row.
JSON_CASES.update({"grid-3x683": (["q", "p", "value", "flag"], columns, ["measure=test"], axes)
                   for columns, axes in [_grid_case(3, 683)]})


@pytest.mark.parametrize("case", JSON_CASES)
def test_emit_json_matches_json_dumps(capsys, case):
    header, columns, comments, axes = JSON_CASES[case]
    output = ("json", None)
    cli._emit(output, header, columns, comments, axes=axes)
    assert capsys.readouterr().out == _json_reference(header, columns, comments, axes)


def _csv_reference(header, columns, comments, axes):
    """What _emit writes as CSV, value by value: '%.17g' % v for numbers,
    true or false for bools and str(v) for anything else."""
    def text(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return "%.17g" % v if isinstance(v, (int, float)) else str(v)

    points = [g.ravel().tolist() for g in np.meshgrid(*axes, indexing="ij")]
    values = points + [np.ravel(c).tolist() for c in columns]
    lines = [f"# {line}" for line in comments or []] + [",".join(header)]
    return "".join(f"{line}\n" for line in lines + [",".join(map(text, row))
                                                   for row in zip(*values)])


def _mixed_case(rows: int) -> tuple:
    """Float, bool, string, int and NaN-holding columns of `rows` rows."""
    k = np.arange(rows)
    names = [f'a"b%s\u00e9{i}\u2603' for i in k.tolist()]
    value = np.where(k % 5 == 4, math.nan, -k / 3.0)
    return ["t", "flag", "name", "count", "value"], [k / 7, k % 3 == 0, names, k - rows // 2,
                                                      value], None, ()


# The JSON cases, the test grids, and tables that end on and just past a CSV
# block of B fields, B = cli._BLOCK_FIELDS.
CSV_CASES = {
    **JSON_CASES,
    **{f"grid-{n_q}x{n_p}": (["q", "p", "value", "flag"], columns, ["measure=test"], axes)
       for n_q, n_p in GRID_SHAPES for columns, axes in [_grid_case(n_q, n_p)]},
    **{f"{rows}-rows-csv": _table_case(rows)
       for rows in (cli._BLOCK_FIELDS // 3, cli._BLOCK_FIELDS // 3 + 1)},
    **{f"{rows}-rows-mixed": _mixed_case(rows)
       for rows in (1, cli._BLOCK_FIELDS // 5, 2 * (cli._BLOCK_FIELDS // 5) + 1)},
}


@pytest.mark.parametrize("case", CSV_CASES)
def test_emit_csv_matches_per_value_reference(capsys, case):
    header, columns, comments, axes = CSV_CASES[case]
    cli._emit(("csv", None), header, columns, comments, axes=axes)
    assert capsys.readouterr().out == _csv_reference(header, columns, comments, axes)


class _FailingSink:
    """Stand-in for stdout that takes the first `ok` writes and raises on the
    next."""

    def __init__(self, error: BaseException, ok: int):
        self.error, self.ok = error, ok

    def write(self, text: str) -> int:
        self.ok -= 1
        if self.ok < 0:
            raise self.error
        return len(text)


@pytest.mark.parametrize("error", [OSError(errno.EPIPE, "Broken pipe"), KeyboardInterrupt()],
                         ids=["broken-pipe", "interrupt"])
def test_emit_write_error_propagates_and_leaves_nothing(error):
    columns, axes = _grid_case(25, 41)
    # The head and the first block go through.  The error of the next write
    # reaches the caller unchanged, and nothing more is written after it.
    sink = _FailingSink(error, 2)
    with contextlib.redirect_stdout(sink), pytest.raises(type(error)):
        cli._emit(("csv", None), ["q", "p", "value", "flag"], columns, axes=axes)
    assert sink.ok == -1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_output_device_exits_one(tmp_path, capsys):
    # /dev/full takes the open and fails the first flush, which comes once
    # the head and the first blocks of this grid have filled the file's buffer.
    cfg = write_config(tmp_path, gibbs_config())
    argv = ["wigner-grid", "--config", cfg, "--n-q", "200", "--n-p", "10", "--out", "/dev/full"]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot write output: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n")


@pytest.mark.parametrize("argv", [
    ["evolve"], ["wigner-grid", "--format", "json", "--n-q", "512", "--n-p", "512"],
])
def test_closed_stdout_pipe_exits_one(tmp_path, argv):
    # The reader takes a few bytes of an output far larger than a pipe holds
    # and closes its end; the next write fails with EPIPE.
    times = {"t_start": 0.0, "t_end": 50.0, "n_samples": 20_001}
    config = write_config(tmp_path, gibbs_config(times=times))
    with subprocess.Popen([sys.executable, "-m", "lindosc", *argv, "--config", config],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env={**os.environ, **DEV_MODE}) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert proc.returncode == 1
    assert stderr == f"error: cannot write output: {OSError(errno.EPIPE, os.strerror(errno.EPIPE))}\n"


class _CountingSink:
    """Stand-in for stdout that counts the characters written and keeps none."""

    def __init__(self):
        self.written = 0

    def write(self, text: str) -> int:
        self.written += len(text)
        return len(text)


class _KeepingSink(_CountingSink):
    """Stand-in for stdout that counts the characters written and keeps them
    all, as the benchmark's in-process capture does."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return super().write(text)


def _traced_peak(call) -> int:
    """The tracemalloc peak of call(), above what was allocated before it."""
    outer_trace = tracemalloc.is_tracing()
    if not outer_trace:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not outer_trace:
            tracemalloc.stop()


def _emit_peak_share(fmt: str, case: str, sink: _CountingSink | None = None) -> float:
    """The peak allocation inside _emit per character written to `sink`, a
    _CountingSink by default, as a share of its bound: 1/8 of a character
    for a grid, one for a table."""
    rng = np.random.default_rng(1)
    if case == "grid-512x512":
        header, axes = ["q", "p", "value"], (np.linspace(-3, 3, 512), np.linspace(-2, 2, 512))
        columns, share = [rng.random((512, 512))], 1 / 8
    else:
        header, axes = [f"c{i}" for i in range(15)], ()
        columns, share = list(rng.random((15, 10_001))), 1.0
    sink = sink or _CountingSink()

    def emit():
        with contextlib.redirect_stdout(sink):
            cli._emit((fmt, None), header, columns, ["measure=test"], axes=axes)

    peak = _traced_peak(emit)
    assert sink.written > 2_000_000
    return peak / sink.written / share


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", ["grid-512x512", "table-10001x15"])
def test_emit_memory_stays_below_the_output_size(fmt, case):
    assert _emit_peak_share(fmt, case) < 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_memory_holds_kept_text_once(fmt):
    """A caller that keeps every chunk holds the text once: the peak is at
    most 1.1 times the characters written."""
    assert _emit_peak_share(fmt, "grid-512x512", _KeepingSink()) / 8 <= 1.1


@pytest.mark.parametrize("argv", [["evolve"], ["evolve", "--format", "json"], ["purity-scan"]])
def test_trajectory_rows_are_held_once(tmp_path, argv):
    """A trajectory command peaks within 1.1 times what sample_trajectory
    alone allocates for the same times: each row is held once, as its
    (state, scalars) pair, until it is moved into the output columns."""
    times = {"t_start": 0.0, "t_end": 50.0, "n_samples": 8001}
    config = write_config(tmp_path, gibbs_config(times=times))
    argv = [*argv, "--config", config, "--out", os.devnull]
    sc = cli._scenario(cli.build_parser().parse_args(argv), "times")
    alone = _traced_peak(
        lambda: propagator.sample_trajectory(sc.osc, sc.diff, sc.state0, sc.times))
    assert _traced_peak(lambda: cli.main(argv)) <= 1.1 * alone


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_emit_rejects_infinite_values(capsys, fmt, bad):
    output = (fmt, None)
    columns = [[0.0, 1.0], [math.nan, bad]]
    with pytest.raises(ConsistencyError, match="output column t_eff holds an infinite value"):
        cli._emit(output, ["t", "t_eff"], columns)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("hbar", ["1e155", "1e-200"])
def test_extreme_hbar_exits_one_naming_the_range(tmp_path, hbar):
    proc = run_cli("evolve", "--config", write_config(tmp_path, gibbs_config()), "--hbar", hbar)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: hbar must be within [1e-100, 1e+100], got {float(hbar)!r}\n"


INADMISSIBLE = gibbs_config(diffusion={"d_qq": -0.1, "d_pp": 0.3, "d_pq": 0.0})


@pytest.mark.parametrize("command", [
    "evolve", "steady", "purity-scan", "wigner-grid", "husimi-grid", "kernel",
])
def test_inadmissible_coefficients_rejected_before_propagation(tmp_path, command):
    proc = run_cli(command, "--config", write_config(tmp_path, INADMISSIBLE))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: inadmissible diffusion coefficients: ")
    assert "d_qq_positive fails (margin=-0.10000000000000001)" in proc.stderr
    assert "determinant fails" in proc.stderr


def test_infinite_hbar_flag_rejected(tmp_path):
    proc = run_cli("evolve", "--config", write_config(tmp_path, gibbs_config()),
                   "--hbar", "inf")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: hbar must be finite and > 0, got inf\n"


def test_unwritable_output_path_exits_one(tmp_path):
    out = tmp_path / "missing" / "x.csv"
    proc = run_cli("evolve", "--config", write_config(tmp_path, gibbs_config()),
                   "--out", str(out))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: cannot write output: ")
    assert "Traceback" not in proc.stderr and not out.exists()


COMMANDS_WITH_CONFIG = [
    "validate", "evolve", "steady", "purity-scan", "wigner-grid", "husimi-grid", "kernel",
]
# Blocks every command reads, when present, before it propagates.
BAD_BLOCKS = {
    "times": ({"list": "x"}, "times.list"),
    "window": (5, "window must be an object"),
    "output": ({"format": 5}, "output.format"),
}


@pytest.fixture
def no_propagation(monkeypatch):
    """Make every propagation and phase-space evaluation fail the test."""
    def called(*args, **kwargs):
        raise AssertionError("scenario errors must be reported before any propagation")

    from lindosc import phasespace, propagator, purity
    for module, name in ((phasespace, "wigner_grid"), (phasespace, "husimi_grid"),
                         (phasespace, "density_kernel_at"), (propagator, "evolve"),
                         (propagator, "sample_trajectory"), (propagator, "steady_state"),
                         (purity, "sample_trajectory")):
        monkeypatch.setattr(module, name, called)


def _main_error(capsys, argv):
    """(exit code, stdout, the lines on stderr) of an in-process run."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err.splitlines()


@pytest.mark.parametrize("command", COMMANDS_WITH_CONFIG)
def test_malformed_scenario_rejected_before_propagation(tmp_path, capsys, no_propagation,
                                                        command):
    conf = gibbs_config(**{block: value for block, (value, _) in BAD_BLOCKS.items()})
    code, out, err = _main_error(capsys, [command, "--config", write_config(tmp_path, conf)])
    assert (code, out, err) == (
        1, "", ["error: output.format must be a string, got 5"]
    )


@pytest.mark.parametrize("block,command", [
    (block, command) for block in sorted(BAD_BLOCKS) for command in COMMANDS_WITH_CONFIG
])
def test_each_malformed_block_names_its_key(tmp_path, capsys, no_propagation, block, command):
    value, key = BAD_BLOCKS[block]
    conf = gibbs_config(**{block: value})
    code, out, err = _main_error(capsys, [command, "--config", write_config(tmp_path, conf)])
    assert (code, out, len(err)) == (1, "", 1)
    assert err[0].startswith("error: ") and key in err[0]


# Configs whose arithmetic leaves the float64 range, with the commands that
# reach it and what the error line names: (a) the determinant margin squares
# lambda*hbar, (b) the ops coefficients square |a|, (c) the Gibbs preset
# divides by tanh of an underflowed hbar*omega/2kT, (d) the determinant squares
# sigma_pq, and (e) the steady state divides by an underflowed denominator, and
# (f) the determinant margin's d_pp * d_qq overflows to +inf.
FLOAT_RANGE_CASES = {
    "a-friction": (gibbs_config(oscillator={"omega": 1.0, "lambda": 1.4e156},
                                diffusion={"d_qq": 0.0, "d_pp": 0.0}), COMMANDS_WITH_CONFIG,
                   "determinant margin d_pp*d_qq - d_pq**2 - (lam*hbar/2)**2 with d_pp=0.0, "
                   "d_qq=0.0, d_pq=0.0, lam=1.4e+156, hbar=1.0"),
    "b-ops": (gibbs_config(diffusion={"ops": [{"a": [1e160, 0.0], "b": [0.0, 1.0]}]}),
              COMMANDS_WITH_CONFIG, "|c|**2 of the largest ops coefficient c with c=(1e+160+0j)"),
    "c-gibbs": (gibbs_config(oscillator={"omega": 1.0, "lambda": 0.2, "hbar": 1e-100},
                             diffusion={"preset": "gibbs", "temperature": 1e300}),
                COMMANDS_WITH_CONFIG,
                "1/tanh(hbar*omega/(2*boltzmann*temperature)) with hbar=1e-100, omega=1.0, "
                "boltzmann=1.0, temperature=1e+300"),
    "d-moments": (gibbs_config(initial_state={"sigma_q": 0.0, "sigma_p": 0.0, "sigma_qq": 1e200,
                                              "sigma_pp": 1e200, "sigma_pq": 1e160}),
                  COMMANDS_WITH_CONFIG, "sigma_pq**2 with sigma_pq=1e+160"),
    "e-steady": (gibbs_config(oscillator={"m": 1e-150, "omega": 1e-100, "lambda": 1e-101},
                              diffusion={"d_qq": 1.0, "d_pp": 1.0}),
                 ["evolve", "steady", "purity-scan"],
                 "steady-state denominator m**2 * 2*lam*(lam**2 + omega**2 - mu**2) with "
                 "m=1e-150, omega=1e-100, lam=1e-101, mu=0.0"),
    "f-margin": (gibbs_config(diffusion={"d_qq": 1e200, "d_pp": 1e200}), COMMANDS_WITH_CONFIG,
                 "determinant margin d_pp*d_qq - d_pq**2 - (lam*hbar/2)**2 with d_pp=1e+200, "
                 "d_qq=1e+200, d_pq=0.0, lam=0.2, hbar=1.0"),
}


@pytest.mark.parametrize("case,command", [
    (case, command) for case, (_, commands, _) in FLOAT_RANGE_CASES.items()
    for command in commands
])
def test_float_range_overflow_exits_one(tmp_path, capsys, case, command):
    conf, _, named = FLOAT_RANGE_CASES[case]
    code, out, err = _main_error(capsys, [command, "--config", write_config(tmp_path, conf)])
    errors = [line for line in err if line.startswith("error:")]
    assert (code, out, len(errors)) == (1, "", 1)
    assert errors[0] == f"error: value outside the floating-point range: {named}"
    assert not any("Traceback" in line for line in err)
    # The weak-coupling warning of case (a) is kept; nothing else is printed.
    assert [line for line in err if line not in errors] == (
        ["warning: weak-coupling assumption strained: lam=1.4e+156 >= omega=1.0"]
        if case == "a-friction" else [])


# Start states that float64 cannot hold, with the one error line each gives:
# sigma_qq * sigma_pp overflows to inf while sigma_pq**2 stays finite, and the
# coherent mean 2 * eta * alpha overflows to inf.
INFINITE_STATES = (
    ({"sigma_q": 0.0, "sigma_p": 0.0, "sigma_qq": 1e200, "sigma_pp": 1e200, "sigma_pq": 0.0},
     "error: covariance matrix must be positive definite with a finite determinant, det=inf"),
    ({"kind": "coherent", "alpha": [1.7e308, 0.5]},
     "error: means must be finite, got sigma_q=inf, sigma_p=0.7071067811865475"),
)


@pytest.mark.parametrize("command", COMMANDS_WITH_CONFIG)
def test_state_with_infinite_determinant_exits_one(tmp_path, capsys, no_propagation, command):
    for state, message in INFINITE_STATES:
        conf = gibbs_config(initial_state=state)
        code, out, err = _main_error(capsys, [command, "--config", write_config(tmp_path, conf)])
        # One error line, and no numpy warning or traceback beside it.
        assert (code, out, err) == (1, "", [message])


@pytest.mark.filterwarnings("default::RuntimeWarning")
def test_kernel_values_out_of_float_range_exit_one(tmp_path, capsys):
    # The kernel's squares overflow and its values turn NaN; they are refused
    # as the grids refuse theirs, before any output.
    conf = gibbs_config(initial_state={"sigma_q": 0.3, "sigma_p": -0.2,
                                       "sigma_qq": 1.7976931348623157e308, "sigma_pp": 0.6,
                                       "sigma_pq": 0.1})
    code, out, err = _main_error(
        capsys, ["kernel", "--config", write_config(tmp_path, conf), "--n-x", "3"])
    assert (code, out) == (1, "")
    assert [line for line in err if not line.startswith("warning: ")] == [
        "error: kernel values must be finite"]


# A start state whose mean dwarfs its spread: every point of its q axis is
# the same float, so neither a grid nor the kernel can be sampled on it.
COLLAPSED_STATE = {"sigma_q": 1e300, "sigma_p": 0.0, "sigma_qq": 1.0, "sigma_pp": 1.0,
                   "sigma_pq": 0.0}


@pytest.mark.parametrize("argv,spread", [
    (["kernel", "--n-x", "3"], 4.0),
    (["wigner-grid", "--n-q", "3", "--n-p", "3"], 8.0),
    (["husimi-grid", "--n-q", "3", "--n-p", "3"], 8.0 * math.sqrt(1.5)),
], ids=["kernel", "wigner-grid", "husimi-grid"])
def test_collapsed_axis_exits_one(tmp_path, capsys, argv, spread):
    conf = gibbs_config(initial_state=COLLAPSED_STATE)
    code, out, err = _main_error(capsys, [*argv, "--config", write_config(tmp_path, conf)])
    assert (code, out, err) == (1, "", [
        f"error: axis points must increase strictly, but 3 points on 1e+300 +- {spread!r} do not"])


# Axes whose ends lie beyond the float range: an infinite spread, and a
# finite spread that carries a centre near the float maximum past it.
INFINITE_SPANS = {
    "infinite-spread": ({"sigma_q": 0.0, "sigma_p": 0.0, "sigma_qq": 1e100, "sigma_pp": 1.0,
                         "sigma_pq": 0.0}, "1e300"),
    "end-overflows": ({"sigma_q": 1.7e308, "sigma_p": 0.0, "sigma_qq": 1.0, "sigma_pp": 1.0,
                       "sigma_pq": 0.0}, "1e308"),
}


# The default filter lets a RuntimeWarning reach the CLI, which would print
# it as a warning line, rather than raise it inside the test.
@pytest.mark.filterwarnings("default::RuntimeWarning")
@pytest.mark.parametrize("span", INFINITE_SPANS)
@pytest.mark.parametrize("argv", [
    ["kernel", "--n-x", "3"],
    ["wigner-grid", "--n-q", "3", "--n-p", "3"],
    ["husimi-grid", "--n-q", "3", "--n-p", "3"],
], ids=["kernel", "wigner-grid", "husimi-grid"])
def test_infinite_axis_span_exits_one(tmp_path, capsys, argv, span):
    state, width = INFINITE_SPANS[span]
    conf = gibbs_config(initial_state=state)
    code, out, err = _main_error(
        capsys, [*argv, "--width-sigmas", width, "--config", write_config(tmp_path, conf)])
    assert (code, out, len(err)) == (1, "", 1)
    assert err[0].startswith("error: axis ends must be finite, but ")


# Starting points of the config-mutation sweep: the baseline, each other
# diffusion source and each other initial-state kind, at small sizes.
SWEEP_BASES = {
    "baseline": gibbs_config(oscillator={"m": 1.0, "omega": 1.0, "lambda": 0.2, "mu": 0.1,
                                         "hbar": 1.0, "boltzmann": 1.0},
                             times={"t_start": 0.0, "t_end": 5.0, "n_samples": 5}),
    "pure": gibbs_config(diffusion={"preset": "pure"}, times={"list": [0.0, 1.0, 2.5]}),
    "explicit": gibbs_config(oscillator={"m": 1.0, "omega": 1.0, "lambda": 0.0},
                             diffusion={"d_qq": 0.3, "d_pp": 0.4, "d_pq": 0.05},
                             times={"list": [0.0, 1.5]}, window={"s_qq": 0.7}),
    "ops": gibbs_config(diffusion={"ops": [{"a": [0.0, 0.4], "b": [0.5, 0.0]}]},
                        times={"t_start": 0.0, "t_end": 3.0, "n_samples": 4}),
    "coherent": gibbs_config(initial_state={"kind": "coherent", "alpha": [1.0, 0.5]},
                             times={"t_start": 0.0, "t_end": 2.0, "n_samples": 3}),
    "ccs": gibbs_config(initial_state={"kind": "ccs", "eta": 0.8, "r": 0.3,
                                       "alpha": [0.2, -1.0]},
                        times={"t_start": 0.0, "t_end": 2.0, "n_samples": 3}),
    "moments": gibbs_config(initial_state={"sigma_q": 0.3, "sigma_p": -0.2, "sigma_qq": 0.8,
                                           "sigma_pp": 0.6, "sigma_pq": 0.1},
                            times={"list": [0.0, 0.5, 4.0]}),
}
SWEEP_VALUES = (0, 5e-324, -5e-324, 1e154, -1e154, 1e-154, 1e300, -1e300, 1e-300,
                1.7976931348623157e308, -1.7976931348623157e308,
                True, False, "x", None, [], {})
SWEEP_CONFIGS = 40
SWEEP_ARGS = {"wigner-grid": ["--n-q", "3", "--n-p", "3"],
              "husimi-grid": ["--n-q", "3", "--n-p", "3"], "kernel": ["--n-x", "3"]}
NON_FINITE_TOKEN = re.compile(r"\b(?:inf|nan)\b")


def _paths(node, prefix=()):
    """Every key path below `node`, a config document, containers included."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield (*prefix, key)
        if isinstance(value, (dict, list)) and value:
            yield from _paths(value, (*prefix, key))


def _mutated(rng, base):
    """`base` with 1 to 3 values, leaves or whole blocks, set to SWEEP_VALUES."""
    cfg = json.loads(json.dumps(base))
    for _ in range(rng.integers(1, 4)):
        paths = list(_paths(cfg))
        *parents, key = paths[rng.integers(len(paths))]
        node = cfg
        for parent in parents:
            node = node[parent]
        node[key] = SWEEP_VALUES[rng.integers(len(SWEEP_VALUES))]
    return cfg


def _non_finite_cells(command, cfg, out):
    """The inf and nan tokens of an exit-0 stdout, apart from steady's t and,
    at lambda = 0, purity-scan's res_constant_* columns, which hold them by
    definition."""
    if command not in ("steady", "purity-scan"):
        return NON_FINITE_TOKEN.findall(out)
    header, *rows = [line.split(",") for line in out.splitlines()]
    lam_zero = cfg["oscillator"]["lambda"] == 0

    def exempt(name):
        return name == "t" if command == "steady" else (
            lam_zero and name.startswith("res_constant_"))

    return [cell for row in rows for name, cell in zip(header, row)
            if not exempt(name) and NON_FINITE_TOKEN.search(cell)]


@pytest.mark.filterwarnings("default::RuntimeWarning")
@pytest.mark.parametrize("base", sorted(SWEEP_BASES))
def test_config_mutation_sweep_keeps_the_exit_contract(tmp_path, capsys, base):
    # Seeded extremes in 1 to 3 places of a working config, on every command:
    # exit 0, 1 or 2 with no escaping exception; warnings beside at most one
    # error line; no stdout beside an error, apart from validate's report;
    # and no inf or nan written on exit 0.
    rng = np.random.default_rng([20261020, sorted(SWEEP_BASES).index(base)])
    broken = []
    for i in range(SWEEP_CONFIGS):
        cfg = _mutated(rng, SWEEP_BASES[base])
        path = write_config(tmp_path, cfg, f"sweep{i}.json")
        for command in COMMANDS_WITH_CONFIG:
            argv = [command, "--config", path, *SWEEP_ARGS.get(command, [])]
            try:
                code = cli.main(argv)
            except Exception as exc:  # any escape breaks the contract
                code = f"{type(exc).__name__}: {exc}"
            out, err = capsys.readouterr()
            errors = [line for line in err.splitlines() if not line.startswith("warning: ")]
            fault = (
                code not in (0, 1, 2)
                or len(errors) > 1
                or not all(line.startswith(("error: ", "numerical-consistency error: "))
                           for line in errors)
                or (code != 0 and out and command != "validate")
                or (code == 0 and (errors or _non_finite_cells(command, cfg, out)))
            )
            if fault:
                broken.append((command, json.dumps(cfg), code, err, out[:300]))
    assert not broken, broken[:3]


def _without(*blocks):
    conf = gibbs_config()
    for block in blocks:
        del conf[block]
    return conf


@pytest.mark.parametrize("blocks", [("initial_state",), ("times",), ("initial_state", "times")])
def test_validate_reports_without_an_absent_block(tmp_path, blocks):
    proc = run_cli("validate", "--config", write_config(tmp_path, _without(*blocks)))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines() == run_cli(
        "validate", "--config", write_config(tmp_path, gibbs_config(), "full.json")
    ).stdout.splitlines()


@pytest.mark.parametrize("block,commands,key", [
    ("initial_state", COMMANDS_WITH_CONFIG[1:], "initial_state"),
    ("times", ["evolve", "purity-scan"], "times.n_samples"),
])
def test_command_that_needs_a_block_rejects_its_absence(tmp_path, capsys, no_propagation,
                                                        block, commands, key):
    config = write_config(tmp_path, _without(block))
    for command in commands:
        assert _main_error(capsys, [command, "--config", config]) == (
            1, "", [f"error: missing {key}"])


@pytest.mark.parametrize("command", ["steady", "wigner-grid", "husimi-grid", "kernel"])
def test_command_runs_without_a_times_block(tmp_path, capsys, command):
    config = write_config(tmp_path, _without("times"))
    code, out, err = _main_error(capsys, [command, "--config", config])
    assert (code, err) == (0, []) and out


def test_unknown_output_format_names_the_key(tmp_path, capsys, no_propagation):
    conf = gibbs_config(output={"format": "xml"})
    code, out, err = _main_error(capsys, ["wigner-grid", "--config",
                                          write_config(tmp_path, conf)])
    assert (code, out) == (1, "")
    assert err == ["error: output.format must be 'csv' or 'json', got 'xml'"]


@pytest.mark.parametrize("times,message", [
    ([-0.5, 1.0], "times must be >= 0"),
    ([0.0, 1.0, 1.0], "times must be strictly increasing"),
])
@pytest.mark.parametrize("command", ["evolve", "wigner-grid"])
def test_bad_time_grid_rejected_before_propagation(tmp_path, capsys, no_propagation,
                                                   command, times, message):
    config = write_config(tmp_path, _bad_times(list=times))
    assert _main_error(capsys, [command, "--config", config]) == (1, "", [f"error: {message}"])


@pytest.fixture
def no_allocation(monkeypatch, no_propagation):
    """no_propagation, and np.linspace fails the test as well."""
    def called(*args, **kwargs):
        raise AssertionError("size caps must be checked before any allocation")

    monkeypatch.setattr(np, "linspace", called)


def _samples(n):
    return _bad_times(t_start=0.0, t_end=1.0, n_samples=n)


# name -> (command line, scenario, the key or flag the error line names)
OVERSIZED = {
    "n-samples-1e18": (["evolve"], _samples(1e18), "times.n_samples"),
    "n-samples-one-over": (["evolve"], _samples(cli.MAX_ROWS + 1), "times.n_samples"),
    "wigner-3e9-points": (["wigner-grid", "--n-q", "3000000000", "--n-p", "2"],
                          _without("times"), "--n-q * --n-p"),
    "husimi-one-over": (["husimi-grid", "--n-q", "1025", "--n-p", "1024"],
                        _without("times"), "--n-q * --n-p"),
    "kernel-1e5-axis": (["kernel", "--n-x", "100000"], _without("times"), "--n-x"),
    "kernel-one-over": (["kernel", "--n-x", "1025"], _without("times"), "--n-x"),
}

# name -> (command line, scenario) asking for exactly MAX_ROWS rows or points
AT_THE_CAP = {
    "n-samples": (["evolve"], _samples(cli.MAX_ROWS)),
    "wigner-grid": (["wigner-grid", "--n-q", "1024", "--n-p", "1024"], _without("times")),
    "kernel": (["kernel", "--n-x", "1024"], _without("times")),
}


def _sized_argv(tmp_path, argv, conf):
    return [argv[0], "--config", write_config(tmp_path, conf), *argv[1:]]


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_output_rejected_before_allocation(tmp_path, capsys, no_allocation, name):
    argv, conf, key = OVERSIZED[name]
    code, out, err = _main_error(capsys, _sized_argv(tmp_path, argv, conf))
    assert (code, out, len(err)) == (1, "", 1)
    assert err[0].startswith("error: ") and key in err[0] and str(cli.MAX_ROWS) in err[0]


@pytest.mark.parametrize("name", sorted(AT_THE_CAP))
def test_output_at_the_cap_passes_the_size_check(tmp_path, no_allocation, name):
    with pytest.raises(AssertionError, match="before any"):
        cli.main(_sized_argv(tmp_path, *AT_THE_CAP[name]))


@pytest.mark.parametrize("command", ["evolve", "purity-scan"])
def test_times_list_over_the_cap_rejected_before_propagation(tmp_path, capsys,
                                                              no_propagation, command):
    # entries that fail their own check, so that the cap must come first
    config = write_config(tmp_path, _bad_times(list=["x"] * (cli.MAX_ROWS + 1)))
    assert _main_error(capsys, [command, "--config", config]) == (1, "", [
        f"error: times.list must hold at most {cli.MAX_ROWS} times, got {cli.MAX_ROWS + 1}"])


def test_times_list_at_the_cap_passes_the_size_check(tmp_path, no_propagation):
    config = write_config(tmp_path, _bad_times(list=list(range(cli.MAX_ROWS))))
    with pytest.raises(AssertionError, match="before any"):
        cli.main(["purity-scan", "--config", config])


def _diffusion_block(rng, source: str, osc: OscillatorSpec) -> dict:
    """A scenario diffusion block of `source` for `osc`, drawn from `rng`."""
    if source == "gibbs":
        return {"preset": "gibbs", "temperature": rng.uniform(0.1, 5.0)}
    if source == "pure":
        return {"preset": "pure"}
    if source == "ops":
        # one random operator, rescaled so that its friction is osc.lam
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        friction = -(a.conjugate() * b).imag
        scale = math.sqrt(osc.lam / abs(friction))
        a, b = a * scale, b * math.copysign(scale, friction)
        return {"ops": [{"a": [a.real, a.imag], "b": [b.real, b.imag]}]}
    diff = random_diffusion(rng, osc)
    return {"d_qq": diff.d_qq, "d_pp": diff.d_pp, "d_pq": diff.d_pq}


@pytest.mark.parametrize("hbar", [1.0, 0.3])
@pytest.mark.parametrize("source", ["gibbs", "explicit", "ops", "pure"])
def test_run_row_t_eff_is_the_effective_temperature(rng, source, hbar):
    """evolve's t_eff is effective_temperature on every diffusion source, and
    the bath-temperature route of derived_scalars on the thermal one."""
    column = cli.RUN_COLUMNS.index("t_eff")
    zero_nu = 0
    for draw in range(20):
        drawn = random_oscillator(rng, lam_range=(0.3, 0.9), mu_frac=0.25)
        osc = OscillatorSpec(drawn.mass, drawn.omega, drawn.lam, drawn.mu, hbar=hbar)
        block = _diffusion_block(rng, source, osc)
        diff = cli.build_diffusion({"diffusion": block}, osc)
        state0 = random_state(rng, hbar, (0.0, 0.0) if draw % 2 else (0.0, 3.0))
        window = CoherentWindow.matched(osc)
        traj = propagator.sample_trajectory(osc, diff, state0, [0.0, 0.5, 5.0])
        for state, _ in traj:
            scalars = entropy.derived_scalars(osc, state, diff=diff, window=window)
            t_eff = cli._run_row(state.t, state, scalars, osc)[column]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert t_eff == entropy.effective_temperature(osc, state)
            if source == "gibbs":
                assert t_eff == entropy.derived_scalars(
                    osc, state, diff=diff, window=window,
                    thermal_temperature=block["temperature"],
                ).t_eff
            if scalars.nu == 0.0:
                assert t_eff == 0.0
                zero_nu += 1
    # the pure starts reach nu = 0, where T(nu) takes its special case
    assert zero_nu > 0
