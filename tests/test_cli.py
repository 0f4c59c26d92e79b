import csv
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from lindosc import ConsistencyError, OscillatorSpec, cli, preset_gibbs, steady_state
from lindosc.entropy import von_neumann_entropy


def run_cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "lindosc", *argv],
        capture_output=True,
        text=True,
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


def test_evolve_output_file(tmp_path):
    cfg = write_config(tmp_path, gibbs_config())
    target = tmp_path / "run.csv"
    proc = run_cli("evolve", "--config", cfg, "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    header, rows = parse_csv(target.read_text())
    assert len(rows) == 11


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


def test_wigner_grid_normalized(tmp_path):
    cfg = write_config(tmp_path, gibbs_config())
    proc = run_cli("wigner-grid", "--config", cfg, "--n-q", "101", "--n-p", "101")
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
    proc = run_cli("kernel", "--config", cfg, "--time", "1.0", "--n-x", "7")
    header, rows = parse_csv(proc.stdout)
    assert header == ["x", "y", "re", "im"]
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


def test_selftest_seed_flag():
    proc = run_cli("selftest", "--seed", "7")
    assert proc.returncode == 0, proc.stdout



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


@pytest.mark.parametrize("case", JSON_CASES)
def test_emit_json_matches_json_dumps(capsys, case):
    header, columns, comments, axes = JSON_CASES[case]
    output = ("json", None)
    cli._emit(output, header, columns, comments, axes=axes)
    assert capsys.readouterr().out == _json_reference(header, columns, comments, axes)


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

    from lindosc import phasespace, propagator
    for module, name in ((phasespace, "wigner_grid"), (phasespace, "husimi_grid"),
                         (phasespace, "density_kernel_at"), (propagator, "evolve"),
                         (propagator, "sample_trajectory"), (propagator, "steady_state")):
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
