"""Frozen stdout of every emitting command.

Each case runs one command in-process on a small scenario and compares its
exit code and the SHA-256 and length of its stdout with the values in
GOLDEN.  A refactor of the output path must keep every case green without
touching GOLDEN; a deliberate output change updates GOLDEN and says so in
CHANGES.md.
"""
import contextlib
import hashlib
import io
import json
import math

import pytest

from lindosc import cli

SCENARIOS = {
    # ROADMAP baseline with a short explicit time list and a squeezed window.
    "baseline": {
        "oscillator": {"m": 1.0, "omega": 1.0, "lambda": 0.2, "mu": 0.1},
        "diffusion": {"preset": "gibbs", "temperature": 1.5},
        "initial_state": {"kind": "coherent", "alpha": [1.0, 0.5]},
        "times": {"list": [0.0, 0.5, 2.0, 7.25, 50.0]},
        "window": {"s_qq": 0.3},
    },
    # No friction: real environment-operator coefficients, so lambda = 0
    # and there is no steady state.
    "ops_free": {
        "oscillator": {"m": 1.5, "omega": 1.3, "lambda": 0.0, "mu": 0.2},
        "diffusion": {"ops": [
            {"a": [0.4, 0.0], "b": [0.7, 0.0]},
            {"a": [0.1, 0.0], "b": [-0.2, 0.0]},
        ]},
        "initial_state": {"kind": "ccs", "eta": 0.6, "r": 0.25, "alpha": [0.3, -0.8]},
        "times": {"t_start": 0.0, "t_end": 12.0, "n_samples": 7},
    },
    # Purity-preserving coefficients from a pure start: is_pure is true.
    "pure": {
        "oscillator": {"m": 1.0, "omega": 1.0, "lambda": 0.15, "mu": 0.3},
        "diffusion": {"preset": "pure"},
        "initial_state": {
            "kind": "ccs",
            "eta": math.sqrt(1 / (2 * math.sqrt(1 - 0.09))),
            "r": -0.3,
            "alpha": [0.5, 0.2],
        },
        "times": {"t_start": 0.0, "t_end": 20.0, "n_samples": 9},
    },
}

GRID = ["--time", "1.5", "--n-q", "16", "--n-p", "12"]
COMMANDS = {
    "evolve": ["evolve"],
    "steady": ["steady"],
    "purity-scan": ["purity-scan"],
    "wigner-grid": ["wigner-grid", *GRID],
    "husimi-grid": ["husimi-grid", *GRID],
    "kernel": ["kernel", "--time", "1.5", "--n-x", "9"],
}

# (scenario, command, format) -> (exit code, stdout SHA-256, stdout bytes)
GOLDEN = {
    ('baseline', 'evolve', 'csv'): (0, '7bfeb2e2c13049416af5e25de5e84cf5976da8622a077d99e9b606cc63fe5d92', 1393),
    ('baseline', 'evolve', 'json'): (0, '41c9e134f517064192ae28e9fdec8ecd69e2b2ae486bdde2014c93a2196c3dc4', 2361),
    ('baseline', 'husimi-grid', 'csv'): (0, '11e327c8d592cc24502d77d6c8dc7478524e9a54efd75443986d5ffd5c389db7', 11919),
    ('baseline', 'husimi-grid', 'json'): (0, 'd8ea5e341760b6b114ff839ae2310b5e61061536eca1a3fad3398e9bf02803fe', 19097),
    ('baseline', 'kernel', 'csv'): (0, 'ca6ca9c4e475f9c6fd436d5cd364f13436126d7adcd4d481befb8b7aaa92ad97', 6667),
    ('baseline', 'kernel', 'json'): (0, '935afc627bde1cf15ad76f2ce8576f00dfce0f89d829fcf384175a95557056df', 10239),
    ('baseline', 'purity-scan', 'csv'): (0, 'ee09e66111b1666e1ebbbd639c57f86c2f1e3a55617806d8c5f211fd84f74bf6', 1153),
    ('baseline', 'purity-scan', 'json'): (0, '372a4ed3704c817b5f43f8c1f3fa02adae2a9e9edd8f7f4b0ca51b7ed97aff55', 2264),
    ('baseline', 'steady', 'csv'): (0, 'a1e69861f69cb8698ba0efbf019f87e0acb42449ca713b00a9445014e1e76ed2', 344),
    ('baseline', 'steady', 'json'): (0, 'b3e6d4139647f781de62d0f1cd43443c512fb5b7b0942bae233bb2468e1cc467', 476),
    ('baseline', 'wigner-grid', 'csv'): (0, '9887c58182a407def515d4545442b2d001ca330a7ffc63bbf5ced95b379276cb', 11880),
    ('baseline', 'wigner-grid', 'json'): (0, '8a0ac3ea516b36b5cd1851aed09241d53def5dbfc42983f847ed9b1a066b8c21', 19034),
    ('ops_free', 'evolve', 'csv'): (0, 'dbd2d6c1f069a2c1920c75fc62ebb1e22e9fdf1fb9e6494e05e0d6b422a73613', 2030),
    ('ops_free', 'evolve', 'json'): (0, 'e03f9808c29b9e4f0405c6805c17c6b453cc8aaf13f9a7638368bcf932318ac2', 3387),
    ('ops_free', 'husimi-grid', 'csv'): (0, 'efbbd67d2b214551097c3fd48490f47ff2c77f97b8b57a196c370a7a57362a3f', 11826),
    ('ops_free', 'husimi-grid', 'json'): (0, '6962ecc94ae98568849b13dc59743da1ef7b223ff849694460797d4982c2debb', 19047),
    ('ops_free', 'kernel', 'csv'): (0, '04c30dd3ed6ce476a5878f2495221670a0d260ddd280c96c92e01fc2124a1b82', 6680),
    ('ops_free', 'kernel', 'json'): (0, '8e55c17de01fa02d62733604def71ab84db79c77621cbb17f1572df2fbbfcb37', 10302),
    ('ops_free', 'purity-scan', 'csv'): (0, '1b7c1c197326a94cf12cbf5dc82ae45748bf65b01bb40ec00c208246c6a97b30', 1218),
    ('ops_free', 'purity-scan', 'json'): (0, '7d925ba6386a66567d5c6c6d0e8dcb2f97a59ed909cae74accf432a369193a16', 2878),
    ('ops_free', 'steady', 'csv'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
    ('ops_free', 'steady', 'json'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0),
    ('ops_free', 'wigner-grid', 'csv'): (0, 'e90e1d5822535ee9532ae43676d8df7d8955c5d57595e344459d0372e96663c9', 11853),
    ('ops_free', 'wigner-grid', 'json'): (0, '2889ba0a4f93943f69832472e49546e2ad8e518289953bc26763cbc40f47c919', 19089),
    ('pure', 'purity-scan', 'csv'): (0, '62bf2dbebe77b84ec1e3c6072d4ebe194394ae477341df2504c257873d98db16', 1154),
    ('pure', 'purity-scan', 'json'): (0, '4cb8493c8e53090cc7b0ae1071d07a619b87ad7db625730e170c131a4c6c11fb', 3271),
}


def run(tmp_path, scenario: str, command: str, fmt: str):
    config = tmp_path / f"{scenario}.json"
    config.write_text(json.dumps(SCENARIOS[scenario]))
    argv = [*COMMANDS[command][:1], "--config", str(config), "--format", fmt,
            *COMMANDS[command][1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    data = out.getvalue().encode("utf-8")
    return code, hashlib.sha256(data).hexdigest(), len(data)


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_stdout_matches_golden(tmp_path, case):
    assert run(tmp_path, *case) == GOLDEN[case]


def test_every_emitting_command_is_frozen():
    cases = {
        (scenario, command, fmt)
        for scenario in ("baseline", "ops_free")
        for command in COMMANDS
        for fmt in ("csv", "json")
    }
    cases |= {("pure", "purity-scan", fmt) for fmt in ("csv", "json")}
    assert set(GOLDEN) == cases
