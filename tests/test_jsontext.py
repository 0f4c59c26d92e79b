"""The JSON text of `_text.cells`, checked value by value against
Python's repr (NaN as null), true/false and json.dumps."""
import json
import math
import os

import numpy as np
import pytest

from lindosc import _text, cli


def assert_exact(x: np.ndarray) -> None:
    """Every value of x formats as repr(v), or null for NaN, one 2**16-value
    call at a time."""
    for start in range(0, len(x), 2**16):
        chunk = x[start:start + 2**16]
        got = _text.lines(_text.cells([chunk], "json")).splitlines()
        want = ["null" if v != v else repr(v) for v in chunk.tolist()]
        wrong = [(v.hex(), g, w) for v, g, w in zip(chunk.tolist(), got, want) if g != w]
        assert (len(got), wrong[:5]) == (len(chunk), [])


def test_random_bit_patterns():
    bits = np.random.default_rng(26).integers(0, 2**64, 10**6, dtype=np.uint64)
    x = bits.view(np.float64)
    assert_exact(x[np.isfinite(x)])


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
    assert_exact(np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, math.inf)]))


def test_powers_of_two():
    assert_exact(np.ldexp(1.0, np.arange(-1074, 1024)))


def test_extremes_and_specials():
    subnormals = np.random.default_rng(5).integers(1, 2**52, 10**4, dtype=np.uint64)
    x = np.concatenate([subnormals.view(np.float64), [0.0, 1.7976931348623157e308,
                                                      2.2250738585072014e-308]])
    assert_exact(np.concatenate([x, -x, [math.nan, -math.nan]]))


def test_ties_and_integers():
    dyadics = np.arange(-10**5 + 1, 10**5) / 64
    integers = np.concatenate([np.arange(-1000, 1001) + float(c)
                               for c in (2**53, 10**15, 10**16, 10**17)])
    assert_exact(np.concatenate([dyadics, integers, [1000000000000000.25, -0.5, 2.5e-5]]))


def test_layout_boundaries():
    """The last and first values of the fixed form, on both sides."""
    x = np.array([1e16, 9999999999999998.0, 1e15, 123456789012345.6, 1e-4, 1e-5,
                  0.00010000000000000002, 123.0, 0.0, 1e22, 1e100, 1e-100, 5e-324])
    assert_exact(np.concatenate([x, -x]))


@pytest.mark.parametrize("column,want", [
    (np.array([True, False]), ["true", "false"]),
    (np.array([0, -2, 2**53 + 1]), ["0", "-2", "9007199254740993"]),
    (np.array(["inf", 'a"b%s', "é☃", ""]), ['"inf"', '"a\\"b%s"', '"\\u00e9\\u2603"', '""']),
])
def test_other_cells(column, want):
    assert _text.lines(_text.cells([column], "json")).splitlines() == want


BASELINE = {
    "oscillator": {"m": 1.0, "omega": 1.0, "lambda": 0.2, "mu": 0.1},
    "diffusion": {"preset": "gibbs", "temperature": 1.5},
    "initial_state": {"kind": "coherent", "alpha": [1.0, 0.5]},
    "times": {"t_start": 0.0, "t_end": 50.0, "n_samples": 10001},
}


@pytest.mark.parametrize("fmt,most", [("json", 0.001), ("csv", 0)])
def test_fallback_share_of_the_baseline_evolve_table(tmp_path, monkeypatch, fmt, most):
    """Python formats at most 0.1% of the JSON floats of the baseline evolve
    table and none of its CSV floats: the bytes alone would not show values
    routed back through Python."""
    counts = []
    placed = _text._placed

    def counted(x, *args):
        digits, k, unsure = placed(x, *args)
        counts.append((len(x), int(unsure.sum())))
        return digits, k, unsure

    monkeypatch.setattr(_text, "_placed", counted)
    config = tmp_path / "baseline.json"
    config.write_text(json.dumps(BASELINE))
    assert cli.main(["evolve", "--config", str(config), "--format", fmt, "--out", os.devnull]) == 0
    values, fallbacks = np.sum(counts, axis=0)
    assert values == 15 * 10001
    assert fallbacks <= most * values
