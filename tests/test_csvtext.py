"""The CSV text of `_text.cells`, checked value by value against
Python's '%.17g' %, true/false and str."""
import math

import numpy as np
import pytest

from lindosc import _text


def assert_exact(x: np.ndarray) -> None:
    """Every value of x formats as '%.17g' % v, one 2**16-value call at a time."""
    for start in range(0, len(x), 2**16):
        chunk = x[start:start + 2**16]
        got = _text.lines(_text.cells([chunk], "csv")).splitlines()
        want = ["%.17g" % v for v in chunk.tolist()]
        wrong = [(v.hex(), g, w) for v, g, w in zip(chunk.tolist(), got, want) if g != w]
        assert (len(got), wrong[:5]) == (len(chunk), [])


def test_random_bit_patterns():
    bits = np.random.default_rng(24).integers(0, 2**64, 10**6, dtype=np.uint64)
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
                               for c in (2**53, 10**16, 10**17)])
    x = np.concatenate([dyadics, integers, [1000000000000000.25, -0.5, 2.5e-5]])
    assert_exact(x)
    # Where 10**(16 - k) is a double the product is exact, and so is a tie.
    assert not _text._digits(x)[2].any()


@pytest.mark.parametrize("column,want", [
    (np.array([True, False]), ["true", "false"]),
    (np.array([0, -2, 2**53 + 1]), ["0", "-2", "9007199254740992"]),
    (np.array(["inf", 'a"b%s', "é☃", ""]), ["inf", 'a"b%s', "é☃", ""]),
])
def test_other_cells(column, want):
    assert _text.lines(_text.cells([column], "csv")).splitlines() == want
