"""JSON text of numbers, bools and strings, made in numpy.

`cells(columns)` gives one NUL-padded row of bytes per value, as
`_csvtext.cells` does.  Without its NULs, row i is repr(v) for a float v
(the shortest text that reads back as v), null for NaN, true or false for a
bool, and json.dumps(v) for an int, a string or anything else.

The digits come from the product X = |x| * 10**(16 - k) that `_csvtext`
forms for the 17 digits of '%.17g' (Steele & White, PLDI 1990; Adams,
"Ryu", PLDI 2018).  The correctly rounded 15-, 16- and 17-digit decimals
nearest x are round-half-even(X / 100), (X / 10) and X.  A decimal reads
back as x if it lies within half an ulp of x, which is H = 2**(E - 1) *
10**(16 - k) on the scale of X, for x = M * 2**E with M of 53 bits.  At
most one decimal of 15 digits lies that close, as 15 digits resolve less
than an ulp (DBL_DIG = 15); so where the 15-digit one does, it is the
shortest text with its trailing zeros dropped.  Otherwise the 16-digit one
is, where it reads back, and the 17-digit one where not.  Python's repr
formats the values whose choice is not certain: within 2**-32 of a
rounding or read-back boundary, exact powers of two, whose interval below
is half as wide, and subnormals, whose ulp is not that of 53 bits.
"""
from __future__ import annotations

import json

import numpy as np

from ._csvtext import (
    _HI,
    _N_MIN,
    _TIE_MARGIN,
    _WIDTH,
    _classes,
    _laid_out,
    _mask_table,
    _placed,
    _rounded,
    _scaled,
    cells as _cells,
)

# repr's layout: fixed for -4 <= k <= 15, with ".0" on an integral value,
# and d.ddde+XX otherwise.
_CLASS = _classes(15)
_MASKS = _mask_table(point_zero=True)
_NULL = np.zeros(_WIDTH, np.uint8)
_NULL[:4] = np.frombuffer(b"null", np.uint8)


def _digits(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The digits of repr(v) for each value of float64 x, as 17 with
    trailing zeros, and k and where repr must format, as _csvtext._placed
    gives them."""
    finite, k, low, frac, e = _scaled(x)
    d15, unsure = _rounded(low, frac, 100, k)
    d16, unsure16 = _rounded(low, frac, 10, k)
    d17, unsure17 = _rounded(low, frac, 1, k)
    half = np.ldexp(_HI.take(16 - k - _N_MIN), e - 54)
    # |D - X| - H for each candidate D: below 0 where D reads back as x.
    gap15 = np.abs((d15 * 100 - low) - frac) - half
    gap16 = np.abs((d16 * 10 - low) - frac) - half
    digits = np.where(gap15 < 0, d15 * 100, np.where(gap16 < 0, d16 * 10, d17))
    unsure |= np.abs(gap15) < _TIE_MARGIN
    unsure |= (gap15 > 0) & (unsure16 | (np.abs(gap16) < _TIE_MARGIN)
                             | (gap16 > 0) & unsure17)
    ax = np.abs(x)
    unsure |= (np.frexp(ax)[0] == 0.5) | (ax < 2.0**-1022)  # powers of two, subnormals
    return _placed(x, finite, digits, k, unsure)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The cells of a float64 array; see cells."""
    return _laid_out(x, *_digits(x), _CLASS, _MASKS, _NULL, lambda v: repr(v).encode())


def cells(columns: list[np.ndarray]) -> list[np.ndarray]:
    """The JSON text of each value of each 1-D array, one NUL-padded uint8
    row per value: repr(v) for floats with NaN as null, true or false for
    bools, and json.dumps(v) otherwise.  The floats of all columns are
    formatted together."""
    return _cells(columns, "f", _float_cells, json.dumps)
