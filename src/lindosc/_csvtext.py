"""CSV text of numbers, bools and strings, made in numpy.

`cells(columns)` gives one row of bytes per value, padded with NULs, which
no cell text holds.  Without its NULs, row i is '%.17g' % v for a float or int v,
'true' or 'false' for a bool, and the UTF-8 bytes of str(v) for anything else.
`lines(fields)` joins the cells of one block into CSV lines, and with other
separators into JSON rows.

A float's 17 digits are round-half-even(|x| * 10**(16 - k)) with k its
decimal exponent.  The product is taken in double-double arithmetic (Dekker,
Numer. Math. 18, 1971), which brackets it tightly enough to round it exactly
except within a hair of a tie; where 10**(16 - k) is a double, the product
is exact and so are its ties.  The few values left unsure are formatted by
Python's %, which is also the reference the tests compare every digit
against.  `_jsontext` takes its shortest digits from the same product and
lays them out with the same slots and masks.
"""
from __future__ import annotations

import math

import numpy as np

# 10**n = (_HI + _LO) * 2**_EXP at n - _N_MIN, to a relative 2**-104:
# _HI holds the leading 53 bits in [1, 2), _LO the next ones in [0, 2**-52).
# n = 16 - k covers every decimal exponent k of a finite double, off by one.
_N_MIN, _N_MAX = -293, 342


def _power_table():
    hi, lo, exp = [], [], []
    for n in range(_N_MIN, _N_MAX + 1):
        num, den = (10**n, 1) if n >= 0 else (1, 10**-n)
        shift = 121 - num.bit_length() + den.bit_length()
        q = (num << shift) // den if shift >= 0 else num >> -shift
        bits = q.bit_length()
        top = q >> (bits - 53)
        hi.append(math.ldexp(top, -52))
        lo.append(math.ldexp(q - (top << (bits - 53)), 1 - bits))
        exp.append(bits - 1 - shift)
    return np.array(hi), np.array(lo), np.array(exp, np.int32)


def _split(a):
    """Veltkamp's split of a into two halves of at most 26 bits each."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


_HI, _LO, _EXP = _power_table()
_HI_HIGH, _HI_LOW = _split(_HI)

# A product within this distance of a rounding boundary may round either way
# and goes to Python's formatting.  The computed product is within 2**-40 of
# the exact one (see _significand), and the fraction taken from it adds at
# most 2**-52.
_TIE_MARGIN = 2.0**-32


def _significand(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """X = ax * 10**(16 - k) as floor(X), an int64, and X - floor(X), for
    finite ax > 0 and k within one of the decimal exponent of ax; and e, with
    10**(16 - k) = (_HI + _LO) * 2**(e - frexp exponent of ax).

    With m in [0.5, 1) the frexp mantissa of ax, p + err = m * _HI exactly
    (Dekker's product), and m * _LO and the sum err + m * _LO each round by
    less than 2**-104; with the table's own error the product p + c is within
    2**-100 of the exact one, relative.  Scaled by a power of two, which is
    exact, it is below 10**18 < 2**60, so within 2**-40 absolute.  Where
    _LO is 0, for 0 <= 16 - k <= 22, both parts are exact, and so is every
    step below: X = ax * 5**(16 - k) * 2**(16 - k) is at least 10**16, so its
    fraction is a multiple of 2**-51 or more.
    """
    i = 16 - k - _N_MIN
    m, e = np.frexp(ax)
    p = m * _HI.take(i)
    m_high, m_low = _split(m)
    hi_high, hi_low = _HI_HIGH.take(i), _HI_LOW.take(i)
    err = ((m_high * hi_high - p) + m_high * hi_low + m_low * hi_high) + m_low * hi_low
    e += _EXP.take(i)
    big = np.ldexp(p, e)
    small = np.ldexp(err + m * _LO.take(i), e)
    whole = np.floor(big)
    frac = (big - whole) + small
    carry = np.floor(frac)
    frac -= carry
    return whole.astype(np.int64) + carry.astype(np.int64), frac, e


def _scaled(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """For each value of float64 x: whether it is finite and nonzero, its
    decimal exponent k, and X = |x| * 10**(16 - k) in [10**16, 10**17) as
    _significand gives it.  Other values get k = 0 and the X of 1.0."""
    ax = np.abs(x)
    finite = (ax > 0) & (ax < math.inf)
    ax = np.where(finite, ax, 1.0)
    k = np.floor(np.log10(ax)).astype(np.int64)
    low, frac, e = _significand(ax, k)
    # log10 may misplace k by one next to a power of ten.  Where the product
    # is within 2**-40 of 10**16 or 10**17, either k gives the same text.
    off = (low >= 10**17).astype(np.int64) - (low < 10**16)
    wrong = np.flatnonzero(off)
    if wrong.size:
        k[wrong] += off[wrong]
        low[wrong], frac[wrong], e[wrong] = _significand(ax[wrong], k[wrong])
    return finite, k, low, frac, e


def _rounded(low: np.ndarray, frac: np.ndarray, scale: int,
             k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """round-half-even(X / scale) for X = low + frac, and where the rounding
    is not certain: within _TIE_MARGIN of a tie, unless X is exact, which it
    is for 0 <= 16 - k <= 22 (see _significand)."""
    if scale == 1:
        q, excess = low, frac - 0.5
    else:  # X - (q + 1/2) * scale
        q = low // scale
        excess = ((low - q * scale) - scale / 2) + frac
    up = excess > 0
    unsure = np.abs(excess) < _TIE_MARGIN
    near = np.flatnonzero(unsure)
    if near.size:
        up[near] |= (excess[near] == 0) & (q[near] % 2 == 1)
        unsure[near] = (k[near] < -6) | (k[near] > 16)
    return q + up, unsure


def _placed(x: np.ndarray, finite: np.ndarray, digits: np.ndarray, k: np.ndarray,
            unsure: np.ndarray) -> tuple[np.ndarray, ...]:
    """The digits as 17 in [10**16, 10**17), k and where the text goes to
    Python: unsure, out of the table's reach or infinite.  A round up to
    10**17 gives the digits of 10**(k + 1); values that are not finite and
    nonzero get digits 0 and k 0."""
    unsure |= (digits < 10**16) | (digits > 10**17)
    carry = digits == 10**17
    digits[carry] = 10**16
    k += carry
    digits[~finite] = 0
    k[~finite] = 0
    return digits, k, unsure & finite | np.isinf(x)


def _digits(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The 17 digits of '%.17g' % v for each value of float64 x, as _placed
    gives them."""
    finite, k, low, frac, _ = _scaled(x)
    digits, unsure = _rounded(low, frac, 1, k)
    return _placed(x, finite, digits, k, unsure)


# A float cell is 13 words of four bytes, most of them NUL by the end:
#   0  NUL, the sign and the "0." of the fixed form of -4 <= k < 0
#   1  that form's "000" and the lead digit
#   2-5  the other 16 digits, before the dot
#   6  the dot
#   7-10  the same 16 digits, after the dot
#   11  "e", "+" and "-" of the exponent form
#   12  the exponent's digits
# Each value fills all 13 words, then a mask shows the bytes its text needs.
_WIDTH = 52


def _words(text: bytes) -> np.ndarray:
    return np.frombuffer(text, np.uint32)


# The four ASCII digits of each integer below 10**4, and "000" and one digit.
_QUADS = _words((np.arange(10**4, dtype=np.int16)[:, None]
                 // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0"))
                .astype(np.uint8).tobytes())
_LEADS = _words(b"".join(b"000%d" % d for d in range(10)))
_SIGN, _DOT, _EXPONENT = _words(b"\0-0..\0\0\0e+-\0")

# The layout class of each decimal exponent k = 16 - n, by the index of n:
# k + 4 for the fixed form of -4 <= k <= fixed, then the exponent form of
# k > fixed, k <= -5, k >= 100 and k <= -100.
_K = 16 - np.arange(_N_MIN, _N_MAX + 1)


def _classes(fixed: int) -> np.ndarray:
    return np.where((_K >= -4) & (_K <= fixed), _K + 4, 21 + (_K < 0) + 2 * (abs(_K) >= 100))


def _mask_table(point_zero: bool = False) -> np.ndarray:
    """The bytes of a float cell that its text shows, as 0xFF, by layout class,
    index of the last nonzero digit and sign, flattened in that order.  With
    point_zero, a value of fixed form k >= 0 always shows its dot, and ".0"
    where it is integral."""
    shown = np.zeros((25, 17, 2, _WIDTH), bool)
    last = np.arange(17)[:, None]
    j = np.arange(1, 17)
    shown[:, :, 1, 1] = True
    shown[..., 7] = True
    for cls in range(25):
        row = shown[cls]
        if cls < 4:
            row[..., 2:7 - cls] = True
            row[..., 8:24] = (j <= last)[:, None]
            continue
        before = cls - 4 if cls <= 20 else 0  # digits before the dot, less one
        # The digit slots after the dot hold the zeros of an integral value.
        after = np.maximum(last, before + 1) if point_zero and cls <= 20 else last
        row[..., 8:24] = j <= before
        row[..., 24] = after > before
        row[..., 28:44] = ((j > before) & (j <= after))[:, None]
        if cls > 20:
            row[..., [44, 45 if cls % 2 else 46]] = True
            row[..., 49 if cls > 22 else 50:] = True
    return _words((shown * np.uint8(255)).tobytes()).reshape(-1, _WIDTH // 4)


_CLASS = _classes(16)
_MASKS = _mask_table()
_NAN = np.zeros(_WIDTH, np.uint8)
_NAN[:3] = np.frombuffer(b"nan", np.uint8)
_BOOLS = np.frombuffer(b"falsetrue\0", np.uint8).reshape(2, 5)


def _laid_out(x: np.ndarray, digits: np.ndarray, k: np.ndarray, unsure: np.ndarray,
              classes: np.ndarray, masks: np.ndarray, nan: np.ndarray,
              text) -> np.ndarray:
    """The float cells of x from its digits and k as _placed gives them, in
    the layout classes and masks of one format, with nan for NaN and
    text(v), bytes, where unsure."""
    words = np.empty((len(x), _WIDTH // 4), np.uint32)
    words[:, 0], words[:, 6], words[:, 11] = _SIGN, _DOT, _EXPONENT
    lead = digits // 10**16
    words[:, 1] = _LEADS.take(lead)
    digits -= lead * 10**16
    for j, scale in enumerate((10**12, 10**8, 10**4, 1)):
        quad = digits // scale
        digits -= quad * scale
        words[:, j + 2] = words[:, j + 7] = _QUADS.take(quad)
    words[:, 12] = _QUADS.take(np.abs(k))
    out = words.view(np.uint8)
    last = 16 - np.argmax(out[:, 23:6:-1] != ord("0"), axis=1)
    last[lead == 0] = 0  # 0 and NaN
    key = classes.take(16 - k - _N_MIN) * 34 + last * 2 + np.signbit(x)
    words &= masks.take(key, axis=0, mode="clip")
    out[np.isnan(x)] = nan
    for i in np.flatnonzero(unsure):
        cell = text(x[i].item())
        out[i] = 0
        out[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return out


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The cells of a float64 array; see cells."""
    return _laid_out(x, *_digits(x), _CLASS, _MASKS, _NAN, b"%.17g".__mod__)


def cells(columns: list[np.ndarray], numbers: str = "fiu", float_cells=_float_cells,
          text=str) -> list[np.ndarray]:
    """The text of each value of each 1-D array, one NUL-padded uint8 row
    per value.  The columns whose dtype kind is in `numbers` are formatted
    together, as float64, by float_cells; bools are true or false, and any
    other value is text(v) in UTF-8.  The defaults give CSV: '%.17g' % v for
    numbers and str(v) otherwise."""
    numeric = [c.dtype.kind in numbers for c in columns]
    if any(numeric):
        values = np.concatenate([c for c, n in zip(columns, numeric) if n])
        formatted = float_cells(values.astype(np.float64, copy=False))
    out = []
    for c, n in zip(columns, numeric):
        if n:
            out.append(formatted[:len(c)])
            formatted = formatted[len(c):]
        elif c.dtype.kind == "b":
            out.append(_BOOLS.take(c.view(np.uint8), axis=0))
        else:
            encoded = np.array([text(v).encode() for v in c.tolist()], dtype=bytes)
            out.append(encoded.view(np.uint8).reshape(len(c), -1))
    return out


def packed(cells: np.ndarray) -> np.ndarray:
    """The same cells with each row's NULs moved to its end, less the
    columns that are then NUL in every row."""
    order = np.argsort(cells == 0, axis=1, kind="stable")
    width = np.count_nonzero(cells, axis=1).max(initial=0)
    return np.take_along_axis(cells, order[:, :width], axis=1)


def lines(fields: list[np.ndarray], seps: list[bytes] | None = None,
          end: bytes = b"\n") -> str:
    """The text of one block: for each row i, row i of each field's cells,
    each after its separator in seps, and then end.  By default, CSV lines:
    the cells joined by commas, each line ended by a newline."""
    if seps is None:
        seps = [b""] + [b","] * (len(fields) - 1)
    width = sum(len(sep) + f.shape[1] for sep, f in zip(seps, fields)) + len(end)
    canvas = np.empty((len(fields[0]), width), np.uint8)
    at = 0
    for sep, f in zip(seps, fields):
        canvas[:, at:at + len(sep)] = np.frombuffer(sep, np.uint8)
        at += len(sep)
        canvas[:, at:at + f.shape[1]] = f
        at += f.shape[1]
    canvas[:, at:] = np.frombuffer(end, np.uint8)
    return canvas.tobytes().translate(None, b"\0").decode()
