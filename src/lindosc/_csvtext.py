"""CSV text of numbers, bools and strings, made in numpy.

`cells(columns)` gives one row of bytes per value, padded with NULs, which
no cell text holds.  Without its NULs, row i is '%.17g' % v for a float or int v,
'true' or 'false' for a bool, and the UTF-8 bytes of str(v) for anything else.
`lines(fields)` joins the cells of one block into CSV lines.

A float's 17 digits are round-half-even(|x| * 10**(16 - k)) with k its
decimal exponent.  The product is taken in double-double arithmetic (Dekker,
Numer. Math. 18, 1971), which brackets it tightly enough to round it exactly
except within a hair of a tie.  Those few values are formatted by Python's %,
which is also the reference the tests compare every digit against.
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

# A 17-digit product within this distance of a tie may round either way and
# goes to Python's %.  The computed product is within 2**-40 of the exact one
# (see _significand), and the fraction taken from it adds at most 2**-52.
_TIE_MARGIN = 2.0**-32


def _significand(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """floor(ax * 10**(16 - k)) as int64, whether round-half-even adds one to
    it, and where that rounding is not certain, for finite ax > 0 and k within
    one of the decimal exponent of ax.

    With m in [0.5, 1) the frexp mantissa of ax, p + err = m * _HI exactly
    (Dekker's product), and m * _LO and the sum err + m * _LO each round by
    less than 2**-104; with the table's own error the product p + c is within
    2**-100 of the exact one, relative.  Scaled by a power of two, which is
    exact, it is below 10**18 < 2**60, so within 2**-40 absolute.
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
    low = whole.astype(np.int64) + carry.astype(np.int64)
    return low, frac > 0.5, np.abs(frac - 0.5) < _TIE_MARGIN


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
# k + 4 for the fixed form of -4 <= k <= 16, then the exponent form of
# k >= 17, k <= -5, k >= 100 and k <= -100.
_K = 16 - np.arange(_N_MIN, _N_MAX + 1)
_CLASS = np.where((_K >= -4) & (_K <= 16), _K + 4, 21 + (_K < 0) + 2 * (abs(_K) >= 100))


def _mask_table() -> np.ndarray:
    """The bytes of a float cell that its text shows, as 0xFF, by layout class,
    index of the last nonzero digit and sign, flattened in that order."""
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
        row[..., 8:24] = j <= before
        row[..., 24] = last > before
        row[..., 28:44] = ((j > before) & (j <= last))[:, None]
        if cls > 20:
            row[..., [44, 45 if cls % 2 else 46]] = True
            row[..., 49 if cls > 22 else 50:] = True
    return _words((shown * np.uint8(255)).tobytes()).reshape(-1, _WIDTH // 4)


_MASKS = _mask_table()
_NAN = np.zeros(_WIDTH, np.uint8)
_NAN[:3] = np.frombuffer(b"nan", np.uint8)
_BOOLS = np.frombuffer(b"falsetrue\0", np.uint8).reshape(2, 5)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The cells of a float64 array; see cells."""
    ax = np.abs(x)
    finite = (ax > 0) & (ax < math.inf)
    ax = np.where(finite, ax, 1.0)
    k = np.floor(np.log10(ax)).astype(np.int64)
    low, up, unsure = _significand(ax, k)
    # log10 may misplace k by one next to a power of ten.  Where the product
    # is within 2**-40 of 10**16 or 10**17, either k gives the same text.
    off = (low >= 10**17).astype(np.int64) - (low < 10**16)
    wrong = np.flatnonzero(off)
    if wrong.size:
        k[wrong] += off[wrong]
        low[wrong], up[wrong], unsure[wrong] = _significand(ax[wrong], k[wrong])
    digits = low + up
    unsure |= (digits < 10**16) | (digits > 10**17)
    # A round up to 10**17 gives the digits of 10**(k + 1).
    carry = digits == 10**17
    digits[carry] = 10**16
    k += carry
    digits[~finite] = 0
    k[~finite] = 0
    unsure &= finite
    unsure |= np.isinf(x)

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
    last[~finite] = 0
    key = _CLASS.take(16 - k - _N_MIN) * 34 + last * 2 + np.signbit(x)
    words &= _MASKS.take(key, axis=0, mode="clip")
    out[np.isnan(x)] = _NAN
    for i in np.flatnonzero(unsure):
        text = b"%.17g" % x[i]
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def cells(columns: list[np.ndarray]) -> list[np.ndarray]:
    """The CSV text of each value of each 1-D array, one NUL-padded uint8
    row per value: '%.17g' % v for numbers, true or false for bools, and
    str(v) in UTF-8 otherwise.  The numbers of all columns are formatted
    together."""
    numeric = [c.dtype.kind in "fiu" for c in columns]
    if any(numeric):
        values = np.concatenate([c for c, n in zip(columns, numeric) if n])
        numbers = _float_cells(values.astype(np.float64, copy=False))
    out = []
    for c, n in zip(columns, numeric):
        if n:
            out.append(numbers[:len(c)])
            numbers = numbers[len(c):]
        elif c.dtype.kind == "b":
            out.append(_BOOLS.take(c.view(np.uint8), axis=0))
        else:
            text = np.array([str(v).encode() for v in c.tolist()], dtype=bytes)
            out.append(text.view(np.uint8).reshape(len(c), -1))
    return out


def packed(cells: np.ndarray) -> np.ndarray:
    """The same cells with each row's NULs moved to its end, less the
    columns that are then NUL in every row."""
    order = np.argsort(cells == 0, axis=1, kind="stable")
    width = np.count_nonzero(cells, axis=1).max(initial=0)
    return np.take_along_axis(cells, order[:, :width], axis=1)


def lines(fields: list[np.ndarray]) -> str:
    """The CSV lines of one block: row i of each field's cells, joined by
    commas and ended by a newline."""
    widths = [f.shape[1] + 1 for f in fields]
    canvas = np.empty((len(fields[0]), sum(widths)), np.uint8)
    end = 0
    for f, width in zip(fields, widths):
        canvas[:, end:end + width - 1] = f
        canvas[:, end + width - 1] = ord(",")
        end += width
    canvas[:, -1] = ord("\n")
    return canvas.tobytes().translate(None, b"\0").decode()
