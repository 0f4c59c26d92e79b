"""The CSV and JSON text of `lindosc._text`, checked cell by cell and
document by document against Python's own text: '%.17g' %, true/false and
str in CSV; repr with NaN as null, true/false and json.dumps in JSON."""
import json
import math
import os

import numpy as np
import pytest

from lindosc import _text, cli

FORMATS = ["csv", "json"]

# The text of one float in each format.
FLOAT_REFERENCE = {
    "csv": lambda v: "%.17g" % v,
    "json": lambda v: "null" if v != v else repr(v),
}


def _cell_text(column: np.ndarray, fmt: str) -> list[str]:
    """The cells of one column, one string per value."""
    return _text.lines(_text.cells([column], fmt), [b""], b"\n").splitlines()


def assert_exact(x: np.ndarray, fmt: str) -> None:
    """Every value of x formats as FLOAT_REFERENCE[fmt](v), one 2**16-value
    call at a time."""
    for start in range(0, len(x), 2**16):
        chunk = x[start:start + 2**16]
        got = _cell_text(chunk, fmt)
        want = [FLOAT_REFERENCE[fmt](v) for v in chunk.tolist()]
        wrong = [(v.hex(), g, w) for v, g, w in zip(chunk.tolist(), got, want) if g != w]
        assert (len(got), wrong[:5]) == (len(chunk), [])


@pytest.mark.parametrize("fmt", FORMATS)
def test_random_bit_patterns(fmt):
    bits = np.random.default_rng({"csv": 24, "json": 26}[fmt]).integers(
        0, 2**64, 10**6, dtype=np.uint64)
    x = bits.view(np.float64)
    assert_exact(x[np.isfinite(x)], fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_powers_of_ten_and_their_neighbours(fmt):
    tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
    assert_exact(np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, math.inf)]),
                 fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_powers_of_two(fmt):
    assert_exact(np.ldexp(1.0, np.arange(-1074, 1024)), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_extremes_and_specials(fmt):
    subnormals = np.random.default_rng(5).integers(1, 2**52, 10**4, dtype=np.uint64)
    x = np.concatenate([subnormals.view(np.float64), [0.0, 1.7976931348623157e308,
                                                      2.2250738585072014e-308]])
    assert_exact(np.concatenate([x, -x, [math.nan, -math.nan]]), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_ties_and_integers(fmt):
    dyadics = np.arange(-10**5 + 1, 10**5) / 64
    integers = np.concatenate([np.arange(-1000, 1001) + float(c)
                               for c in (2**53, 10**15, 10**16, 10**17)])
    x = np.concatenate([dyadics, integers, [1000000000000000.25, -0.5, 2.5e-5]])
    assert_exact(x, fmt)
    if fmt == "csv":
        # Where 10**(16 - k) is a double the product is exact, and so is a tie.
        assert not _text._digits(x)[2].any()


@pytest.mark.parametrize("fmt", FORMATS)
def test_layout_boundaries(fmt):
    """The last and first values of the fixed form, on both sides, of repr's
    layout and of '%.17g''s, whose fixed form reaches one digit further."""
    x = np.array([1e16, 9999999999999998.0, 1e15, 123456789012345.6, 1e-4, 1e-5,
                  0.00010000000000000002, 123.0, 0.0, 1e22, 1e100, 1e-100, 5e-324,
                  1e17, 99999999999999984.0])
    assert_exact(np.concatenate([x, -x]), fmt)


# name -> (column, its cells in each format)
OTHER_CELLS = {
    "bool": (np.array([True, False]), dict.fromkeys(FORMATS, ["true", "false"])),
    "int": (np.array([0, -2, 2**53 + 1]), {"csv": ["0", "-2", "9007199254740992"],
                                          "json": ["0", "-2", "9007199254740993"]}),
    "str": (np.array(["inf", 'a"b%s', "é☃", ""]),
            {"csv": ["inf", 'a"b%s', "é☃", ""],
             "json": ['"inf"', '"a\\"b%s"', '"\\u00e9\\u2603"', '""']}),
}


@pytest.mark.parametrize("name", OTHER_CELLS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_other_cells(fmt, name):
    column, want = OTHER_CELLS[name]
    assert _cell_text(column, fmt) == want[fmt]


BASELINE = {
    "oscillator": {"m": 1.0, "omega": 1.0, "lambda": 0.2, "mu": 0.1},
    "diffusion": {"preset": "gibbs", "temperature": 1.5},
    "initial_state": {"kind": "coherent", "alpha": [1.0, 0.5]},
    "times": {"t_start": 0.0, "t_end": 50.0, "n_samples": 10001},
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_fallback_share_of_the_baseline_evolve_table(tmp_path, monkeypatch, fmt):
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
    assert fallbacks <= {"csv": 0, "json": 0.001}[fmt] * values


def _block_rows(n_fields: int) -> int:
    """The rows of one output block of a table of n_fields fields."""
    return _text._BLOCK_FIELDS // n_fields


# Grids of 1, B, B + 1 and 2B + 1 points, B = _block_rows(4) = 1024 for the
# fields q, p, value and flag, so that they end on and just past a block
# boundary; the blocks of the last end in the middle of an outer-axis row.
GRID_SHAPES = ((1, 1), (4, _block_rows(4) // 4), (25, 41), (3, 683))


def _grid_case(n_q: int, n_p: int) -> tuple:
    """The value and flag columns and the axes of an n_q x n_p test grid."""
    q, p = np.linspace(-1.0, 1.0, n_q) / 3, np.linspace(-2.0, 5.0, n_p) / 7
    values = np.cos(np.add.outer(q, p) * 9)
    values[-1, 0] = math.nan
    return [values, values > 0], (q, p)


def _table_case(rows: int, fields: int = 4) -> tuple:
    """The first `fields` of a float, bool, NaN-holding and int table of
    `rows` rows."""
    t = np.arange(rows) / 7
    value = np.where(np.arange(rows) % 5 == 4, math.nan, -t)
    header = ["t", "flag", "value", "count"][:fields]
    columns = [t, t > 0.5, value, np.arange(rows) - rows // 2][:fields]
    return header, columns, ["measure=dqdp"] if rows > 1 else None, ()


def _mixed_case(rows: int) -> tuple:
    """Float, bool, string, int and NaN-holding columns of `rows` rows."""
    k = np.arange(rows)
    names = [f'a"b%s\u00e9{i}\u2603' for i in k.tolist()]
    value = np.where(k % 5 == 4, math.nan, -k / 3.0)
    return ["t", "flag", "name", "count", "value"], [k / 7, k % 3 == 0, names, k - rows // 2,
                                                      value], None, ()


# name -> (header, columns, comments, axes) of one document
CASES = {
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
    # Non-ASCII text over three blocks.
    "3-blocks-non-ascii": (
        ["t", "name"],
        [np.arange(2 * _block_rows(2) + 1) / 7,
         [f"\u00e9{k}\u2603" for k in range(2 * _block_rows(2) + 1)]],
        None, (),
    ),
    # Header names holding %, which go into the separators of each row as they are.
    "percent-header": (["100%", "a%%b%s"], [[0.5, math.nan], [1, 2]], None, ()),
    # Floats on each side of every boundary of repr's layout, on grid axes and
    # in a column mixed with bools, strings and NaN.
    "layout-boundaries": (
        ["q", "p", "value", "flag", "name"],
        [[1e-4, math.nan, -0.0, 123.0, 1e16, 1e-5], [True, False] * 3, list("abcdef")],
        None,
        (np.array([1e16, 9999999999999998.0]), np.array([1e-4, 1e-5, -0.0])),
    ),
    **{f"grid-{n_q}x{n_p}": (["q", "p", "value", "flag"], columns, ["measure=test"], axes)
       for n_q, n_p in GRID_SHAPES for columns, axes in [_grid_case(n_q, n_p)]},
    # Tables of four, three and five fields that end on and just past a block
    # boundary.
    **{f"{rows}-rows": _table_case(rows)
       for rows in (1, _block_rows(4), _block_rows(4) + 1, 2 * _block_rows(4) + 1)},
    **{f"{rows}-rows-3-fields": _table_case(rows, 3)
       for rows in (_block_rows(3), _block_rows(3) + 1)},
    **{f"{rows}-rows-mixed": _mixed_case(rows)
       for rows in (1, _block_rows(5), 2 * _block_rows(5) + 1)},
}


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


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("fmt", FORMATS)
def test_document_matches_reference(capsys, fmt, case):
    header, columns, comments, axes = CASES[case]
    reference = {"csv": _csv_reference, "json": _json_reference}[fmt]
    cli._emit((fmt, None), header, columns, comments, axes=axes)
    assert capsys.readouterr().out == reference(header, columns, comments, axes)
