"""Command-line front end.

Scenario configuration is a flat JSON document with oscillator, diffusion,
initial-state, times, window and output blocks; command-line flags override
file values.  An invalid value is reported by its dotted key path.  All
commands emit deterministic CSV (floats at 17 significant digits) or JSON
(floats as their shortest round-trip repr).  Exit codes: 0 success, 1
validation or command-line failure, 2 numerical-consistency failure.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings
from typing import NamedTuple

import numpy as np

from . import entropy, model, phasespace, propagator, purity, sweeps
from .model import (
    ConsistencyError,
    DiffusionSpec,
    InvalidStateError,
    LindbladOps,
    OscillatorSpec,
    ParameterError,
)
from .phasespace import CCSpec, CoherentWindow
from .propagator import GaussianState

RUN_COLUMNS = (
    "t", "sigma_q", "sigma_p", "sigma_qq", "sigma_pp", "sigma_pq",
    "sigma", "nu", "s_vn", "t_eff", "gamma", "s_lin", "s_lin_rate",
    "wehrl", "energy",
)

# Most rows or grid points one command may emit: times.n_samples, --n-q * --n-p
# and --n-x**2.  A 1024 x 1024 grid fits; evolve holds about 0.95 kB per row
# (a fresh run of 100,001 rows peaks at 122 MB on Linux x86-64), so about 1 GB.
MAX_ROWS = 2**20


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


_REQUIRED = object()
_KIND_NAMES = {float: "a finite number", int: "an integer", str: "a string",
               list: "a list", dict: "an object"}


def _check(value, path: str, kind: type = float):
    """`value` as `kind`: float, int, complex, str, list or dict.

    Numbers are finite JSON numbers, never bools or strings; an int may be
    written as an integral float, and a complex is a number or an [re, im]
    pair.  Anything else raises ConfigError naming `path`.
    """
    if kind is complex:
        if isinstance(value, list) and len(value) == 2:
            return complex(*(_check(v, f"{path} complex component") for v in value))
        return complex(_check(value, f"{path} complex value"))
    if kind in (float, int):
        number = math.nan
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            with contextlib.suppress(OverflowError):  # an int beyond the float range
                number = float(value)
        if math.isfinite(number) and (kind is float or number.is_integer()):
            return number if kind is float else int(value)
    elif isinstance(value, kind):
        return value
    raise ConfigError(f"{path} must be {_KIND_NAMES[kind]}, got {value!r}")


def _get(cfg: dict, path: str, default=_REQUIRED, kind: type = float):
    """The value at dotted `path` in `cfg`, converted by `_check`.

    Every block on the way must be an object.  An absent key gives `default`,
    unconverted; without a default it raises ConfigError("missing <path>").
    """
    keys = path.split(".")
    node = cfg
    for depth, key in enumerate(keys, 1):
        if key not in node:
            if default is _REQUIRED:
                raise ConfigError(f"missing {path}")
            return default
        node = node[key]
        if depth < len(keys):
            node = _check(node, ".".join(keys[:depth]), dict)
    return _check(node, path, kind)


def build_oscillator(cfg: dict, hbar_override: float | None = None) -> OscillatorSpec:
    hbar = _get(cfg, "oscillator.hbar", 1.0)
    boltzmann = _get(cfg, "oscillator.boltzmann", 1.0)
    return OscillatorSpec(
        mass=_get(cfg, "oscillator.m", 1.0),
        omega=_get(cfg, "oscillator.omega"),
        lam=_get(cfg, "oscillator.lambda"),
        mu=_get(cfg, "oscillator.mu", 0.0),
        hbar=hbar_override if hbar_override is not None else hbar,
        boltzmann=boltzmann,
    )


def build_diffusion(cfg: dict, osc: OscillatorSpec) -> DiffusionSpec:
    block = _get(cfg, "diffusion", kind=dict)
    has_preset = "preset" in block
    has_explicit = any(k in block for k in ("d_qq", "d_pp", "d_pq"))
    has_ops = "ops" in block
    if sum((has_preset, has_explicit, has_ops)) != 1:
        raise ConfigError(
            "diffusion block must give exactly one of: preset, explicit "
            "coefficients, lindblad ops"
        )
    if has_preset:
        preset = _get(cfg, "diffusion.preset", kind=str)
        if preset == "gibbs":
            return model.preset_gibbs(osc, _get(cfg, "diffusion.temperature"))
        if preset == "pure":
            return model.preset_pure_state(osc)
        raise ConfigError(f"unknown diffusion preset {preset!r}")
    if has_ops:
        entries = _get(cfg, "diffusion.ops", kind=list)
        # Key each entry by its index so that errors name diffusion.ops[i].a.
        indexed = {"diffusion": {f"ops[{i}]": entry for i, entry in enumerate(entries)}}
        ops = LindbladOps(ops=tuple(
            tuple(_get(indexed, f"diffusion.ops[{i}].{key}", kind=complex) for key in "ab")
            for i in range(len(entries))
        ))
        diff, lam = model.coefficients_from_ops(ops, osc.hbar)
        if not model.negligible(lam - osc.lam, lam, osc.lam, rtol=model.AGREE_RTOL):
            raise ConfigError(
                f"friction from lindblad ops ({lam}) disagrees with "
                f"oscillator lambda ({osc.lam})"
            )
        return diff
    d_qq, d_pp = _get(cfg, "diffusion.d_qq"), _get(cfg, "diffusion.d_pp")
    return DiffusionSpec(d_qq=d_qq, d_pp=d_pp, d_pq=_get(cfg, "diffusion.d_pq", 0.0))


_MOMENTS = ("sigma_q", "sigma_p", "sigma_qq", "sigma_pp", "sigma_pq")


def build_initial_state(cfg: dict, osc: OscillatorSpec) -> GaussianState:
    block = _get(cfg, "initial_state", kind=dict)
    kind = _get(cfg, "initial_state.kind", None, str)
    explicit = all(k in block for k in _MOMENTS)
    if (kind is None) == (not explicit):
        raise ConfigError(
            "initial_state block must give exactly one source: a 'kind' or "
            "the five explicit moments"
        )
    if explicit:
        state = GaussianState(**{k: _get(cfg, f"initial_state.{k}") for k in _MOMENTS})
        propagator.require_physical(state, osc.hbar)
        return state
    if kind == "ground":
        return propagator.ground_state(osc)
    alpha = _get(cfg, "initial_state.alpha", 0j, complex)
    if kind == "coherent":
        eta = math.sqrt(osc.hbar / (2 * osc.mass * osc.omega))
        return CCSpec(eta=eta, r=0.0, alpha=alpha, hbar=osc.hbar).state()
    if kind == "ccs":
        eta, r = _get(cfg, "initial_state.eta"), _get(cfg, "initial_state.r")
        return CCSpec(eta=eta, r=r, alpha=alpha, hbar=osc.hbar).state()
    raise ConfigError(f"unknown initial state kind {kind!r}")


def build_times(cfg: dict) -> list[float]:
    listed = _get(cfg, "times.list", None, list)
    if listed is not None:
        if len(listed) > MAX_ROWS:
            raise ConfigError(f"times.list must hold at most {MAX_ROWS} times, got {len(listed)}")
        times = [_check(t, f"times.list[{i}]") for i, t in enumerate(listed)]
    else:
        n = _get(cfg, "times.n_samples", kind=int)
        start, end = _get(cfg, "times.t_start"), _get(cfg, "times.t_end")
        if not 1 <= n <= MAX_ROWS:
            raise ConfigError(f"times.n_samples must be in [1, {MAX_ROWS}], got {n}")
        times = np.linspace(start, end, n).tolist()
    propagator._check_times(times)
    return times


def _output(cfg: dict, args) -> tuple[str, str | None]:
    """Output format and path: the --format and --out flags where the command
    has them, else the output block, else CSV on stdout.  The block is
    checked even when flags win, and on every command."""
    fmt = _get(cfg, "output.format", "csv", str)
    path = _get(cfg, "output.path", None, str)
    fmt = getattr(args, "format", None) or fmt
    path = getattr(args, "out", None) or path
    # Imported lazily, as _text's tables cost about 1 MB and 5 ms that the
    # library API need not pay, but before any propagation, so that they lie
    # below a command's arrays in the heap rather than among them.
    from . import _text
    if fmt not in _text._FORMATS:
        raise ConfigError(f"output.format must be 'csv' or 'json', got {fmt!r}")
    return fmt, path


def _window(cfg: dict, osc: OscillatorSpec, args) -> CoherentWindow:
    s_qq = _get(cfg, "window.s_qq", None)
    if getattr(args, "window_sqq", None) is not None:
        s_qq = args.window_sqq
    if s_qq is None:
        return osc._window
    return CoherentWindow.squeezed(s_qq, hbar=osc.hbar)


def _emit(output: tuple[str, str | None], header: list[str], columns: list,
          comments: list[str] | None = None, axes: tuple = ()) -> None:
    """Write one row per point, one field per header entry, in the format
    and to the path of `output`, as _output resolves them.  `_text.document`
    makes the text; `columns` and `axes` are as it takes them, but a column
    may also be a list, or a 2-D array read in row-major order.  A float
    column holding +-inf raises ConsistencyError; every check runs before
    the first byte is written."""
    from . import _text  # lazily, as in _output
    fmt, path = output
    columns = [np.ravel(c) for c in columns]
    for name, c in zip(header, [*axes, *columns]):
        if c.dtype.kind == "f" and np.isinf(c).any():
            raise ConsistencyError(f"output column {name} holds an infinite value")
    try:
        with (open(path, "w", encoding="utf-8", newline="") if path
              else contextlib.nullcontext(sys.stdout)) as out:
            for text in _text.document(fmt, header, columns, comments, axes):
                out.write(text)
    except OSError as exc:
        if not path:  # an error of stdout itself, a closed pipe say, passes through
            raise
        raise ConfigError(f"cannot write output: {exc}") from exc


def _run_row(t, state: GaussianState, scalars: entropy.DerivedScalars, osc) -> list:
    """The RUN_COLUMNS of one state; t_eff is T(nu) whatever the diffusion
    source, and `scalars` must carry the rate."""
    return [
        t, state.sigma_q, state.sigma_p, state.sigma_qq, state.sigma_pp,
        state.sigma_pq, scalars.sigma_det, scalars.nu, scalars.s_vn,
        entropy._temperature(osc, scalars.nu), scalars.gamma, scalars.s_lin,
        scalars.s_lin_rate, scalars.wehrl, scalars.energy,
    ]


class Scenario(NamedTuple):
    """A scenario file with its flags, read and checked as a whole."""

    osc: OscillatorSpec
    diff: DiffusionSpec
    report: model.ConstraintReport
    state0: GaussianState | None
    output: tuple[str, str | None]
    window: CoherentWindow
    times: list[float] | None


def _read_scenario(args, required: tuple[str, ...] = ()) -> Scenario:
    """Every block of the scenario file, with its flags, read and checked
    before any propagation, so that a malformed value exits 1 before any
    work is done.

    The initial_state and times blocks are read when present or named in
    `required`, and are None otherwise.
    """
    cfg = _load_config(args.config)
    osc = build_oscillator(cfg, args.hbar)
    diff = build_diffusion(cfg, osc)
    blocks = {*cfg, *required}
    return Scenario(
        osc, diff, model.validate(diff, osc),
        state0=build_initial_state(cfg, osc) if "initial_state" in blocks else None,
        output=_output(cfg, args),
        window=_window(cfg, osc, args),
        times=build_times(cfg) if "times" in blocks else None,
    )


def _scenario(args, *required: str) -> Scenario:
    """The scenario of a propagating command, which needs the initial state
    and the `required` blocks; inadmissible diffusion coefficients are a
    ConfigError."""
    scenario = _read_scenario(args, ("initial_state", *required))
    failed = scenario.report.failed()
    if failed:
        raise ConfigError("inadmissible diffusion coefficients: " + ", ".join(
            f"{c.name} fails (margin={c.margin:.17g})" for c in failed))
    return scenario


def cmd_validate(args) -> int:
    report = _read_scenario(args).report
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"constraint {check.name}: {status} (margin={check.margin:.17g})")
    return 0 if report.all_passed else 1


def cmd_evolve(args) -> int:
    sc = _scenario(args, "times")
    osc, diff = sc.osc, sc.diff
    pairs = propagator.sample_trajectory(osc, diff, sc.state0, sc.times)
    columns = np.empty((len(RUN_COLUMNS), len(pairs)))
    # Row i is filled from pair i, which is then dropped: the pairs are gone
    # before formatting starts, and no row is held in a second form.
    for i, (state, _) in enumerate(pairs):
        pairs[i] = None
        scalars = entropy.derived_scalars(osc, state, diff=diff, window=sc.window)
        columns[:, i] = _run_row(state.t, state, scalars, osc)
    _emit(sc.output, list(RUN_COLUMNS), list(columns))
    return 0


def cmd_steady(args) -> int:
    sc = _scenario(args)
    state = propagator.steady_state(sc.osc, sc.diff)
    scalars = entropy.derived_scalars(sc.osc, state, diff=sc.diff, window=sc.window)
    row = _run_row("inf", state, scalars, sc.osc)
    _emit(sc.output, list(RUN_COLUMNS), [[v] for v in row])
    return 0


def _grid_state(args) -> tuple[Scenario, GaussianState]:
    """The scenario of a grid or kernel command and its state at --time;
    --time, --width-sigmas and grid sizes outside their domains are
    rejected before the scenario is read."""
    propagator._check_times([args.time], "--time")
    if not (math.isfinite(args.width_sigmas) and args.width_sigmas > 0):
        raise ConfigError(f"--width-sigmas must be finite and > 0, got {args.width_sigmas!r}")
    for name in ("n_q", "n_p", "n_x"):
        size = getattr(args, name, 2)
        if size < 2:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= 2, got {size}")
    flags, points = (("--n-x**2", args.n_x**2) if hasattr(args, "n_x")
                     else ("--n-q * --n-p", args.n_q * args.n_p))
    if points > MAX_ROWS:
        raise ConfigError(f"{flags} must be <= {MAX_ROWS}, got {points}")
    sc = _scenario(args)
    if args.time == 0:
        return sc, sc.state0
    return sc, propagator.evolve(sc.osc, sc.diff, sc.state0, args.time)


def cmd_wigner_grid(args) -> int:
    sc, state = _grid_state(args)
    _emit_grid(sc, phasespace.wigner_grid(state, args.n_q, args.n_p, args.width_sigmas))
    return 0


def cmd_husimi_grid(args) -> int:
    sc, state = _grid_state(args)
    _emit_grid(sc, phasespace.husimi_grid(state, sc.window, args.n_q, args.n_p,
                                          args.width_sigmas))
    return 0


def _emit_grid(sc: Scenario, grid: phasespace.PhaseSpaceGrid) -> None:
    _emit(sc.output, ["q", "p", "value"], [grid.values], [f"measure={grid.measure}"],
          axes=(grid.q_axis, grid.p_axis))


def cmd_kernel(args) -> int:
    sc, state = _grid_state(args)
    axis = phasespace.sample_axis(state.sigma_q, state.sigma_qq, args.n_x, args.width_sigmas)
    value = phasespace.density_kernel_at(state, axis[:, None], axis[None, :], hbar=sc.osc.hbar)
    if not np.isfinite(value).all():
        raise ParameterError("kernel values must be finite")
    _emit(sc.output, ["x", "y", "re", "im"], [value.real, value.imag], axes=(axis, axis))
    return 0


# purity-scan column headers, by purity_table key
_PURITY_HEADER = {"sigma_det": "sigma", **{n: f"res_{n}" for n in purity.RESIDUALS}}


def cmd_purity_scan(args) -> int:
    sc = _scenario(args, "times")
    table = purity.purity_table(sc.osc, sc.diff, sc.state0, sc.times)
    _emit(sc.output, [_PURITY_HEADER.get(k, k) for k in table], list(table.values()))
    return 0


def cmd_selftest(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    results = sweeps.selftest(args.seed)
    for name, passed in results:
        print(f"selftest {name}: {'PASS' if passed else 'FAIL'}")
    return 0 if all(passed for _, passed in results) else 1


class _Parser(argparse.ArgumentParser):
    """Reports a command-line error like any other input error: one
    `error:` line on stderr and exit 1."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lindosc",
        description=(
            "Gaussian-state simulator for the damped quantum harmonic "
            "oscillator under Lindblad dynamics"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, output=True, window=False):
        """A subcommand that reads a scenario file, with the flags it acts on."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="scenario JSON file")
        if output:
            p.add_argument("--format", choices=("csv", "json"), default=None)
            p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--hbar", type=float, default=None, help="override hbar")
        if window:
            p.add_argument(
                "--window-sqq", type=float, default=None,
                help="position variance of the smoothing window (squeezing)",
            )
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "check the diffusion-coefficient constraints",
            output=False)
    command("evolve", cmd_evolve, "sample the trajectory with derived scalars", window=True)
    command("steady", cmd_steady, "asymptotic state and derived scalars", window=True)

    for name, func in (("wigner-grid", cmd_wigner_grid), ("husimi-grid", cmd_husimi_grid)):
        p = command(name, func, f"emit a {name.split('-')[0]} phase-space grid",
                    window=name == "husimi-grid")
        p.add_argument("--time", type=float, default=0.0)
        p.add_argument("--n-q", type=int, default=64)
        p.add_argument("--n-p", type=int, default=64)
        p.add_argument("--width-sigmas", type=float, default=8.0)

    p = command("kernel", cmd_kernel, "emit the coordinate density kernel on a grid")
    p.add_argument("--time", type=float, default=0.0)
    p.add_argument("--n-x", type=int, default=21)
    p.add_argument("--width-sigmas", type=float, default=4.0)

    command("purity-scan", cmd_purity_scan, "per-time purity reports")

    p = sub.add_parser("selftest", help="run built-in random property sweeps")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ConfigError, ParameterError, InvalidStateError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except BrokenPipeError as exc:  # stdout's reader has gone, as under `| head`
            # Stdout then points at /dev/null, so that its flush at exit stays silent.
            with contextlib.suppress(AttributeError, OSError):  # a stand-in with no fileno
                fd = sys.stdout.fileno()
                os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 1
        except ArithmeticError as exc:  # an overflow or a division by an underflowed 0
            print(f"error: value outside the floating-point range: {exc}", file=sys.stderr)
            return 1
        except ConsistencyError as exc:
            print(f"numerical-consistency error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
