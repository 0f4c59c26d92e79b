"""Command-line front end.

Scenario configuration is a flat JSON document with oscillator, diffusion,
initial-state, times, window and output blocks; command-line flags override
file values.  An invalid value is reported by its dotted key path.  All commands emit deterministic CSV (floats at 17 significant
digits) or JSON (floats as their shortest round-trip repr).  Exit codes: 0
success, 1 validation failure, 2 numerical-consistency failure.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
import warnings
from typing import NamedTuple

import numpy as np

from . import entropy, model, phasespace, propagator, purity
from .model import (
    ConsistencyError,
    DiffusionSpec,
    InvalidStateError,
    LindbladOps,
    OscillatorSpec,
    ParameterError,
    UnitSystem,
)
from .phasespace import CCSpec, CoherentWindow
from .propagator import GaussianState

RUN_COLUMNS = (
    "t", "sigma_q", "sigma_p", "sigma_qq", "sigma_pp", "sigma_pq",
    "sigma", "nu", "s_vn", "t_eff", "gamma", "s_lin", "s_lin_rate",
    "wehrl", "energy",
)


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
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
    units = UnitSystem(
        hbar=hbar_override if hbar_override is not None else hbar,
        boltzmann=_get(cfg, "oscillator.boltzmann", 1.0),
    )
    return OscillatorSpec(
        mass=_get(cfg, "oscillator.m", 1.0),
        omega=_get(cfg, "oscillator.omega"),
        lam=_get(cfg, "oscillator.lambda"),
        mu=_get(cfg, "oscillator.mu", 0.0),
        units=units,
    )


def build_diffusion(cfg: dict, osc: OscillatorSpec) -> tuple[DiffusionSpec, float | None]:
    """Diffusion coefficients and, for the thermal preset, the bath temperature."""
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
            temp = _get(cfg, "diffusion.temperature")
            return model.preset_gibbs(osc, temp), temp
        if preset == "pure":
            return model.preset_pure_state(osc), None
        raise ConfigError(f"unknown diffusion preset {preset!r}")
    if has_ops:
        entries = _get(cfg, "diffusion.ops", kind=list)
        # Key each entry by its index so that errors name diffusion.ops[i].a.
        indexed = {"diffusion": {f"ops[{i}]": entry for i, entry in enumerate(entries)}}
        ops = LindbladOps(ops=tuple(
            tuple(_get(indexed, f"diffusion.ops[{i}].{key}", kind=complex) for key in "ab")
            for i in range(len(entries))
        ))
        diff, lam = model.coefficients_from_ops(ops, osc.units)
        if not model.negligible(lam - osc.lam, lam, osc.lam, rtol=model.AGREE_RTOL):
            raise ConfigError(
                f"friction from lindblad ops ({lam}) disagrees with "
                f"oscillator lambda ({osc.lam})"
            )
        return diff, None
    d_qq, d_pp = _get(cfg, "diffusion.d_qq"), _get(cfg, "diffusion.d_pp")
    return DiffusionSpec(d_qq=d_qq, d_pp=d_pp, d_pq=_get(cfg, "diffusion.d_pq", 0.0)), None


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
        times = [_check(t, f"times.list[{i}]") for i, t in enumerate(listed)]
    else:
        n = _get(cfg, "times.n_samples", kind=int)
        start, end = _get(cfg, "times.t_start"), _get(cfg, "times.t_end")
        if n < 1:
            raise ConfigError("times.n_samples must be >= 1")
        times = list(np.linspace(start, end, n))
    if any(t < 0 for t in times):
        raise ConfigError("times must be >= 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("times must be strictly increasing")
    return times


def _output(cfg: dict, args) -> tuple[str, str | None]:
    """Output format and path: the --format and --out flags, else the output
    block, else CSV on stdout.  The block is checked even when flags win."""
    fmt = _get(cfg, "output.format", "csv", str)
    path = _get(cfg, "output.path", None, str)
    fmt, path = args.format or fmt, args.out or path
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format must be 'csv' or 'json', got {fmt!r}")
    return fmt, path


def _window(cfg: dict, osc: OscillatorSpec, args) -> CoherentWindow:
    s_qq = _get(cfg, "window.s_qq", None)
    if getattr(args, "window_sqq", None) is not None:
        s_qq = args.window_sqq
    if s_qq is None:
        return CoherentWindow.matched(osc)
    return CoherentWindow.squeezed(s_qq, hbar=osc.hbar)


def _json_cells(column: np.ndarray) -> list[str]:
    """JSON text of each value: floats as their shortest repr, NaN as null."""
    if column.dtype.kind != "f":
        return list(map(json.dumps, column.tolist()))
    return ["null" if v != v else repr(v) for v in column.tolist()]


def _emit(output: tuple[str, str | None], header: list[str], columns: list,
          comments: list[str] | None = None, axes: tuple = ()) -> None:
    """Write one row per point, one field per header entry, in the format
    and to the path of `output`, as _output resolves them.

    `axes` is empty or two numpy arrays, the outer and inner axis of a grid;
    they give the first two fields of each row and `columns` the rest.
    Columns are numpy arrays or lists of numbers, bools or strings with one
    value per row; a 2-D array is read in row-major order, so point (i, j)
    of a grid is index i * len(axes[1]) + j.  A float column holding +-inf
    raises ConsistencyError.  CSV prints numbers with 17 significant digits
    and bools as true/false.  It formats each axis value once and fills one
    outer-axis block at a time; without axes the body is one block with an
    empty prefix.  JSON expands the axes into columns, prints NaN as null
    and fills one row template per point, as json.dumps(indent=1) would.
    """
    fmt, path = output
    columns = [np.ravel(c) for c in columns]
    for name, c in zip(header, [*axes, *columns]):
        if c.dtype.kind == "f" and np.isinf(c).any():
            raise ConsistencyError(f"output column {name} holds an infinite value")
    if fmt == "csv":
        template = ",".join("%.17g" if c.dtype.kind in "fiu" else "%s" for c in columns) + "\n"
        columns = [np.where(c, "true", "false") if c.dtype == bool else c for c in columns]
        cells = [["%.17g," % v for v in axis.tolist()] for axis in axes]
        outer, inner = cells or ([""], [""] * len(columns[0]))
        block = [cell + template for cell in inner]
        n = len(block)
        body = "".join(
            (prefix + prefix.join(block)) % tuple(itertools.chain.from_iterable(
                zip(*(c[i * n:(i + 1) * n].tolist() for c in columns))
            ))
            for i, prefix in enumerate(outer)
        )
        text = "".join(f"# {line}\n" for line in comments or []) + ",".join(header) + "\n" + body
    else:
        points = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
        cells = [_json_cells(c) for c in points + columns]
        row = "  {\n" + ",\n".join(
            f"   {json.dumps(name).replace('%', '%%')}: %s" for name in header
        ) + "\n  }"
        payload = {"rows": []}
        if comments:
            payload["metadata"] = comments
        text = json.dumps(payload, indent=1, allow_nan=False) + "\n"
        if cells[0]:
            body = ",\n".join([row] * len(cells[0])) % tuple(
                itertools.chain.from_iterable(zip(*cells)))
            text = text.replace('"rows": []', '"rows": [\n' + body + "\n ]", 1)
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _run_row(t, state: GaussianState, scalars: entropy.DerivedScalars, osc) -> list:
    t_eff = scalars.t_eff
    if t_eff is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t_eff = entropy.effective_temperature(osc, state)
    return [
        t, state.sigma_q, state.sigma_p, state.sigma_qq, state.sigma_pp,
        state.sigma_pq, scalars.sigma_det, scalars.nu, scalars.s_vn, t_eff,
        scalars.gamma, scalars.s_lin,
        scalars.s_lin_rate if scalars.s_lin_rate is not None else math.nan,
        scalars.wehrl, scalars.energy,
    ]


class Scenario(NamedTuple):
    """A scenario file with its flags, read and checked as a whole."""

    osc: OscillatorSpec
    diff: DiffusionSpec
    temperature: float | None  # bath temperature of the thermal preset
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
    diff, temp = build_diffusion(cfg, osc)
    blocks = {*cfg, *required}
    return Scenario(
        osc, diff, temp, model.validate(diff, osc),
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
    osc, diff, temp = sc.osc, sc.diff, sc.temperature
    rows = []
    traj = propagator.sample_trajectory(osc, diff, sc.state0, sc.times, thermal_temperature=temp)
    for state, _ in traj:
        scalars = entropy.derived_scalars(
            osc, state, diff=diff, window=sc.window, thermal_temperature=temp
        )
        rows.append(_run_row(state.t, state, scalars, osc))
    _emit(sc.output, list(RUN_COLUMNS), list(zip(*rows)) or [[]] * len(RUN_COLUMNS))
    return 0


def cmd_steady(args) -> int:
    sc = _scenario(args)
    state = propagator.steady_state(sc.osc, sc.diff)
    scalars = entropy.derived_scalars(
        sc.osc, state, diff=sc.diff, window=sc.window, thermal_temperature=sc.temperature
    )
    row = _run_row("inf", state, scalars, sc.osc)
    _emit(sc.output, list(RUN_COLUMNS), [[v] for v in row])
    return 0


def _check_grid_flags(args) -> None:
    """Reject --time, --width-sigmas and grid sizes outside their domains."""
    if not (math.isfinite(args.time) and args.time >= 0):
        raise ConfigError(f"--time must be finite and >= 0, got {args.time!r}")
    if not (math.isfinite(args.width_sigmas) and args.width_sigmas > 0):
        raise ConfigError(f"--width-sigmas must be finite and > 0, got {args.width_sigmas!r}")
    for name in ("n_q", "n_p", "n_x"):
        size = getattr(args, name, 2)
        if size < 2:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= 2, got {size}")


def _state_at(sc: Scenario, t: float) -> GaussianState:
    if t == 0:
        return sc.state0
    return propagator.evolve(sc.osc, sc.diff, sc.state0, t)


def cmd_wigner_grid(args) -> int:
    _check_grid_flags(args)
    sc = _scenario(args)
    grid = phasespace.wigner_grid(
        _state_at(sc, args.time), n_q=args.n_q, n_p=args.n_p, width_sigmas=args.width_sigmas
    )
    _emit_grid(sc, grid)
    return 0


def cmd_husimi_grid(args) -> int:
    _check_grid_flags(args)
    sc = _scenario(args)
    grid = phasespace.husimi_grid(
        _state_at(sc, args.time), sc.window,
        n_q=args.n_q, n_p=args.n_p, width_sigmas=args.width_sigmas,
    )
    _emit_grid(sc, grid)
    return 0


def _emit_grid(sc: Scenario, grid: phasespace.PhaseSpaceGrid) -> None:
    _emit(sc.output, ["q", "p", "value"], [grid.values], [f"measure={grid.measure}"],
          axes=(grid.q_axis, grid.p_axis))


def cmd_kernel(args) -> int:
    _check_grid_flags(args)
    sc = _scenario(args)
    state = _state_at(sc, args.time)
    half = args.width_sigmas * math.sqrt(state.sigma_qq)
    axis = np.linspace(state.sigma_q - half, state.sigma_q + half, args.n_x)
    value = phasespace.density_kernel_at(state, axis[:, None], axis[None, :], hbar=sc.osc.hbar)
    _emit(sc.output, ["x", "y", "re", "im"], [value.real, value.imag], axes=(axis, axis))
    return 0


# purity-scan column headers, by purity_table key
_PURITY_HEADER = {"sigma_det": "sigma", **{n: f"res_{n}" for n in purity.RESIDUALS}}


def cmd_purity_scan(args) -> int:
    sc = _scenario(args, "times")
    traj = propagator.sample_trajectory(sc.osc, sc.diff, sc.state0, sc.times)
    table = purity.purity_table(sc.osc, sc.diff, traj)
    _emit(sc.output, [_PURITY_HEADER.get(k, k) for k in table], list(table.values()))
    return 0


def _selftest_checks(seed: int):
    rng = np.random.default_rng(seed)
    results = []

    margins = []
    for _ in range(200):
        ab = rng.standard_normal(4) * 2
        ops = LindbladOps(ops=((complex(ab[0], ab[1]), complex(ab[2], ab[3])),))
        diff, lam = model.coefficients_from_ops(ops)
        margins.append(model.determinant_margin(diff, lam, 1.0))
    results.append(("coefficient determinant margin >= 0", min(margins) >= -1e-12))

    ok = True
    for _ in range(100):
        omega = rng.uniform(0.5, 2.0)
        lam = rng.uniform(0.01, 0.3) * omega
        mu = rng.uniform(-0.5, 0.5) * omega
        osc = OscillatorSpec(mass=rng.uniform(0.5, 2.0), omega=omega, lam=lam, mu=mu)
        d_qq, d_pp = rng.uniform(0.05, 0.5, 2)
        floor = lam / 2
        scale = max(floor, 0.05) / math.sqrt(d_qq * d_pp) * rng.uniform(1.0, 4.0)
        d_qq *= scale
        d_pp *= scale
        cap = math.sqrt(d_qq * d_pp - floor**2)
        d_pq = rng.uniform(-0.9, 0.9) * cap
        diff = DiffusionSpec(d_qq=d_qq, d_pp=d_pp, d_pq=d_pq)
        state0 = propagator.ground_state(osc)
        for t in np.linspace(0, 10 / lam, 23)[1:]:
            det = propagator.evolve(osc, diff, state0, float(t)).uncertainty_det
            ok = ok and (det >= 0.25 or model.negligible(det - 0.25, 0.25))
    results.append(("uncertainty preserved along evolution", ok))

    ok = True
    for _ in range(500):
        s_qq, s_pp = np.exp(rng.uniform(-1.5, 1.5, 2))
        r = rng.uniform(-0.99, 0.99)
        s_pq = r * math.sqrt(s_qq * s_pp)
        det = s_qq * s_pp - s_pq**2
        scale = max(1.0, 0.5 / math.sqrt(det)) * (1 + rng.uniform(0, 3))
        state = GaussianState(
            rng.normal(), rng.normal(), s_qq * scale, s_pp * scale, s_pq * scale
        )
        s = entropy.von_neumann_entropy(state)
        window = CoherentWindow.squeezed(math.sqrt(state.sigma_qq / state.sigma_pp) / 2 * 1.0)
        wehrl = entropy.wehrl_entropy_closed(state, window)
        if not (
            wehrl >= max(1.0, s) - 1e-9
            and entropy.linear_entropy(state) <= 1 - math.exp(-s) + 1e-12
            and entropy.minimized_uncertainty_bound(state) >= -1e-12
        ):
            ok = False
    results.append(("entropy inequality chain", ok))
    return results


def cmd_selftest(args) -> int:
    results = _selftest_checks(args.seed)
    all_ok = True
    for name, ok in results:
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindosc",
        description=(
            "Gaussian-state simulator for the damped quantum harmonic "
            "oscillator under Lindblad dynamics"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="scenario JSON file")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--hbar", type=float, default=None, help="override hbar")
        p.add_argument(
            "--window-sqq", type=float, default=None,
            help="position variance of the smoothing window (squeezing)",
        )

    p = sub.add_parser("validate", help="check the diffusion-coefficient constraints")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("evolve", help="sample the trajectory with derived scalars")
    common(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("steady", help="asymptotic state and derived scalars")
    common(p)
    p.set_defaults(func=cmd_steady)

    for name, func in (("wigner-grid", cmd_wigner_grid), ("husimi-grid", cmd_husimi_grid)):
        p = sub.add_parser(name, help=f"emit a {name.split('-')[0]} phase-space grid")
        common(p)
        p.add_argument("--time", type=float, default=0.0)
        p.add_argument("--n-q", type=int, default=64)
        p.add_argument("--n-p", type=int, default=64)
        p.add_argument("--width-sigmas", type=float, default=8.0)
        p.set_defaults(func=func)

    p = sub.add_parser("kernel", help="emit the coordinate density kernel on a grid")
    common(p)
    p.add_argument("--time", type=float, default=0.0)
    p.add_argument("--n-x", type=int, default=21)
    p.add_argument("--width-sigmas", type=float, default=4.0)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("purity-scan", help="per-time purity reports")
    common(p)
    p.set_defaults(func=cmd_purity_scan)

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
        except ConsistencyError as exc:
            print(f"numerical-consistency error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
