"""lindosc benchmark: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a lindosc checkout; the package is imported from its
``src/`` directory.  One closed-loop client in this process runs the
operations of a pass of the workload in order, round after round, each
after the previous one has finished, until ``--seconds`` have elapsed; the
first pass always completes.  Every operation's output is checked against
``reference.json``.

``--trace 0`` prints the end-to-end metrics.  Its set-up samples (fresh
interpreters) are spread over the run, so that they and the operations see
the same state of the host.  ``--trace 1`` runs a third of the time
untraced and the rest with the layer tracer installed, and prints the
per-layer metrics.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A run record,
and with ``--trace 1`` the spans of the first traced pass, go to
``perfbench/.run/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".run"

SETUP_SAMPLES = 5
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import lindosc.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t0)"
)
TAIL_PERCENTILE = 99.0
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s", "rows_per_s": "rows/s",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "cli.emit_s": "s", "cli.out_bytes": "bytes", "cli.build_s": "s", "cli.self_s": "s",
    "entropy.calls": "count", "entropy.self_s": "s", "entropy.scalars_per_row": "ratio",
    "propagator.calls": "count", "propagator.self_s": "s",
    "propagator.states_built": "count", "propagator.steady_checks": "count",
    "phasespace.calls": "count", "phasespace.self_s": "s",
    "phasespace.points_per_call": "points/call",
    "purity.calls": "count", "purity.self_s": "s",
    "model.calls": "count", "model.self_s": "s",
    "trace.overhead_s": "s",
}


class SetupTimer:
    """Times ``import lindosc.cli`` plus ``build_parser()`` in fresh
    interpreters: ``samples`` of them at evenly spaced moments of a run,
    after one unmeasured start that leaves the bytecode cache as a user's
    second run would find it."""

    def __init__(self, samples: int):
        self.samples = samples
        self.times = []
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self._env.get("PYTHONPATH")]))
        self._start = self._seconds = 0.0

    def _once(self) -> float:
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=self._env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        return float(done.stdout.strip().splitlines()[-1])

    def begin(self, seconds: float) -> None:
        self._once()
        self._start, self._seconds = time.perf_counter(), seconds

    def due(self) -> None:
        """Take the samples whose moment has come."""
        now = time.perf_counter()
        while (len(self.times) < self.samples and
               now >= self._start + self._seconds * len(self.times) / self.samples):
            self.times.append(self._once())

    def finish(self) -> float:
        while len(self.times) < self.samples:
            self.times.append(self._once())
        return statistics.median(self.times)


class Tally:
    """Per operation of a pass: its latencies, output bytes and, when traced,
    the tracer's stats of each run of it; and operations attempted and failed."""

    def __init__(self, n_ops: int):
        self.latencies = [[] for _ in range(n_ops)]
        self.out_bytes = [[] for _ in range(n_ops)]
        self.stats = [[] for _ in range(n_ops)]
        self.attempted = 0
        self.failed = 0

    def per_pass(self, values, of=statistics.median) -> float:
        """A per-pass figure: ``of`` each operation's values, summed."""
        return math.fsum(of(v) for v in values)

    def pass_s(self) -> float:
        """Time of one pass: the median time of each of its operations, summed."""
        return self.per_pass(self.latencies)


def run_ops(ops, seconds: float, tally: Tally, tracer=None, setup=None) -> None:
    """Run the operations of a pass in order, round after round, until
    ``seconds`` have elapsed.  The first pass always completes."""
    deadline = time.perf_counter() + seconds
    i = rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        if setup is not None:
            setup.due()
        op = ops[i]
        if tracer is not None:
            tracer.op_id = i
            tracer.begin(record_spans=rounds == 0)
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, exc
        tally.latencies[i].append(time.perf_counter() - start)
        tally.attempted += 1
        if tracer is not None:
            tally.stats[i].append(tracer.stats)
        if error is not None:
            if not tally.failed:
                traceback.print_exception(error)
            tally.failed += 1
            tally.out_bytes[i].append(0)
        else:
            ok, nbytes = op.check(result)
            del result
            tally.out_bytes[i].append(nbytes)
            tally.failed += not ok
        i += 1
        if i == len(ops):
            i = 0
            rounds += 1


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """p99 (nearest rank) when at least TAIL_MIN_BEYOND samples lie beyond it,
    else the maximum.  One fixed percentile keeps runs with slightly different
    sample counts comparable."""
    ordered = sorted(latencies)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    if len(ordered) - rank >= TAIL_MIN_BEYOND:
        return ordered[rank - 1], f"p{TAIL_PERCENTILE:g}"
    return ordered[-1], "max"


def end_to_end(tally: Tally, ops, setup_s: float, per_command: bool) -> tuple[dict, dict]:
    wall_s = tally.pass_s()
    latencies = [x for lat in tally.latencies for x in lat]
    tail, label = tail_latency(latencies)
    metrics = {
        "wall_s": wall_s,
        "rows_per_s": sum(op.rows for op in ops) / wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    # Reported, not gated: every gated metric must exist on every workload,
    # and the operations of a CLI workload are different commands.
    notes = {
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3, "tail_percentile": label,
        "latency_samples": len(latencies),
        "setup_samples": SETUP_SAMPLES,
    }
    if per_command:
        for op, lat in zip(ops, tally.latencies):
            notes[f"cmd.{op.name}_s"] = statistics.median(lat)
            notes[f"cmd.{op.name}_samples"] = len(lat)
    return metrics, notes


def mean(values) -> float:
    return math.fsum(values) / len(values)


def per_layer(untraced: Tally, traced: Tally, ops, layers) -> tuple[dict, dict]:
    """Per-pass layer metrics: for each operation of a pass, the median of
    its times and the mean of its counts, summed over the operations."""
    stats = traced.stats

    def per_pass(get, of=statistics.median):
        return traced.per_pass(([get(s) for s in op_stats] for op_stats in stats), of)

    metrics = {
        "cli.emit_s": per_pass(lambda s: s.emit_s),
        "cli.out_bytes": traced.per_pass(traced.out_bytes),
        "cli.build_s": per_pass(lambda s: s.build_s),
    }
    for layer in layers:
        metrics[f"{layer}.calls"] = per_pass(lambda s: s.calls[layer], mean)
        metrics[f"{layer}.self_s"] = per_pass(lambda s: s.self_s[layer])
    scalars = per_pass(lambda s: s.func_calls["entropy.derived_scalars"], mean)
    metrics["entropy.scalars_per_row"] = scalars / sum(op.rows for op in ops)
    metrics["propagator.states_built"] = per_pass(lambda s: s.states_built, mean)
    metrics["propagator.steady_checks"] = per_pass(
        lambda s: s.func_calls["propagator.steady_covariances"], mean)
    points = per_pass(lambda s: s.points, mean)
    calls = metrics["phasespace.calls"]
    metrics["phasespace.points_per_call"] = points / calls if calls else 0.0
    metrics["trace.overhead_s"] = traced.pass_s() - untraced.pass_s()
    metrics = {name: float(metrics[name]) for name in PER_LAYER_UNITS}

    def counts(s):
        return dict(s.calls), dict(s.func_calls), s.points, s.states_built

    function_calls = Counter()
    by_op = {}
    for op, op_stats, latencies in zip(ops, stats, traced.latencies):
        first = op_stats[0]
        function_calls.update(first.func_calls)
        emit = statistics.median(s.emit_s for s in op_stats)
        by_op.setdefault(op.name, {
            "entropy.scalars_per_row": first.func_calls["entropy.derived_scalars"] / op.rows,
            "phasespace.points_per_call": (
                first.points / first.calls["phasespace"] if first.calls["phasespace"]
                else 0.0),
            "propagator.states_built": first.states_built,
            "propagator.steady_checks": first.func_calls["propagator.steady_covariances"],
            "cli.emit_s": emit,
            "cli.emit_share": emit / statistics.median(latencies),
        })
    notes = {
        "traced_runs_per_op": [len(lat) for lat in traced.latencies],
        "untraced_runs_per_op": [len(lat) for lat in untraced.latencies],
        "untraced_pass_s": untraced.pass_s(),
        "counts_repeat_across_runs": all(
            counts(s) == counts(op_stats[0]) for op_stats in stats for s in op_stats),
        "function_calls_per_pass": dict(sorted(function_calls.items())),
        "by_operation": by_op,
    }
    return metrics, notes


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def environment(workload: str, seed: int, seconds: float, trace: int, describe) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "clients": 1, "loop": "closed",
        **describe(workload),
    }


def write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("op\tdepth\tfunction\tstart_s\tend_s\n")
        origin = spans[0][3] if spans else 0.0
        for op_id, depth, name, start, end in spans:
            fh.write(f"{op_id}\t{depth}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lindosc" / "cli.py").is_file():
        print(f"run.py: no lindosc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    config = WORK / "scenario.json"
    config.write_text(json.dumps(workloads.BASELINE_SCENARIO, indent=1) + "\n")
    ops = workloads.make_ops(args.workload, args.seed, config, workloads.load_reference())

    if args.trace == 0:
        setup = SetupTimer(SETUP_SAMPLES)
        setup.begin(args.seconds)
        tally = Tally(len(ops))
        run_ops(ops, args.seconds, tally, setup=setup)
        metrics, notes = end_to_end(
            tally, ops, setup.finish(), args.workload in workloads.CLI_WORKLOADS)
        units = END_TO_END_UNITS
        tallies = [tally]
    else:
        untraced, traced = Tally(len(ops)), Tally(len(ops))
        run_ops(ops, args.seconds / 3, untraced)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_ops(ops, args.seconds * 2 / 3, traced, tracer)
        finally:
            tracer.uninstall()
        metrics, notes = per_layer(untraced, traced, ops, tracing.LAYERS)
        units = PER_LAYER_UNITS
        tallies = [untraced, traced]
        write_spans(WORK / f"{args.workload}-seed{args.seed}.spans.tsv", tracer.spans)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    env = environment(args.workload, args.seed, args.seconds, args.trace, workloads.describe)
    record = {
        "environment": env, "notes": notes,
        "latencies_s": [[op.name, *lat] for t in tallies for op, lat in zip(ops, t.latencies)],
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record_path = WORK / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(env))
    print("notes " + json.dumps(notes))
    print(f"fail_ratio {failed / attempted!r} ({failed} of {attempted} operations)")
    if args.trace == 0:
        print(f"op_p50_ms {notes['op_p50_ms']!r} ms (reported, not gated)")
        print(f"op_tail_ms {notes['op_tail_ms']!r} ms ({notes['tail_percentile']} of "
              f"{notes['latency_samples']} samples; reported, not gated)")
        for name, value in notes.items():
            if name.startswith("cmd.") and name.endswith("_s"):
                print(f"{name} {value!r} s (median of "
                      f"{notes[name[:-2] + '_samples']} samples; reported, not gated)")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
