"""Print every metric of every workload, by name with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` once untraced (end-to-end metrics) and once traced
(per-layer metrics) for each workload in BENCHMARK.json, one run at a time,
and prints one line per metric plus each run's fail_ratio, the figures it
reports without gating them, and the per-command breakdown of the traced
run.  Exits 1 if any operation failed its output check.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    all_correct = True
    print(f"{'workload':<12} {'metric':<36} {'value':>16} unit")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            all_correct = all_correct and result["correct"]
            ratio = result["failed"] / result["attempted"]
            print(f"{workload:<12} {f'fail_ratio[trace={trace}]':<36} {ratio:>16.6g} "
                  f"ratio ({result['failed']} of {result['attempted']})")
            for name, metric in result["metrics"].items():
                print(f"{workload:<12} {name:<36} {metric['value']:>16.6g} {metric['unit']}")
            record = json.loads((
                HERE / ".run" / f"{workload}-trace{trace}-seed{args.seed}.json").read_text())
            notes = record["notes"]
            if trace == 0:
                print(f"{workload:<12} {'op_p50_ms':<36} {notes['op_p50_ms']:>16.6g} ms "
                      f"(not gated)")
                print(f"{workload:<12} {'op_tail_ms':<36} {notes['op_tail_ms']:>16.6g} ms "
                      f"({notes['tail_percentile']} of {notes['latency_samples']}; not gated)")
                for name, value in notes.items():
                    if name.startswith("cmd.") and name.endswith("_s"):
                        print(f"{workload:<12} {name:<36} {value:>16.6g} s (median of "
                              f"{notes[name[:-2] + '_samples']}; not gated)")
            else:
                for op_name, figures in notes["by_operation"].items():
                    if op_name.startswith("scenario"):
                        continue
                    for name, value in figures.items():
                        print(f"{workload:<12} {op_name + ':' + name:<36} {value:>16.6g}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
