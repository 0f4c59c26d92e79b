"""Record the reference outputs the benchmark checks every operation against.

    python3 perfbench/record.py

Writes ``perfbench/reference.json``: the SHA-256 and length of the stdout of
each CLI command a workload runs, and the flattened results of every scenario in
the library pool.  The file freezes the outputs of the commit it was
recorded at; re-record it only for a deliberate output change.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src on the path)


def main() -> int:
    work = HERE / ".run"
    work.mkdir(exist_ok=True)
    config = work / "scenario.json"
    config.write_text(json.dumps(workloads.BASELINE_SCENARIO, indent=1) + "\n")
    cli = {}
    for name in workloads.COMMANDS:
        code, text = workloads.cli_op(name, config, None).run()
        if code != 0:
            print(f"record.py: {name} exited with {code}", file=sys.stderr)
            return 1
        cli[name] = workloads.output_digest(text)
    library = [
        workloads.result_values(workloads.run_scenario(scen))
        for scen in workloads.library_pool()
    ]
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"cli": cli, "library": library}, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
