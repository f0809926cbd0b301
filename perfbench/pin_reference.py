"""Pin the fixture verdicts the `queries` workload checks against.

    python3 perfbench/pin_reference.py

Runs every fixture command the query mix can draw, once, and writes
their verdict signatures to `reference.json`.  Run it only to re-pin on
purpose: the file is the record of the verdicts the benchmark accepts.
"""

import json
import os
import shutil
import sys

import worker  # sets up the import path

import inputs


def main() -> int:
    work = os.path.join(worker.CHECKOUT, ".perfbench_work", "pin")
    try:
        atoms = inputs.write_spaces(work)
        reference = {}
        for tier, commands in inputs.fixture_commands(atoms).items():
            for args in commands:
                code, report, ms = worker.run_command(args, work, atoms)
                if code != 0:
                    print(f"refusing to pin {args}: exit {code}", file=sys.stderr)
                    return 1
                reference[inputs.command_key(args)] = inputs.signature(args[0], code, report)
                print(f"{tier:5s} {ms:8.1f} ms  {inputs.command_key(args)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(inputs.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(reference)} commands to {inputs.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
