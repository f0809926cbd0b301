"""One workload run, in a process of its own.

    python3 perfbench/worker.py --workload laws --seed 2024 --seconds 30 \
        --trace 0 --work-dir .perfbench_work/w

Sets up the inputs, then runs the workload's unit of work (fixed for a
seed) back to back until `--seconds` have passed, at least twice.  Prints
one JSON object: the monotonic time at which set-up finished, the wall
time of each unit, every per-command latency, the verdict tallies and
the peak RSS.  With `--trace 1` it runs untraced for half the time, then
sets up and runs one unit again with every layer wrapped, and adds the
per-layer metrics.  `--setup-only` stops after set-up, so the caller can
time set-up in fresh processes.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(CHECKOUT, "src"), HERE]

import inputs  # noqa: E402
import layers  # noqa: E402

SUITES = {
    "laws": ("run_theorem1_suite", "run_soundness_audit"),
    "scales": ("run_theorem2_suite", "run_theorem3_suite", "run_tarski_suite"),
}
MIN_UNITS = 2


class Tally:
    """What one or more units did: timings, decisions and failures."""

    def __init__(self):
        self.walls: List[float] = []
        self.latencies_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.unknown = 0
        self.failures: List[str] = []

    def fail(self, what: str, k: int = 1) -> None:
        self.failed += k
        if len(self.failures) < 10:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# set-up


def set_up(workload: str, seed: int, work_dir: str):
    """Import the package and build the inputs of one unit."""
    if workload in SUITES:
        import typemonoid.suites  # noqa: F401

        return inputs.bench_corpus(seed, inputs.CORPUS_MIX[workload])
    import typemonoid.cli  # noqa: F401

    atoms = inputs.write_spaces(work_dir)
    queries = inputs.query_list(seed, atoms, inputs.load_reference())
    return {"dir": work_dir, "atoms": atoms, "queries": queries}


# ---------------------------------------------------------------------------
# units


def run_suites(workload: str, corpus, tally: Tally) -> None:
    """Each suite of the workload on each space, one call per (suite, space).

    The suites keep their own default seeds: with a seed per call the
    cost of one space varies by a factor of two, which no run could
    average out.
    """
    from typemonoid import suites

    for entry in corpus:
        for name in SUITES[workload]:
            start = time.perf_counter()
            try:
                report = getattr(suites, name)([entry])
            except Exception as exc:  # a crash is a failed operation; keep going
                tally.latencies_ms.append((time.perf_counter() - start) * 1e3)
                tally.attempted += 1
                tally.fail(f"{name} on {entry.name}: {type(exc).__name__}: {exc}")
                continue
            tally.latencies_ms.append((time.perf_counter() - start) * 1e3)
            tally.attempted += report["checks"]
            tally.unknown += report["unknown"]
            listed = [f for f in report["failures"] if "unknown on a fixture" not in f]
            for failure in listed:
                tally.fail(f"{name}: {failure}")
            if report["fixture_unknown"]:
                tally.fail(f"{name} on {entry.name}: {report['fixture_unknown']} unknown "
                           "verdicts on a fixture", report["fixture_unknown"])


def run_command(args: List[str], space_dir: str, atoms: Dict[str, int]):
    """`typemonoid --json <args>` in process; returns (code, report, ms)."""
    from typemonoid import cli

    argv = ["--json", args[0]] + [
        os.path.join(space_dir, a + ".json") if a in atoms else a for a in args[1:2]
    ] + list(args[2:])
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed command
        code = f"{type(exc).__name__}: {exc}"
    elapsed_ms = (time.perf_counter() - start) * 1e3
    try:
        report = json.loads(out.getvalue()) if isinstance(code, int) else None
    except json.JSONDecodeError:
        report = None
    return code, report, elapsed_ms


def run_queries(inputs_: Dict, tally: Tally) -> None:
    for args, reference in inputs_["queries"]:
        code, report, elapsed_ms = run_command(args, inputs_["dir"], inputs_["atoms"])
        tally.latencies_ms.append(elapsed_ms)
        tally.attempted += 1
        if code == 2:
            tally.unknown += 1
        got = inputs.signature(args[0], code, report) if isinstance(code, int) else [code]
        if got != reference:
            tally.fail(f"{inputs.command_key(args)}: got {got}, expected {reference}")


def run_unit(workload: str, prepared, tally: Tally) -> float:
    start = time.perf_counter()
    if workload in SUITES:
        run_suites(workload, prepared, tally)
    else:
        run_queries(prepared, tally)
    wall = time.perf_counter() - start
    tally.walls.append(wall)
    return wall


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["laws", "scales", "queries"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    prepared = set_up(args.workload, args.seed, args.work_dir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tally = Tally()
    budget = args.seconds / 2 if args.trace else args.seconds
    min_units = 1 if args.trace else MIN_UNITS
    start = time.perf_counter()
    while len(tally.walls) < min_units or time.perf_counter() - start < budget:
        run_unit(args.workload, prepared, tally)
    result = {
        "ready": ready,
        "walls": tally.walls,
        "latencies_ms": tally.latencies_ms,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unknown": tally.unknown,
        "failures": tally.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    if args.trace:
        import typemonoid.cli  # noqa: F401  (loads every layer module before patching)

        tracer = layers.Tracer()
        patch = layers.install(tracer)
        try:
            traced_inputs = set_up(args.workload, args.seed,
                                   os.path.join(args.work_dir, "traced"))
            traced = Tally()
            traced_wall = run_unit(args.workload, traced_inputs, traced)
        finally:
            patch.undo()
        metrics = layers.layer_metrics(tracer)
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(tally.walls), "s")
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["absent"] = patch.absent
        result["failed"] += traced.failed
        result["attempted"] += traced.attempted
        result["failures"] += traced.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
