"""typemonoid benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload laws|scales|queries --seed 2024 \
        --seconds 30 --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Workloads (closed loop, one client, one process, one thread):

  laws     theorem1 + soundness suites, one call per (suite, space), over
           the seeded bench corpus (see inputs.py)
  scales   theorem2 + theorem3 + tarski suites, the same way
  queries  a seeded list of 120 `typemonoid --json ...` commands, in process,
           on space files written at set-up

Set-up is timed in fresh processes (`SETUP_PROBES` of them plus the
measuring process), and the workload runs in a process of its own so
that its peak RSS is its own.  Every verdict is checked; the last line
of output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones.  Exits 2 without a result when the checkout has no
`src/typemonoid` or the run fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 4
DEADLINE_S = 170


def percentile(samples: Sequence[float], p: float, min_beyond: int = 10) -> float:
    """Nearest-rank p-th percentile, refused unless `min_beyond` samples lie above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    if len(ordered) - rank < min_beyond:
        raise ValueError(
            f"p{p:g} of {len(ordered)} samples has {len(ordered) - rank} beyond it; "
            f"need {min_beyond}"
        )
    return ordered[rank - 1]


def _worker(args: List[str], deadline: float):
    """Run a worker; returns (result, seconds from spawn to set-up done)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER] + args,
        cwd=CHECKOUT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - spawned


def measure(opts, work: str) -> Dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]
    setup_s = []
    if not opts.trace:
        for k in range(SETUP_PROBES):
            probe = common + ["--seconds", "0", "--setup-only",
                              "--work-dir", os.path.join(work, f"probe{k}")]
            setup_s.append(_worker(probe, deadline)[1])
    run, own_setup = _worker(
        common + ["--seconds", str(opts.seconds), "--trace", str(opts.trace),
                  "--work-dir", os.path.join(work, "run")],
        deadline,
    )
    setup_s.append(own_setup)

    walls, lat = run["walls"], run["latencies_ms"]
    unknown_rate = run["unknown"] / run["attempted"]
    error_rate = run["failed"] / run["attempted"]
    print(
        f"workload {opts.workload} seed {opts.seed}: {len(walls)} units, "
        f"{len(lat)} commands, {run['attempted']} decisions, "
        f"unknown_rate {unknown_rate:.6f}, error_rate {error_rate:.6f}"
    )
    for failure in run["failures"]:
        print(f"FAIL {failure}")
    if opts.trace:
        for name in run["absent"]:
            print(f"absent layer target: {name}")
        metrics = run["layers"]
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cmd_p50_ms": (percentile(lat, 50), "ms"),
            "cmd_p90_ms": (percentile(lat, 90), "ms"),
            "decided_rate": (1.0 - unknown_rate, "ratio"),
            "ok_rate": (1.0 - error_rate, "ratio"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["laws", "scales", "queries"])
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(CHECKOUT, "src", "typemonoid", "__init__.py")):
        print(f"no typemonoid sources under {CHECKOUT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(CHECKOUT, ".perfbench_work", f"run-{os.getpid()}")
    try:
        result = measure(opts, work)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
