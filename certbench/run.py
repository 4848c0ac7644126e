"""Certificate benchmark for finitopos.

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Starts one fresh worker process
(worker.py) for the workload, checks everything it produced against the
independent computations in oracle.py, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mib); with
--trace 1 they are the per-layer ones of tracer.py.  Exits non-zero, without
a result, when the program cannot be run or does not finish in time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from tracer import layer_metrics
from worker import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER_TIMEOUT_S = 160


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_worker(args):
    """(result dict, spawn time) of one worker process; raises on failure."""
    if not (ROOT / "src" / "finitopos" / "__init__.py").is_file():
        raise RuntimeError(f"no finitopos sources under {ROOT / 'src'}")
    # a fixed hash seed gives every run the same set and dict orders, so the
    # same work; the inputs vary with --seed
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(ROOT / "certbench" / "worker.py"), str(ROOT),
           args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        res, t_spawn = run_worker(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        print(f"certbench: {e}", file=sys.stderr)
        return 1

    try:
        problems = oracle.CHECKS[args.workload](res["check"])
    except (KeyError, TypeError, ValueError, IndexError) as e:
        problems = [f"malformed output: {e!r}"]
    if len(set(res["digests"])) != 1:
        problems.append("rounds of the same operations gave different outputs")
    for p in problems:
        print(f"certbench: {args.workload}: {p}", file=sys.stderr)
    print(f"certbench: {args.workload}: rounds {len(res['round_s'])}, raw wall "
          f"{statistics.median(res['round_s']):.3f} s (median)", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _ in layer_metrics()}
    else:
        metrics = {
            "setup_s": {"value": res["t_first"] - t_spawn, "unit": "s"},
            "wall_s": {"value": statistics.median(res["scaled_s"]), "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_kib"] / 1024, "unit": "MiB"},
        }
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
