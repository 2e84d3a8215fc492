"""Benchmark of the ``cavqed`` command-line paths.

Run from the repository root:

    python3 perfbench/run.py --workload dispersive_sweeps --seed 1 --seconds 25 --trace 0

Workloads (see README.md): ``dispersive_sweeps``, ``reference_stack``,
``hom_curves``.  Each run starts fresh interpreters: one untimed launch that
warms the file cache, ``SETUP_LAUNCHES`` timed set-up launches, and one
workload process that runs whole passes for ``--seconds``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The full record of the run is written
to ``perfbench/results/``.
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

from workload import steal_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The workloads that inputs.py knows; this process imports no cavqed code.
WORKLOADS = ("dispersive_sweeps", "reference_stack", "hom_curves")

#: Timed set-up launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: Wall-clock limit of the whole run, seconds.
RUN_LIMIT_S = 170.0


def _child(mode: str, args, deadline: float, extra=()) -> dict:
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}-{time.monotonic_ns()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "workload.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cavqed benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cavqed" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no cavqed source tree (src/cavqed, configs)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    steal_start = steal_s()

    _child("setup", args, deadline)  # untimed: warms the file and bytecode caches
    setups = [_child("setup", args, deadline) for _ in range(SETUP_LAUNCHES)]
    run = _child("run", args, deadline,
                 ("--seconds", str(args.seconds), "--trace", str(args.trace)))

    if args.trace:
        metrics = {name: _metric(value, unit) for name, (value, unit) in run["layers"].items()}
        metrics["setup.import_s"] = _metric(
            statistics.median(s["import_s"] for s in setups), "s")
        metrics["setup.inputs_s"] = _metric(
            statistics.median(s["inputs_s"] for s in setups), "s")
    else:
        # items_per_s uses the median quiet pass, like pass_s: a mean would let
        # one pass slowed by a busy neighbour on a shared machine move it.
        pass_s = run["pass_s"]
        metrics = {
            "setup_s": _metric(statistics.median(s["setup_s"] for s in setups), "s"),
            "pass_s": _metric(pass_s, "s"),
            "items_per_s": _metric(run["items_per_pass"] / pass_s, "1/s"),
            "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
        }
    for line in run["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    summary = {"correct": run["correct"], "attempted": run["attempted"],
               "failed": run["failed"], "metrics": metrics}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    steal_end = steal_s()
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setups=setups, run=run,
                  steal_s=(steal_end - steal_start if steal_start is not None
                           and steal_end is not None else None))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
