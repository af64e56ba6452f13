"""Replay benchmark: host throughput, set-up time and memory per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (the package is imported from
``src/``). Each workload runs in fresh processes of ``child.py`` with
numeric-library threads pinned to one:

1. ``prepare`` writes what the set-up reads (the trace file of
   ``fifo_replay``); it is not timed.
2. With ``--trace 0``, :data:`SETUP_REPEATS` - 1 set-up-only processes
   measure ``setup_s`` (process start to the end of the warm-up pass).
3. The measuring process sets up the same way, runs timed passes for
   ``--seconds``, checks the outputs and reports.

Host times are scaled to a reference machine speed (``calibrate.py``).
``setup_s`` is the median over every set-up of the run. The last line
of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``. The line before it holds the
unscaled figures and the simulated statistics of the run, printed for
reference only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Run artifacts (trace files, span logs) live under the checkout.
RUNS = os.path.join(ROOT, ".perfbench_runs")
SETUP_REPEATS = 3
#: A run must end well inside three minutes.
BUDGET_S = 170.0

UNITS = {"host_rps": "req/s", "peak_rss_mb": "MB"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_per_batch"):
        return "ratio"
    return "count"


def pinned_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def child(stage, args, workdir, env, deadline):
    """Run one child process to its end; returns its JSON result."""
    t0 = time.monotonic()
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--stage", stage, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--t0", repr(t0),
               "--workdir", workdir]
    done = subprocess.run(command, cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - t0, 1.0))
    if done.returncode != 0:
        raise RuntimeError(f"{stage} stage exited with code "
                           f"{done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{stage} stage printed no result")
    return json.loads(lines[-1])


def main(argv=None):
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no package source under {os.path.join(ROOT, 'src')}; "
              "run from a source checkout", file=sys.stderr)
        return 2

    env = pinned_env()
    deadline = started + BUDGET_S
    workdir = os.path.join(RUNS, f"{args.workload}-{args.seed}-"
                                 f"{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        child("prepare", args, workdir, env, deadline)
        setups = []
        if not args.trace:
            setups = [child("setup", args, workdir, env, deadline)
                      for _ in range(SETUP_REPEATS - 1)]
        result = child("run", args, workdir, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, raw = result["metrics"], result["raw"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(
            [s["setup_s"] for s in setups] + [metrics["setup_s"]])
        raw["setup_s"] = statistics.median(
            [s["raw"]["setup_s"] for s in setups] + [raw["setup_s"]])
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "passes": result["passes"], "raw": raw,
                      "simulated": result["reference"]}, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
