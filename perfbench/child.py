"""One workload in one fresh process; ``run.py`` starts it.

Stages:

* ``prepare`` writes whatever the workload reads during its set-up (the
  JSONL trace of ``fifo_replay``), so that writing it is not timed;
* ``setup`` imports the package, runs the workload's set-up and one
  untimed warm-up pass, prints ``setup_s`` and exits;
* ``run`` does the same set-up, then timed passes for ``--seconds``,
  then the output checks, and prints the run's result.

With ``--trace 1`` the ``run`` stage alternates untraced passes with
passes under the layer tracer, and reports per-layer metrics instead
of end-to-end ones. The last line of standard output
is one JSON object.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
CALL_LAYERS = ("cluster.simulator", "cluster.replay", "cluster.report",
               "energy.governor", "serving.price_batch", "core",
               "dvfs.deadline", "fleet.orchestrator", "fleet.router",
               "telemetry.analysis")
#: Layers whose call counts have a name of their own:
#: ``layer -> (count metric, self-time metric)``.
NAMED_LAYERS = {
    "cluster.events": ("cluster.events.steps", "cluster.events.self_s"),
    "cluster.accelerator": ("cluster.accelerator.estimates",
                            "cluster.accelerator.self_s"),
    "fleet.site.estimate": ("fleet.site.estimates",
                            "fleet.site.estimate_self_s"),
    "fleet.site.drain": ("fleet.site.drain_calls",
                         "fleet.site.drain_self_s"),
}


def canonical(summary):
    return json.dumps(summary, sort_keys=True)


def timed_passes(workload, seconds, expected, before=None, after=None,
                 at_least=1):
    """Whole passes until ``seconds`` of wall time have gone by.

    Before each pass the previous pass's result is dropped and the heap
    collected; the collector stays on inside the pass. ``before(i)`` and
    ``after(i, result, elapsed)`` run around pass ``i``, outside its
    timer. Returns the pass times, the last pass's result and the number
    of passes whose summary differed from ``expected``.
    """
    times, result, differing = [], None, 0
    began = time.perf_counter()
    while len(times) < at_least or time.perf_counter() - began < seconds:
        result = None
        gc.collect()
        if before is not None:
            before(len(times))
        start = time.perf_counter()
        result = workload.run_pass()
        elapsed = time.perf_counter() - start
        if after is not None:
            after(len(times), result, elapsed)
        times.append(elapsed)
        if canonical(result.summary) != expected:
            differing += 1
    return times, result, differing


def layer_metrics(tracer, result, elapsed):
    """Per-layer metrics of one traced pass."""
    totals = tracer.totals()
    metrics = {}
    for layer in CALL_LAYERS:
        calls, _, own = totals[layer]
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = own
    for layer, (count_name, self_name) in NAMED_LAYERS.items():
        calls, _, own = totals[layer]
        metrics[count_name] = calls
        metrics[self_name] = own
    metrics["cluster.report.records"] = tracer.materialized
    metrics["cluster.batches"] = result.batches
    metrics["cluster.accelerator.estimates_per_batch"] = (
        metrics["cluster.accelerator.estimates"] / result.batches
        if result.batches else 0.0)
    metrics["telemetry.spans"] = result.spans
    metrics["telemetry.monitor.alerts"] = result.alerts
    metrics["python.gc.s"] = tracer.gc_s
    metrics["python.gc.collections"] = tracer.gc_collections
    metrics["bench.traced_pass_s"] = elapsed
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--stage", choices=("prepare", "setup", "run"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the process was "
                        "started")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro.cluster  # noqa: F401
    import repro.fleet  # noqa: F401
    import repro.telemetry.analysis  # noqa: F401
    import_s = time.perf_counter() - start

    from calibrate import REFERENCE_S, reference_s
    from layers import LayerTracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.stage == "prepare":
        workload.prepare()
        print(json.dumps({"prepared": True}))
        return 0

    tracer = LayerTracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload.setup()
    setup_spans = None
    if tracer is not None:
        setup_spans, setup_totals = tracer.spans, tracer.totals()
        tracer.uninstall()
    warm = workload.run_pass()
    expected = canonical(warm.summary)
    raw_setup_s = time.monotonic() - args.t0
    del warm
    setup_s = raw_setup_s * REFERENCE_S / statistics.median(
        reference_s() for _ in range(3))
    raw = {"setup_s": raw_setup_s}
    if args.stage == "setup":
        print(json.dumps({"setup_s": setup_s, "raw": raw}))
        return 0

    if tracer is None:
        # Each pass is scaled by the mean of the reference kernel timed
        # just before and just after it (calibrate.py), so that a slower
        # machine minute does not read as a slower program.
        references = []
        times, result, differing = timed_passes(
            workload, args.seconds, expected,
            before=lambda i: references.append(reference_s()))
        references.append(reference_s())
        passes = len(times)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "host_rps": statistics.median(
                workload.requests * (before + after) / 2.0
                / (elapsed * REFERENCE_S)
                for elapsed, before, after
                in zip(times, references, references[1:])),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        raw["host_rps"] = workload.requests / statistics.median(times)
        raw["reference_s"] = statistics.median(references)
    else:
        # Untraced and traced passes alternate, so that both see the
        # same machine: their difference is the tracing overhead.
        untraced, run_times, plain_times, per_pass = [], [], [], []

        def before(i):
            if i % 2:
                tracer.install()
                tracer.reset()

        def after(i, result, elapsed):
            if i % 2:
                tracer.uninstall()
                per_pass.append(layer_metrics(tracer, result, elapsed))
                return
            untraced.append(elapsed)
            run_times.append(result.run_s)
            if hasattr(workload, "plain_run_s"):
                plain_times.append(workload.plain_run_s())

        times, result, differing = timed_passes(
            workload, args.seconds, expected, before, after, at_least=2)
        passes = len(times)
        metrics = {name: statistics.median(p[name] for p in per_pass)
                   for name in per_pass[0]}
        metrics["import.s"] = import_s
        metrics["cluster.trace.s"] = setup_totals["cluster.trace"][1]
        metrics["serving.registry.s"] = setup_totals["serving.registry"][1]
        metrics["telemetry.overhead_s"] = (
            statistics.median(run_times) - statistics.median(plain_times)
            if plain_times else 0.0)
        metrics["bench.untraced_pass_s"] = statistics.median(untraced)
        metrics["bench.trace_overhead_s"] = (
            metrics["bench.traced_pass_s"] - metrics["bench.untraced_pass_s"])
        tracer.write(os.path.join(os.path.dirname(args.workdir),
                                  f"spans-{args.workload}.json"),
                     {"setup": setup_spans, "last_pass": tracer.spans})

    checks = workload.check(result)
    if differing:
        checks.problems.append(
            f"{differing} of {passes} passes gave another summary than "
            "the warm-up pass")
    out = {
        "correct": not checks.problems,
        "attempted": passes * workload.requests,
        "failed": passes * len(checks.bad_ids),
        "problems": checks.problems,
        "reference": workload.reference(result),
        "passes": passes,
        "raw": raw,
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
