"""The four replay workloads: inputs, one timed pass, and output checks.

Every input is generated from the run's seed. The program receives only
those inputs: a trace (``generate_diurnal_trace`` arrivals, or the
JSONL file ``fifo_replay`` writes before its set-up and reads back with
``load_trace``) and a ``synthetic_registry`` of seeded task profiles.
Entry points are looked up on their modules at call time (``cluster.
load_trace``, not a name bound at import), so the layer tracer's
wrappers see every call this file makes.

A pass is what a user replaying a trace waits for: the simulator run
plus ``summary()`` (plus ``analyze()`` on ``telemetry_replay``). The
checks compare each report against a separate computation or a
property the model must have, never against stored output.
"""

import json
import math
import os
import time

import numpy as np

import repro.cluster as cluster
import repro.config as config
import repro.fleet as fleet
import repro.fleet.__main__ as fleet_cli
import repro.serving as serving
import repro.telemetry as telemetry
import repro.telemetry.analysis as analysis

#: Absolute tolerance of the energy-ledger and journey-tiling checks,
#: the same one the program's own reconcilers use.
TOL = 1e-9
N_SENTENCES = 64


class Pass:
    """What one pass hands back: the report and the numbers around it."""

    def __init__(self, report, summary, run_s, batches, spans=0, alerts=0,
                 journeys=None):
        self.report = report
        self.summary = summary
        self.run_s = run_s
        self.batches = batches
        self.spans = spans
        self.alerts = alerts
        self.journeys = journeys


class Checks:
    """Run-level problems plus the request ids that broke a check."""

    def __init__(self):
        self.problems = []
        self.bad_ids = set()

    def run_level(self, ok, message):
        if not ok:
            self.problems.append(message)

    def per_request(self, request_id, ok):
        if not ok:
            self.bad_ids.add(request_id)


def _registry(seed):
    return serving.synthetic_registry(config.GLUE_TASKS, n=N_SENTENCES,
                                      seed=seed)


def _canonical(summary):
    return json.dumps(summary, sort_keys=True)


def _agree(a, b, tol):
    """Same structure and integers; floats within ``tol`` relative."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_agree(a[k], b[k], tol) for k in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(_agree(x, y, tol) for x, y in zip(a, b)))
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
    return a == b


# -- checks shared by the cluster workloads -----------------------------------


def check_each_once(checks, records, by_id):
    """Every trace request appears exactly once among ``records``."""
    seen = {}
    for rec in records:
        rid = rec.request.request_id
        seen[rid] = seen.get(rid, 0) + 1
    for rid in by_id:
        checks.per_request(rid, seen.get(rid, 0) == 1)
    checks.run_level(set(seen) <= set(by_id),
                     "report holds requests not in the trace")


def check_cluster_report(checks, report, trace):
    """Conservation, per-record timing and energy ledgers of one report."""
    by_id = {r.request_id: r for r in trace}
    check_each_once(checks, report.records, by_id)
    for rec in report.records:
        rid = rec.request.request_id
        request = by_id.get(rid)
        if request is None:
            continue
        in_system = rec.completion_ms - request.arrival_ms
        checks.per_request(
            rid,
            abs(rec.time_in_system_ms - in_system) <= TOL
            and rec.completion_ms - rec.dispatch_ms
            >= rec.result.latency_ms - TOL)
    check_cluster_energy(checks, report, "cluster")


def check_cluster_energy(checks, report, label):
    """The benchmark's own sums against the report's energy ledgers."""
    energy = report.energy
    by_device = math.fsum(d.compute_mj + d.swap_mj + d.idle_mj
                          + d.transition_mj for d in report.device_energy)
    checks.run_level(abs(by_device - energy.total_mj) <= TOL,
                     f"{label}: device categories sum to {by_device!r} "
                     f"mJ, ledger total {energy.total_mj!r} mJ")
    computed = {a.accel_id: [a.wasted_energy_mj]
                for a in report.accelerators}
    for rec in report.records:
        computed[rec.accel_id].append(rec.result.energy_mj)
    for device in report.device_energy:
        own = math.fsum(computed[device.accel_id])
        checks.run_level(
            abs(own - device.compute_mj) <= TOL,
            f"{label}: device {device.accel_id} records sum to {own!r} "
            f"mJ of compute, ledger {device.compute_mj!r} mJ")
    records = math.fsum(rec.result.energy_mj for rec in report.records) \
        + report.wasted_energy_mj
    checks.run_level(abs(records - energy.compute_mj) <= TOL,
                     f"{label}: record compute energies sum to "
                     f"{records!r} mJ, ledger {energy.compute_mj!r} mJ")
    swaps = math.fsum(a.swap_energy_mj for a in report.accelerators)
    checks.run_level(abs(swaps - energy.swap_mj) <= TOL,
                     f"{label}: device swaps sum to {swaps!r} mJ, "
                     f"ledger {energy.swap_mj!r} mJ")


def cluster_reference(report):
    """Simulated statistics printed for reference (not metrics)."""
    times = report.times_in_system_ms()
    return {
        "energy_j_per_request":
            report.energy.total_mj * 1e-3 / report.num_requests,
        "p99_time_in_system_ms": float(np.percentile(times, 99)),
        "deadline_misses": int(report.deadline_violations),
    }


# -- workloads ----------------------------------------------------------------


class Workload:
    """One named workload; subclasses set the traffic and the pass."""

    name = None
    #: Requests per pass.
    requests = None
    #: Mean gap between arrivals, and the modes requests draw from
    #: (None inherits the simulator's mode).
    interarrival_ms = None
    modes = (None,)

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir
        self.trace = None
        self.registry = None

    def prepare(self):
        """Work done before the set-up clock starts (in its own process)."""

    def setup(self):
        """Load or generate the trace and build the registry."""
        self.trace = self.generate()
        self.registry = _registry(self.seed)

    def generate(self):
        return cluster.generate_diurnal_trace(
            self.requests, seed=self.seed,
            mean_interarrival_ms=self.interarrival_ms, modes=self.modes)

    def run_pass(self):
        raise NotImplementedError

    def check(self, result):
        raise NotImplementedError

    def reference(self, result):
        return cluster_reference(result.report)


class FifoPool(Workload):
    """A 64-device FIFO pool at ~10 requests per simulated ms."""

    devices = 64
    interarrival_ms = 0.1

    def simulator(self, **kwargs):
        return cluster.ClusterSimulator(
            self.registry, num_accelerators=self.devices, policy="fifo",
            **kwargs)


class FifoReplay(FifoPool):
    """The CLI replay path: JSONL trace, FIFO pool, vector core."""

    name = "fifo_replay"
    requests = 50_000
    #: Requests replayed by the cross-engine check.
    prefix = 1500

    @property
    def trace_path(self):
        return os.path.join(self.workdir, f"trace-{self.seed}.jsonl")

    def prepare(self):
        cluster.save_trace_jsonl(self.generate(), self.trace_path)

    def setup(self):
        self.trace = cluster.load_trace(self.trace_path)
        self.registry = _registry(self.seed)

    def run_pass(self):
        sim = self.simulator()
        start = time.perf_counter()
        report = sim.run(self.trace)
        run_s = time.perf_counter() - start
        return Pass(report, report.summary(), run_s, report.num_batches)

    def check(self, result):
        checks = Checks()
        check_cluster_report(checks, result.report, self.trace)
        checks.run_level(self.trace == self.generate(),
                         "trace read back with load_trace differs from "
                         "the generated trace")
        # The oracle prices with the scalar kernels, which agree with the
        # vectorized ones to float epsilon, not bit for bit; the
        # per-event loop on the vectorized kernels must agree exactly.
        prefix = self.trace[:self.prefix]
        vector = self.simulator().run(prefix).summary()
        event = self.simulator(engine="event").run(prefix).summary()
        oracle = self.simulator(engine="oracle").run(prefix).summary()
        checks.run_level(_agree(oracle, vector, TOL),
                         "vector core and oracle disagree on a "
                         f"{len(prefix)}-request prefix")
        checks.run_level(_canonical(event) == _canonical(vector),
                         "vector core and per-event loop disagree on a "
                         f"{len(prefix)}-request prefix")
        return checks


class GovernorDeadline(Workload):
    """Energy governor with deadline-aware DVFS on a mixed pool."""

    name = "governor_deadline"
    requests = 2_000
    #: Eight devices each of MAC vector sizes 32, 16, 16 and 8.
    mac_sizes = (32,) * 8 + (16,) * 16 + (8,) * 8
    #: ~4 requests per simulated ms.
    interarrival_ms = 0.25
    modes = ("base", "lai")

    def run_pass(self):
        sim = cluster.ClusterSimulator(
            self.registry,
            hw_configs=tuple(config.HwConfig(mac_vector_size=n)
                             for n in self.mac_sizes),
            policy="energy", deadline_aware=True)
        start = time.perf_counter()
        report = sim.run(self.trace)
        run_s = time.perf_counter() - start
        return Pass(report, report.summary(), run_s, report.num_batches)

    def check(self, result):
        checks = Checks()
        report = result.report
        check_cluster_report(checks, report, self.trace)
        # A device runs one batch at a time: group records into batches
        # by (device, dispatch instant); on each device every batch
        # starts no earlier than the previous one's last completion.
        batches = {}
        for rec in report.records:
            key = (rec.accel_id, rec.dispatch_ms)
            end = batches.get(key, rec.completion_ms)
            batches[key] = max(end, rec.completion_ms)
        last_end = {}
        for (accel, start), end in sorted(batches.items()):
            prev = last_end.get(accel)
            checks.run_level(
                prev is None or start >= prev - TOL,
                f"device {accel}: batch at {start!r} ms starts before "
                f"the previous one ends at {prev!r} ms")
            last_end[accel] = end
        return checks


class FleetDefaults(Workload):
    """The reference 3-site fleet at SiteConfig defaults."""

    name = "fleet_defaults"
    requests = 2_000
    #: ~1 request per simulated ms.
    interarrival_ms = 1.0
    modes = ("base", "lai")
    #: Requests replayed by the front-end check (the per-event front end
    #: is the slow reference path).
    prefix = 600

    def setup(self):
        super().setup()
        self.sites = fleet_cli.reference_fleet()

    def orchestrator(self, **kwargs):
        return fleet.FleetOrchestrator(
            self.registry, self.sites, routing="energy",
            autoscaler=fleet.FleetAutoscaler(), **kwargs)

    def run_pass(self):
        orchestrator = self.orchestrator()
        start = time.perf_counter()
        report = orchestrator.run(self.trace)
        run_s = time.perf_counter() - start
        return Pass(report, report.summary(), run_s,
                    sum(s.report.num_batches for s in report.sites))

    def check(self, result):
        checks = Checks()
        report = result.report
        by_id = {r.request_id: r for r in self.trace}
        rtt = {c.site_id: c.rtt_ms for c in self.sites}
        check_each_once(checks, report.records, by_id)
        for rec in report.records:
            rid = rec.request.request_id
            request = by_id.get(rid)
            if request is None:
                continue
            site = rec.site_record
            completion = site.completion_ms + rtt[rec.site_id] / 2.0
            checks.per_request(
                rid,
                abs(rec.completion_ms - completion) <= TOL
                and abs(rec.time_in_system_ms
                        - (completion - request.arrival_ms)) <= TOL
                and site.completion_ms - site.dispatch_ms
                >= site.result.latency_ms - TOL)
        for outcome in report.sites:
            served = {rec.request.request_id
                      for rec in outcome.report.records}
            routed = {rec.request.request_id for rec in report.records
                      if rec.site_id == outcome.site_id}
            checks.run_level(served == routed,
                             f"site {outcome.site_id} served other "
                             "requests than were routed to it")
            check_cluster_energy(checks, outcome.report, outcome.site_id)
        total = math.fsum(o.report.energy.total_mj for o in report.sites)
        checks.run_level(abs(total - report.total_energy_mj) <= TOL,
                         f"site totals sum to {total!r} mJ, fleet total "
                         f"{report.total_energy_mj!r} mJ")
        prefix = self.trace[:self.prefix]
        bulk = self.orchestrator().run(prefix).summary()
        event = self.orchestrator(front_end="event").run(prefix).summary()
        checks.run_level(_canonical(bulk) == _canonical(event),
                         "event and default front ends disagree on a "
                         f"{len(prefix)}-request prefix")
        return checks

    def reference(self, result):
        report = result.report
        times = report.times_in_system_ms()
        return {
            "energy_j_per_request":
                report.total_energy_mj * 1e-3 / report.num_requests,
            "p99_time_in_system_ms": float(np.percentile(times, 99)),
            "deadline_misses": int(report.deadline_violations),
        }


class TelemetryReplay(FifoPool):
    """The fifo pool with tracer, metrics and monitor, then analyze()."""

    name = "telemetry_replay"
    requests = 20_000

    def run_pass(self):
        tracer = telemetry.Tracer()
        metrics = telemetry.MetricsRegistry()
        monitor = telemetry.TelemetryMonitor(telemetry.default_rules(),
                                             registry=metrics)
        sim = self.simulator(tracer=tracer, metrics=metrics,
                             monitor=monitor)
        start = time.perf_counter()
        report = sim.run(self.trace)
        run_s = time.perf_counter() - start
        summary = report.summary()
        stitched = analysis.analyze(tracer)
        return Pass(report, summary, run_s, report.num_batches,
                    spans=tracer.emitted, alerts=monitor.num_alerts,
                    journeys=stitched.journeys)

    def plain_run_s(self):
        """Seconds of the same replay's ``run()`` with no telemetry."""
        sim = self.simulator()
        start = time.perf_counter()
        sim.run(self.trace)
        return time.perf_counter() - start

    def check(self, result):
        checks = Checks()
        report = result.report
        check_cluster_report(checks, report, self.trace)
        plain = self.simulator().run(self.trace)
        checks.run_level(
            _canonical(plain.summary()) == _canonical(result.summary),
            "telemetry changed the replay's summary")
        checks.run_level(
            [(r.request.request_id, r.accel_id, r.dispatch_ms,
              r.completion_ms) for r in plain.records]
            == [(r.request.request_id, r.accel_id, r.dispatch_ms,
                 r.completion_ms) for r in report.records],
            "telemetry changed the replay's records")
        completion = {r.request.request_id: r.completion_ms
                      for r in report.records}
        arrival = {r.request_id: r.arrival_ms for r in self.trace}
        journeys = result.journeys
        checks.run_level(len(journeys) == len(self.trace),
                         f"{len(journeys)} journeys for "
                         f"{len(self.trace)} requests")
        for journey in journeys:
            rid = journey.request_id
            legs = math.fsum(leg.end_ms - leg.start_ms
                             for leg in journey.legs)
            checks.per_request(
                rid,
                rid in completion and rid in arrival
                and journey.completion_ms == completion[rid]
                and abs(legs - (completion[rid] - arrival[rid])) <= TOL)
        return checks


WORKLOADS = {w.name: w for w in (FifoReplay, GovernorDeadline,
                                 FleetDefaults, TelemetryReplay)}
