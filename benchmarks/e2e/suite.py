"""The four benchmark workloads, driven through the simulator's API.

The calls are public except for the crash campaigns' ``_build_service``
and ``_build_twopc`` helpers, which ``crash-sweep`` uses so its clean
subjects are exactly the ones the campaigns' crash cases rebuild.

Each workload is built from ``(seed, size)`` alone and offers:

* :meth:`probe` — build the workload's first subject without running
  it (what the fresh-interpreter set-up probes time);
* :meth:`run_pass` — one complete, deterministic pass, with every call
  into the simulator inside a :class:`~spans.Spans` span; it returns a
  :class:`PassResult` whose simulated outputs must repeat exactly on
  every pass;
* :meth:`finish_run` — once-per-process extras that would distort the
  timed passes, such as attaching a cycle profiler.

Caches start empty in every workload: each subject is built on a fresh
machine and nothing is warmed before the timed calls.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.common.errors import RecoveryError
from repro.common.stats import SimStats
from repro.core.machine import Machine
from repro.core.schemes import scheme_by_name
from repro.fuzz import campaign as fuzz_campaign
from repro.fuzz import twopc as fuzz_twopc
from repro.harness.metrics import geomean
from repro.harness.runner import run_workload
from repro.obs.histogram import LogHistogram, merge_all
from repro.obs.profiler import CycleProfiler
from repro.runtime.hints import MANUAL
from repro.runtime.ptx import PTx
from repro.service.admission import AdmissionPolicy
from repro.service.rm import ReadConsistencyError
from repro.service.server import ServiceConfig, TransactionService
from repro.service.tm import GroupCommitPolicy
from repro.shard.deployment import ShardedConfig, ShardedDeployment
from repro.workloads import KERNELS, WORKLOADS, generate_load, replay

#: Paper reference values (HPCA 2023, Figure 8 and Figure 10).
PAPER_SPEEDUP_256 = 1.57  # calibrated: the cost model was fitted to it
PAPER_SPEEDUP_16 = 1.22  # held out from calibration
PAPER_TRAFFIC_CUT = 0.35

#: The simulated phases reported as shares of all attributed cycles.
PHASES = (
    "execute",
    "log-append",
    "log-drain",
    "commit-persist",
    "wpq-stall",
    "forced-lazy",
    "prepare-persist",
    "decide-persist",
)

#: service-read: the simulated p99 latency limit at its offered load.
LATENCY_LIMIT_CYCLES = 100_000
#: service-read: the p99 is reported only with this many samples above it.
MIN_BEYOND_P99 = 10
#: service-read: serving may end at most this far past the horizon.
BACKLOG_SLACK = 0.01


@dataclass
class PassResult:
    """What one pass did: operations, failures, simulated outputs."""

    #: Operations attempted (inserts, requests or crash cases).
    ops: int
    #: Operations that failed: shed or aborted requests, inserts into a
    #: subject that failed verification, crash-case violations.
    failed: int = 0
    #: Correctness checks that did not hold (empty when all passed).
    problems: List[str] = field(default_factory=list)
    #: Deterministic simulated metrics.
    sim: Dict[str, float] = field(default_factory=dict)
    #: Every simulated output of the pass, hashed into ``sim_sha256``.
    blob: Any = None
    #: Simulated instructions executed inside ``run`` spans.
    instructions: int = 0
    #: Per-layer host metrics the workload measures itself.
    host: Dict[str, float] = field(default_factory=dict)
    #: Informational values printed beside the metrics.
    info: Dict[str, Any] = field(default_factory=dict)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def beyond(hist: LogHistogram, value: int) -> int:
    """Samples in buckets lying wholly above *value*."""
    return sum(count for lo, _hi, count in hist.buckets() if lo > value)


def layer_sim(
    stats: SimStats, phases: Dict[str, int], ops: int
) -> Dict[str, float]:
    """Simulated per-layer metrics from merged stats and phase cycles."""
    total = sum(phases.values())
    out = {f"phase.{p}": _ratio(phases.get(p, 0), total) for p in PHASES}
    created = stats.log_records_created
    out.update(
        {
            "log.records_per_op": _ratio(created, ops),
            "log.coalesce_ratio": _ratio(stats.log_records_coalesced, created),
            "log.discarded_lazy_ratio": _ratio(
                stats.log_records_discarded_lazy, created
            ),
            "lazy.forced_ratio": _ratio(
                stats.lazy_lines_forced, stats.lazy_lines_deferred
            ),
            "l1.hit_rate": _ratio(stats.l1_hits, stats.l1_hits + stats.l1_misses),
            "l2.hit_rate": _ratio(stats.l2_hits, stats.l2_hits + stats.l2_misses),
            "l3.hit_rate": _ratio(stats.l3_hits, stats.l3_hits + stats.l3_misses),
            "mem.evictions_per_op": _ratio(
                stats.l1_evictions + stats.l2_evictions + stats.l3_evictions, ops
            ),
            "pm.log_bytes_share": _ratio(
                stats.pm_log_bytes_written, stats.pm_bytes_written
            ),
            "wpq.stall_cycles_per_op": _ratio(stats.wpq_stall_cycles, ops),
            "tx.aborts_per_op": _ratio(stats.aborts, ops),
        }
    )
    return out


#: Metrics that only one workload produces; every other workload
#: reports them as 0 (that layer or headline does not apply there).
WORKLOAD_ONLY = (
    "speedup_vs_fg",
    "heldout_speedup_err",
    "traffic_cut_vs_fg",
    "latency_p50_cycles",
    "latency_p99_cycles",
    "acked_per_kcyc",
    "svc.batch_occupancy_mean",
    "svc.queue_depth_p99",
    "svc.commit_persist_cycles_per_write",
    "shard.decide_persist_cycles_per_xwrite",
    "shard.xshard_share",
    "fuzz.persist_coverage",
    "fuzz.violations",
    "fuzz.case_cost_ratio",
)


def _stats_sum(stats_list) -> SimStats:
    total = SimStats()
    for stats in stats_list:
        total.add(stats)
    return total


def _phases_sum(phase_dicts) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for phases in phase_dicts:
        for name, cycles in phases.items():
            total[name] = total.get(name, 0) + cycles
    return total


class Workload:
    """Base: a seeded workload at a named size."""

    name = ""
    #: What one operation of ``ops_per_s`` is.
    op_name = ""
    SIZES: Dict[str, Dict[str, Any]] = {}

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.knobs = self.SIZES[size]

    def probe(self) -> None:
        raise NotImplementedError

    def run_pass(self, spans) -> PassResult:
        raise NotImplementedError

    def finish_run(self, spans, first: PassResult) -> PassResult:
        """Once-per-process extras after the passes (*first* is the first
        pass); returns simulated values (``sim``) and any failed checks
        (``problems``)."""
        return PassResult(ops=0)


class Kernels(Workload):
    """Paper §VI-A YCSB-load over the four kernel structures."""

    name = "kernels"
    op_name = "inserts"
    SIZES = {"full": {"inserts": 1000}, "tiny": {"inserts": 20}}
    SCHEMES = ("FG", "SLPMT")
    VALUE_BYTES = (256, 16)

    def probe(self) -> None:
        machine = Machine(scheme_by_name(self.SCHEMES[0]))
        rt = PTx(machine, policy=MANUAL)
        WORKLOADS[KERNELS[0]](rt, value_bytes=self.VALUE_BYTES[0])

    def run_pass(self, spans) -> PassResult:
        n = self.knobs["inserts"]
        result = PassResult(ops=0)
        cells: Dict[str, Dict[str, Any]] = {}
        for value_bytes in self.VALUE_BYTES:
            ops = generate_load(n, value_bytes=value_bytes, seed=self.seed)
            for workload in KERNELS:
                for scheme in self.SCHEMES:
                    label = f"{workload}/{scheme}/{value_bytes}B"
                    with spans.span("setup", label):
                        machine = Machine(scheme_by_name(scheme))
                        rt = PTx(machine, policy=MANUAL)
                        subject = WORKLOADS[workload](rt, value_bytes=value_bytes)
                    instr0 = machine.stats.instructions
                    with spans.span("run", label):
                        replay(subject, ops)
                        machine.finalize()
                    result.instructions += machine.stats.instructions - instr0
                    result.ops += n
                    with spans.span("finish", label):
                        try:
                            subject.verify()
                        except RecoveryError as exc:
                            result.failed += n
                            result.problems.append(f"{label}: verify: {exc}")
                    cells[label] = {
                        "cycles": machine.now,
                        "stats": machine.stats.as_dict(),
                    }
        result.blob = cells

        def cycles(w, s, vb):
            return cells[f"{w}/{s}/{vb}B"]["cycles"]

        def pm(w, s, vb):
            return cells[f"{w}/{s}/{vb}B"]["stats"]["pm_bytes_written"]

        big, small = self.VALUE_BYTES
        speedup = geomean(cycles(w, "FG", big) / cycles(w, "SLPMT", big) for w in KERNELS)
        speedup16 = geomean(
            cycles(w, "FG", small) / cycles(w, "SLPMT", small) for w in KERNELS
        )
        traffic = 1.0 - geomean(pm(w, "SLPMT", big) / pm(w, "FG", big) for w in KERNELS)
        inserts = n * len(KERNELS)
        result.sim = {
            "cycles_per_op": sum(cycles(w, "SLPMT", big) for w in KERNELS) / inserts,
            "pm_bytes_per_op": sum(pm(w, "SLPMT", big) for w in KERNELS) / inserts,
            "speedup_vs_fg": speedup,
            "heldout_speedup_err": abs(speedup16 - PAPER_SPEEDUP_16) / PAPER_SPEEDUP_16,
            "traffic_cut_vs_fg": traffic,
        }
        result.info = {
            "speedup_vs_fg": f"{speedup:.3f}x (paper {PAPER_SPEEDUP_256}x, calibrated)",
            "speedup_16B": f"{speedup16:.3f}x (paper {PAPER_SPEEDUP_16}x, held out)",
            "traffic_cut_vs_fg": f"{traffic:.3f} (paper ~{PAPER_TRAFFIC_CUT})",
        }
        return result

    def finish_run(self, spans, first: PassResult) -> PassResult:
        """Phase shares of the SLPMT 256 B cells: the same runs again with
        a cycle profiler attached, kept out of the timed passes so the
        kernels rate never pays for ``obs``."""
        n = self.knobs["inserts"]
        value_bytes = self.VALUE_BYTES[0]
        extra = PassResult(ops=0)
        stats, phases = [], []
        for workload in KERNELS:
            label = f"{workload}/SLPMT/{value_bytes}B"
            profiler = CycleProfiler()
            with spans.span("finish", f"profile {label}"):
                run = run_workload(
                    workload,
                    scheme_by_name("SLPMT"),
                    policy=MANUAL,
                    value_bytes=value_bytes,
                    num_ops=n,
                    seed=self.seed,
                    verify=False,  # the timed pass verified this subject
                    profiler=profiler,
                )
            timed = first.blob[label]
            if run.cycles != timed["cycles"] or run.stats.as_dict() != timed["stats"]:
                extra.problems.append(f"{label}: profiled run diverged from the timed run")
            if profiler.total_cycles() != run.cycles:
                extra.problems.append(f"{label}: phases do not sum to the cycle count")
            stats.append(run.stats)
            phases.append(profiler.phase_cycles)
        extra.sim = layer_sim(_stats_sum(stats), _phases_sum(phases), n * len(KERNELS))
        extra.blob = {"phases": phases}
        return extra


class ServiceRead(Workload):
    """One transaction service under a read-heavy open loop."""

    name = "service-read"
    op_name = "requests"
    SIZES = {"full": {"duration": 100_000_000}, "tiny": {"duration": 6_000_000}}
    MIX = {"get": 0.60, "put": 0.25, "scan": 0.05, "txn": 0.10}

    def config(self) -> ServiceConfig:
        return ServiceConfig(
            workload="hashtable",
            scheme="SLPMT",
            num_clients=8,
            value_bytes=64,
            num_keys=1024,
            theta=0.9,
            mix=dict(self.MIX),
            mode="open",
            target_load=0.25,
            duration_cycles=self.knobs["duration"],
            batch=GroupCommitPolicy(batch_size=8),
            # Block, not shed: a full queue delays arrivals, and latency
            # counts from each request's due time, so the delay shows.
            admission=AdmissionPolicy(mode="block"),
            keep_responses=False,
            seed=self.seed,
        )

    def probe(self) -> None:
        TransactionService(self.config())

    def run_pass(self, spans) -> PassResult:
        cfg = self.config()
        result = PassResult(ops=0)
        with spans.span("setup", "TransactionService"):
            svc = TransactionService(cfg)
        start = svc.machine.now
        pm0 = svc.machine.stats.pm_bytes_written
        instr0 = svc.machine.stats.instructions
        with spans.span("run", "serve"):
            try:
                svc.serve()
            except ReadConsistencyError as exc:
                result.problems.append(f"serve: read check: {exc}")
        result.instructions = svc.machine.stats.instructions - instr0
        with spans.span("finish", "finish"):
            try:
                svc.finish()
            except RecoveryError as exc:
                result.problems.append(f"finish: verify: {exc}")
            r = svc.result()
        result.ops = r.requests
        result.failed = r.requests - r.acked
        served = r.cycles - start
        hist = r.latency
        p50, p99 = hist.p50, hist.p99
        tail = beyond(hist, p99)
        if served > cfg.duration_cycles * (1 + BACKLOG_SLACK):
            result.problems.append(
                f"backlog: serving ended {served - cfg.duration_cycles} cycles "
                f"past the {cfg.duration_cycles}-cycle horizon"
            )
        if tail < MIN_BEYOND_P99:
            result.problems.append(
                f"latency: only {tail} samples beyond p99 (need {MIN_BEYOND_P99})"
            )
        if p99 > LATENCY_LIMIT_CYCLES:
            result.problems.append(
                f"latency: p99 {p99} cycles over the {LATENCY_LIMIT_CYCLES} limit"
            )
        result.sim = {
            "cycles_per_op": _ratio(served, r.requests),
            "pm_bytes_per_op": _ratio(r.pm_bytes - pm0, r.requests),
            "latency_p50_cycles": p50,
            "latency_p99_cycles": p99,
            "acked_per_kcyc": _ratio(r.acked * 1000, served),
            "svc.batch_occupancy_mean": r.batch_occupancy.mean(),
            "svc.queue_depth_p99": r.queue_depth.p99,
            "svc.commit_persist_cycles_per_write": r.commit_persist_per_write,
        }
        result.sim.update(layer_sim(r.stats, r.phases, r.requests))
        result.blob = {
            "result": {
                k: v
                for k, v in dataclasses.asdict(r).items()
                if k not in ("latency", "batch_occupancy", "queue_depth", "responses")
            },
            "latency": hist.to_dict(),
            "batch_occupancy": r.batch_occupancy.to_dict(),
            "queue_depth": r.queue_depth.to_dict(),
            "start": start,
        }
        result.info = {
            "latency_samples": hist.count,
            "beyond_p99": tail,
            "latency_limit": f"p99 <= {LATENCY_LIMIT_CYCLES} cycles at 0.25 req/kcyc",
            "served_vs_horizon": round(served / cfg.duration_cycles, 6),
        }
        return result


class Sharded2PC(Workload):
    """A 4-shard deployment under saturating cross-shard traffic."""

    name = "sharded-2pc"
    op_name = "requests"
    SIZES = {"full": {"requests": 1500}, "tiny": {"requests": 40}}
    MIX = {"put": 0.40, "get": 0.20, "scan": 0.05, "txn": 0.35}

    def config(self) -> ShardedConfig:
        return ShardedConfig(
            num_shards=4,
            workload="hashtable",
            scheme="SLPMT",
            num_clients=6,
            requests_per_client=self.knobs["requests"],
            value_bytes=32,
            num_keys=256,
            theta=0.6,
            mix=dict(self.MIX),
            txn_keys=4,
            arrival_cycles=800,
            batch=GroupCommitPolicy(batch_size=8),
            seed=self.seed,
        )

    def probe(self) -> None:
        ShardedDeployment(self.config())

    def run_pass(self, spans) -> PassResult:
        result = PassResult(ops=0)
        with spans.span("setup", "ShardedDeployment"):
            dep = ShardedDeployment(self.config())
        machines = [m for _, m in dep.all_machines()]
        instr0 = sum(m.stats.instructions for m in machines)
        cycles0 = sum(m.now for m in machines)
        pm0 = sum(m.stats.pm_bytes_written for m in machines)
        with spans.span("run", "serve"):
            try:
                dep.serve()
            except ReadConsistencyError as exc:
                result.problems.append(f"serve: read check: {exc}")
        result.instructions = sum(m.stats.instructions for m in machines) - instr0
        with spans.span("finish", "finish"):
            try:
                dep.finish()
            except RecoveryError as exc:
                result.problems.append(f"finish: verify: {exc}")
            r = dep.result()
        result.ops = r.requests
        result.failed = r.requests - r.acked
        local_writes = r.committed_writes - r.xshard_commits
        result.sim = {
            "cycles_per_op": _ratio(r.cycles - cycles0, r.requests),
            "pm_bytes_per_op": _ratio(r.pm_bytes - pm0, r.requests),
            "svc.batch_occupancy_mean": _ratio(local_writes, r.batches),
            "svc.commit_persist_cycles_per_write": _ratio(
                r.phases.get("commit-persist", 0), r.committed_writes
            ),
            "shard.decide_persist_cycles_per_xwrite": r.decide_persist_per_xwrite,
            "shard.xshard_share": _ratio(r.xshard_commits, r.committed_writes),
        }
        result.sim.update(layer_sim(r.stats, r.phases, r.requests))
        result.blob = {
            "result": dataclasses.asdict(dataclasses.replace(r, responses=[])),
            "responses": [dataclasses.astuple(x) for x in r.responses],
        }
        result.info = {
            "xshard_commits": r.xshard_commits,
            "aborted": r.aborted,
            "latency": "not reported: idle shard clocks lag arrivals",
        }
        return result


class CrashSweep(Workload):
    """The service and 2PC crash campaigns' cells on stress caches.

    The cells run at :data:`SEEDS` seeds derived from the workload seed,
    splitting the budget, so one seed's subject size does not set the
    case rate.  Each pass also builds, serves and finishes a pool of
    clean pairs of the cells' subjects at those derived seeds.  The
    first :data:`SEEDS` pairs are the ones the cells' crash cases
    rebuild: they must match the cells' own clean runs, and their host
    seconds are the baseline of ``fuzz.case_cost_ratio``.  The whole
    pool gives the simulated metrics."""

    name = "crash-sweep"
    op_name = "crash cases"
    #: ``budget`` per cell and seed: 600 cases per pass at full size, so
    #: that a traced run (one plain and one profiled pass) ends well
    #: within 180 s on a host slowed twofold.
    #: ``pool``: clean subject pairs per pass, at least :data:`SEEDS`.  One
    #: pair serves only 128 requests, too few for per-request averages
    #: that hold still from seed to seed (over ten seeds, 16 pairs spread
    #: ~4% and 48 pairs ~2%).
    SIZES = {"full": {"budget": 100, "pool": 48}, "tiny": {"budget": 4, "pool": 3}}
    SEEDS = 3
    #: Batch 1, not the campaign's batch 8: at batch 8 seed 5 trips an
    #: undo-logging defect (a durable undo record holding an old value
    #: written earlier in the same transaction; see the README), and a
    #: benchmark must run clean on every seed.
    SERVICE_CELL = fuzz_campaign.ServiceCell("hashtable", "SLPMT", 1)
    TWOPC_CELL = fuzz_twopc.TwoPCCell("hashtable", "SLPMT", 2, "crash")
    #: The cells' own default traffic sizes, passed explicitly so the
    #: clean subjects are the ones the cells build.
    SERVICE_SIZE = {"num_clients": 5, "requests_per_client": 16, "value_bytes": 32}
    TWOPC_SIZE = {"num_clients": 4, "requests_per_client": 12, "value_bytes": 32}

    def _seed(self, k: int) -> int:
        return self.seed + k * 100_003

    def probe(self) -> None:
        fuzz_campaign._build_service(
            self.SERVICE_CELL, seed=self.seed, config=fuzz_campaign.STRESS_CONFIG,
            **self.SERVICE_SIZE,
        )

    def run_pass(self, spans) -> PassResult:
        budget = self.knobs["budget"]
        config = fuzz_campaign.STRESS_CONFIG
        cells = []  # (service report, its seconds, 2PC report, its seconds)
        for k in range(self.SEEDS):
            with spans.span("run", f"run_service_cell {k}") as svc_cell:
                svc_report = fuzz_campaign.run_service_cell(
                    self.SERVICE_CELL, budget=budget, seed=self._seed(k), config=config,
                    **self.SERVICE_SIZE,
                )
            with spans.span("run", f"run_twopc_cell {k}") as tpc_cell:
                tpc_report = fuzz_twopc.run_twopc_cell(
                    self.TWOPC_CELL, budget=budget, seed=self._seed(k), config=config,
                    **self.TWOPC_SIZE,
                )
            cells.append((svc_report, svc_cell.seconds, tpc_report, tpc_cell.seconds))
        reports = [report for a, _, b, _ in cells for report in (a, b)]
        violations = [str(v) for report in reports for v in report.violations]
        result = PassResult(
            ops=sum(report.cases_run for report in reports), failed=len(violations)
        )
        result.problems = [f"violation: {v}" for v in violations[:5]]

        svc_runs, tpc_runs = [], []
        cycles = pm_bytes = instructions = 0
        clean_s = []  # (build + serve + finish seconds, serve + finish seconds)
        for k in range(self.knobs["pool"]):
            with spans.span("setup", f"clean subjects {k}") as built:
                svc = fuzz_campaign._build_service(
                    self.SERVICE_CELL, seed=self._seed(k), config=config, **self.SERVICE_SIZE
                )
                dep = fuzz_twopc._build_twopc(
                    self.TWOPC_CELL, seed=self._seed(k), config=config, **self.TWOPC_SIZE
                )
            machines = [svc.machine] + [m for _, m in dep.all_machines()]
            before = [(m.now, m.stats.pm_bytes_written, m.stats.instructions) for m in machines]
            with spans.span("finish", f"clean runs {k}") as ran:
                for subject in (svc, dep):
                    subject.serve()
                    subject.finish()
            clean_s.append((built.seconds + ran.seconds, ran.seconds))
            r, d = svc.result(), dep.result()
            # Results snapshot cycles and PM bytes at the end of serving.
            cycles += r.cycles + d.cycles - sum(c0 for c0, _, _ in before)
            pm_bytes += r.pm_bytes + d.pm_bytes - sum(pm0 for _, pm0, _ in before)
            instructions += sum(m.stats.instructions - i0 for m, (_, _, i0) in zip(machines, before))
            svc_runs.append(r)
            tpc_runs.append(d)
        for (a, _, b, _), r, d in zip(cells, svc_runs, tpc_runs):
            if (r.requests, r.acked, r.batches, d.requests, d.acked, d.xshard_commits) != (
                a.num_requests, a.acked, a.batches, b.num_requests, b.acked, b.xshard_commits,
            ):
                result.problems.append("clean subjects differ from the cells' clean runs")

        runs = svc_runs + tpc_runs
        requests = sum(x.requests for x in runs)
        committed = sum(x.committed_writes for x in svc_runs)
        persist_run = sum(report.persist_points_run for report in reports)
        persist_total = sum(report.persist_points_total for report in reports)
        phases = _phases_sum(x.phases for x in runs)
        result.sim = {
            "cycles_per_op": _ratio(cycles, requests),
            "pm_bytes_per_op": _ratio(pm_bytes, requests),
            "svc.batch_occupancy_mean": _ratio(committed, sum(x.batches for x in svc_runs)),
            "svc.queue_depth_p99": merge_all(x.queue_depth for x in svc_runs).p99,
            "svc.commit_persist_cycles_per_write": _ratio(
                sum(x.commit_persist_cycles for x in svc_runs), committed
            ),
            "shard.decide_persist_cycles_per_xwrite": _ratio(
                sum(x.decide_persist_cycles for x in tpc_runs),
                sum(x.xshard_writes for x in tpc_runs),
            ),
            "shard.xshard_share": _ratio(
                sum(x.xshard_commits for x in tpc_runs),
                sum(x.committed_writes for x in tpc_runs),
            ),
            "fuzz.persist_coverage": _ratio(persist_run, persist_total),
            "fuzz.violations": len(violations),
        }
        result.sim.update(layer_sim(_stats_sum(x.stats for x in runs), phases, requests))
        result.blob = {
            "cells": [dataclasses.asdict(report) for report in reports],
            "stats": [x.stats.as_dict() for x in runs],
            "phases": phases,
        }
        # One average case of each cell over one clean run of both of
        # its subjects: how much of a run every crash case re-executes.
        per_case = sum(
            _ratio(a_s, a.cases_run) + _ratio(b_s, b.cases_run) for a, a_s, b, b_s in cells
        )
        result.host = {
            "fuzz.case_cost_ratio": _ratio(per_case, sum(c for c, _ in clean_s[: self.SEEDS])),
            "sim_instr_per_s": _ratio(instructions, sum(ran for _, ran in clean_s)),
        }
        result.info = {
            "cases": " + ".join(
                f"{a.cases_run} service + {b.cases_run} 2pc" for a, _, b, _ in cells
            ),
            "persist_points": f"{persist_run}/{persist_total}",
            "clean_subjects": f"{len(runs) // 2} pairs, {requests} requests",
        }
        return result


SUITE = {w.name: w for w in (Kernels, ServiceRead, Sharded2PC, CrashSweep)}
