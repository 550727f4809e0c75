"""Experiment runner: one (workload, scheme, knobs) simulation per call.

Every figure in the evaluation is a sweep over this function.  Results
are memoised per process — several figures share corner points (e.g. the
256-byte kernel runs appear in Figures 8, 10, 11 and 12), so the bench
suite does each unique simulation once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.config import DEFAULT_CONFIG, SystemConfig
from repro.common.stats import SimStats
from repro.core.machine import Machine
from repro.core.schemes import Scheme, scheme_by_name
from repro.runtime.hints import MANUAL, AnnotationPolicy
from repro.runtime.ptx import PTx
from repro.workloads import WORKLOADS, generate_load, generate_streams, replay
from repro.workloads.shared import replay_contention


@dataclass(frozen=True)
class RunResult:
    """Headline metrics of one simulated benchmark run."""

    workload: str
    scheme: str
    policy: str
    value_bytes: int
    num_ops: int
    cycles: int
    pm_bytes: int
    pm_log_bytes: int
    pm_data_bytes: int
    stats: SimStats

    @property
    def cycles_per_op(self) -> float:
        return self.cycles / self.num_ops


def run_workload(
    workload: str,
    scheme: Scheme,
    *,
    policy: AnnotationPolicy = MANUAL,
    value_bytes: int = 256,
    num_ops: int = 1000,
    config: SystemConfig = DEFAULT_CONFIG,
    seed: int = 2023,
    verify: bool = True,
    tracer=None,
    profiler=None,
) -> RunResult:
    """Simulate a ycsb-load run of *workload* under *scheme*.

    The annotation *policy* decides which storeT hints the program uses;
    the scheme independently decides which storeT semantics the hardware
    honours (FG/ATOM/EDE ignore them entirely), mirroring how the same
    annotated binary runs on every hardware configuration in the paper.

    *tracer* / *profiler* attach observability to the machine for this
    run; both are passive, so the returned metrics are identical with
    or without them (the caller keeps the references for reporting).
    """
    machine = Machine(scheme, config)
    if tracer is not None:
        machine.tracer = tracer
    if profiler is not None:
        profiler.bind(machine.now)
        machine.profiler = profiler
    rt = PTx(machine, policy=policy)
    wl = WORKLOADS[workload](rt, value_bytes=value_bytes)
    ops = generate_load(num_ops, value_bytes=value_bytes, seed=seed)
    replay(wl, ops)
    machine.finalize()
    if verify:
        wl.verify()
    stats = machine.stats.copy()
    return RunResult(
        workload=workload,
        scheme=scheme.name,
        policy=policy.name,
        value_bytes=value_bytes,
        num_ops=num_ops,
        cycles=machine.now,
        pm_bytes=stats.pm_bytes_written,
        pm_log_bytes=stats.pm_log_bytes_written,
        pm_data_bytes=stats.pm_data_bytes_written,
        stats=stats,
    )


@dataclass(frozen=True)
class ContentionResult:
    """Headline metrics of one shared-key contention run (N cores)."""

    workload: str
    scheme: str
    cores: int
    theta: float
    value_bytes: int
    ops_per_core: int
    num_keys: int
    cycles: int
    pm_bytes: int
    conflicts: int
    aborts: int
    commits: int
    stats: SimStats

    @property
    def cycles_per_op(self) -> float:
        return self.cycles / (self.ops_per_core * self.cores)


def run_contention(
    workload: str,
    scheme: "Scheme | str",
    *,
    cores: int = 2,
    theta: float = 0.0,
    ops_per_core: int = 100,
    num_keys: int = 32,
    value_bytes: int = 256,
    config: SystemConfig = DEFAULT_CONFIG,
    seed: int = 2023,
    verify: bool = True,
) -> ContentionResult:
    """Simulate a shared-key contention run: *cores* workers hammer one
    durable *workload* instance with zipfian(θ) key skew.

    Each operation gets
    :func:`~repro.workloads.shared.replay_contention`'s 512 transaction
    attempts.  The 1.x-era ``max_retries`` alias was removed with
    schema_version 2 as its deprecation warning scheduled; passing it
    is now a :class:`TypeError` like any unknown keyword.

    The whole run — streams, interleaving, conflicts, aborts, backoff —
    is a pure function of ``(workload, scheme, cores, theta, seed)``
    plus the size knobs, so cells computed in different processes (or on
    different days) agree bit-for-bit; the bench grid and the fuzz
    campaign both lean on that.

    ``cycles`` is the *sum* of per-core cycle counters (the interleaving
    is functional, not a timing model — see
    :mod:`repro.multicore.system`), which still moves the right way
    under contention: aborted work and backoff waits inflate it.
    """
    from repro.multicore.system import MultiCoreSystem

    scheme = scheme_by_name(scheme) if isinstance(scheme, str) else scheme
    system = MultiCoreSystem(cores, scheme, config, seed=seed)
    subject = WORKLOADS[workload](system.runtimes[0], value_bytes=value_bytes)
    streams = generate_streams(
        cores,
        ops_per_core,
        theta=theta,
        num_keys=num_keys,
        value_words=subject.value_words,
        seed=seed,
    )
    replay_contention(system, subject, streams)
    system.fence_all()
    system.finalize_all()
    if verify:
        subject.verify(durable=True)
    stats = system.merged_stats()
    return ContentionResult(
        workload=workload,
        scheme=scheme.name,
        cores=cores,
        theta=theta,
        value_bytes=value_bytes,
        ops_per_core=ops_per_core,
        num_keys=num_keys,
        cycles=sum(core.now for core in system.cores),
        pm_bytes=stats.pm_bytes_written,
        conflicts=system.conflicts,
        aborts=stats.aborts,
        commits=stats.commits,
        stats=stats,
    )


def _compute(
    workload: str,
    scheme_name: str,
    policy_key: "tuple",
    value_bytes: int,
    num_ops: int,
    pm_write_latency_ns: float,
    num_tx_ids: int,
    wpq_bytes: int,
    seed: int,
) -> RunResult:
    policy = AnnotationPolicy(name=policy_key[0], honored=frozenset(policy_key[1]))
    config = DEFAULT_CONFIG.with_pm_write_latency(pm_write_latency_ns)
    if num_tx_ids != DEFAULT_CONFIG.num_tx_ids:
        config = config.with_num_tx_ids(num_tx_ids)
    if wpq_bytes != DEFAULT_CONFIG.pm.wpq_bytes:
        config = config.with_wpq_bytes(wpq_bytes)
    return run_workload(
        workload,
        scheme_by_name(scheme_name),
        policy=policy,
        value_bytes=value_bytes,
        num_ops=num_ops,
        config=config,
        seed=seed,
    )


class _RunMemo:
    """``lru_cache``-compatible memo with a seeding hook.

    The parallel grid warmer (:mod:`repro.parallel`) computes
    :class:`RunResult` values in worker processes and injects them into
    the parent's memo via :meth:`seed`; ``functools.lru_cache`` has no
    insertion API, hence this hand-rolled equivalent.  ``cache_clear``
    keeps the surface tests rely on.
    """

    def __init__(self, fn) -> None:
        self._fn = fn
        self._cache: dict = {}

    def __call__(self, *key) -> RunResult:
        try:
            return self._cache[key]
        except KeyError:
            result = self._fn(*key)
            self._cache[key] = result
            return result

    def cache_clear(self) -> None:
        self._cache.clear()

    def seed(self, key: "Tuple", result: RunResult) -> None:
        """Insert a precomputed result (first writer wins)."""
        self._cache.setdefault(tuple(key), result)


_cached = _RunMemo(_compute)


def cache_key(
    workload: str,
    scheme: "Scheme | str",
    *,
    policy: AnnotationPolicy = MANUAL,
    value_bytes: int = 256,
    num_ops: int = 1000,
    pm_write_latency_ns: Optional[float] = None,
    num_tx_ids: Optional[int] = None,
    wpq_bytes: Optional[int] = None,
    seed: int = 2023,
) -> "Tuple":
    """The memo key :func:`cached_run` files a run under.

    Exposed so the parallel warmer can ship the same scalars to worker
    processes and seed the parent memo with their results.
    """
    scheme_name = scheme if isinstance(scheme, str) else scheme.name
    policy_key = (policy.name, tuple(sorted(policy.honored, key=lambda h: h.value)))
    return (
        workload,
        scheme_name,
        policy_key,
        value_bytes,
        num_ops,
        pm_write_latency_ns
        if pm_write_latency_ns is not None
        else DEFAULT_CONFIG.pm.write_latency_ns,
        num_tx_ids if num_tx_ids is not None else DEFAULT_CONFIG.num_tx_ids,
        wpq_bytes if wpq_bytes is not None else DEFAULT_CONFIG.pm.wpq_bytes,
        seed,
    )


def cached_run(
    workload: str,
    scheme: "Scheme | str",
    *,
    policy: AnnotationPolicy = MANUAL,
    value_bytes: int = 256,
    num_ops: int = 1000,
    pm_write_latency_ns: Optional[float] = None,
    num_tx_ids: Optional[int] = None,
    wpq_bytes: Optional[int] = None,
    seed: int = 2023,
) -> RunResult:
    """Memoised :func:`run_workload` over the sweepable knobs."""
    return _cached(
        *cache_key(
            workload,
            scheme,
            policy=policy,
            value_bytes=value_bytes,
            num_ops=num_ops,
            pm_write_latency_ns=pm_write_latency_ns,
            num_tx_ids=num_tx_ids,
            wpq_bytes=wpq_bytes,
            seed=seed,
        )
    )
