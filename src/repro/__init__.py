"""repro — SLPMT: selective-logging hardware persistent-memory transactions.

A full-system reproduction of "Reconciling Selective Logging and Hardware
Persistent Memory Transaction" (HPCA 2023): the storeT ISA extension,
fine-grained logging through a four-tier coalescing log buffer, lazy
persistency with working-set signatures, the prior-work baselines (ATOM,
EDE), the Table-II durable data structures, the Section-IV annotation
compiler, and the harness that regenerates every figure of the
evaluation.

Quick start::

    from repro import Machine, PTx, SLPMT, MANUAL
    from repro.workloads import HashTable

    machine = Machine(SLPMT)
    rt = PTx(machine, policy=MANUAL)
    table = HashTable(rt, value_bytes=256)
    table.insert(42)
    machine.finalize()
    print(machine.now, "cycles,", machine.stats.pm_bytes_written, "PM bytes")
"""

from repro.common.config import DEFAULT_CONFIG, SystemConfig
from repro.common.errors import (
    PowerFailure,
    RecoveryError,
    ReproError,
    TransactionAborted,
    TransactionError,
)
from repro.common.stats import SimStats
from repro.core.machine import Machine
from repro.core.ordering import LoggingMode
from repro.core.schemes import (
    ATOM,
    EDE,
    FG,
    FG_LG,
    FG_LINE,
    FG_LZ,
    SCHEMES,
    SLPMT,
    SLPMT_LINE,
    Scheme,
    scheme_by_name,
)
from repro.harness.runner import RunResult, cached_run, run_workload
from repro.multicore.system import MultiCoreSystem, run_atomically
from repro.recovery.engine import recover
from repro.runtime.hints import (
    COMPILER_DEFAULT,
    MANUAL,
    NO_ANNOTATIONS,
    AnnotationPolicy,
    Hint,
)
from repro.runtime.ptx import PTx

__version__ = "1.0.0"

__all__ = [
    "Machine",
    "PTx",
    "SystemConfig",
    "DEFAULT_CONFIG",
    "SimStats",
    "LoggingMode",
    "Scheme",
    "scheme_by_name",
    "SCHEMES",
    "FG",
    "FG_LG",
    "FG_LZ",
    "SLPMT",
    "SLPMT_LINE",
    "FG_LINE",
    "ATOM",
    "EDE",
    "Hint",
    "AnnotationPolicy",
    "MANUAL",
    "COMPILER_DEFAULT",
    "NO_ANNOTATIONS",
    "recover",
    "run_workload",
    "cached_run",
    "regenerate",
    "RunResult",
    "MultiCoreSystem",
    "run_atomically",
    "ReproError",
    "RecoveryError",
    "PowerFailure",
    "TransactionError",
    "TransactionAborted",
    "__version__",
]


def __getattr__(name):
    # The figure harness imports the annotation compiler; load both only
    # when figures are regenerated, not on every ``import repro``.
    if name == "regenerate":
        from repro.harness.figures import regenerate

        return regenerate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
