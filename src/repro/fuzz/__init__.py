"""Deterministic crash-consistency fuzzing campaigns.

Every campaign runs on the kernel: a clean run per cell
(:func:`~repro.fuzz.kernel.clean_run`) sizes its crash space, one
recording pass captures a crash image at each chosen point, and
:mod:`repro.recovery` recovers each image before the family judges it.
The modules:

* :mod:`repro.fuzz.kernel` — the campaign kernel: the family protocol,
  clean run, point selection, case loop, result and parallel fan-out
  every campaign shares;
* :mod:`repro.fuzz.campaign`, :mod:`repro.fuzz.faultcampaign`,
  :mod:`repro.fuzz.twopc` — the five families (crash, multicore,
  service; media faults; cross-shard 2PC): cells, subjects, arming and
  judges, including the differential check against the FG baseline;
* :mod:`repro.fuzz.oplog` — per-transaction outcome capture via the
  :class:`~repro.runtime.ptx.PTx` ``op_log`` hook;
* :mod:`repro.fuzz.invariants` — fuzz subjects, the canonical durable
  state the judges compare and the violation type;
* :mod:`repro.fuzz.minimize` — violation shrinking and JSON replay;
* :mod:`repro.fuzz.report` — the deterministic campaign table;
* :mod:`repro.fuzz.cli` — ``python -m repro fuzz``.
"""

from repro.fuzz.campaign import (
    DEFAULT_CELLS,
    POLICIES,
    STRESS_CONFIG,
    CellReport,
    FuzzCell,
    generate_ops,
)
from repro.fuzz.faultcampaign import FaultCell
from repro.fuzz.invariants import (
    InvariantViolation,
    durable_state,
    make_subject,
)
from repro.fuzz.kernel import (
    FAMILIES,
    CampaignResult,
    CaseResult,
    Violation,
    clean_run,
    run_campaign,
    run_case,
    run_cell,
)
from repro.fuzz.minimize import Reproducer, minimize, replay
from repro.fuzz.oplog import OpLog
from repro.fuzz.report import format_report
from repro.fuzz.twopc import TwoPCCell

__all__ = [
    "DEFAULT_CELLS",
    "FAMILIES",
    "POLICIES",
    "STRESS_CONFIG",
    "CampaignResult",
    "CaseResult",
    "CellReport",
    "FaultCell",
    "FuzzCell",
    "TwoPCCell",
    "Violation",
    "InvariantViolation",
    "OpLog",
    "Reproducer",
    "clean_run",
    "durable_state",
    "format_report",
    "generate_ops",
    "make_subject",
    "minimize",
    "replay",
    "run_campaign",
    "run_case",
    "run_cell",
]
