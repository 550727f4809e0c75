"""Transaction-outcome capture for the fuzz campaign.

An :class:`OpLog` plugs into :attr:`repro.runtime.ptx.PTx.op_log` and
records, per driver-level operation, how many transactions committed and
aborted.  Workload operations may run more than one transaction
(a heap growth or a hashtable resize commits in its own transaction
before the insert proper), so the log keeps the mapping explicit instead
of assuming one transaction per operation.

The campaign uses it two ways:

* as a cross-check that the driver's committed-prefix accounting agrees
  with what the runtime actually committed;
* as the per-cell "transactions committed" coverage statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class OpRecord:
    """Transactions observed while one driver operation ran."""

    index: int
    commits: int = 0
    aborts: int = 0


@dataclass
class OpLog:
    """Per-operation transaction outcome log (PTx ``op_log`` protocol)."""

    records: List[OpRecord] = field(default_factory=list)

    def begin_op(self, index: int) -> None:
        """Mark the start of driver operation *index*."""
        self.records.append(OpRecord(index=index))

    # --- PTx op_log protocol -------------------------------------------

    def committed(self) -> None:
        if self.records:
            self.records[-1].commits += 1

    def aborted(self) -> None:
        if self.records:
            self.records[-1].aborts += 1

    # --- accounting ----------------------------------------------------

    @property
    def total_commits(self) -> int:
        return sum(r.commits for r in self.records)

    @property
    def total_aborts(self) -> int:
        return sum(r.aborts for r in self.records)
