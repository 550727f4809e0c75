"""Host-time spans the benchmark records around its own calls.

Every call the benchmark makes into the simulator sits inside one span
of a fixed *kind*: ``setup`` (building machines, services, deployments),
``run`` (the simulation the workload's rate is measured on) or
``finish`` (validation and post-run extraction).  Each workload pass is
one root span of kind ``pass``.  Spans stay in memory and are written
out as JSON lines when the benchmark ends.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional

KINDS = ("pass", "setup", "run", "finish")


@dataclasses.dataclass
class Span:
    id: int
    name: str
    kind: str
    parent: Optional[int]
    workload: str
    start: float
    end: Optional[float] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """An in-memory span log for one workload process."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.records: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, kind: str, name: str) -> Iterator[Span]:
        if kind not in KINDS:
            raise ValueError(f"unknown span kind {kind!r}")
        record = Span(
            id=len(self.records),
            name=name,
            kind=kind,
            parent=self._stack[-1] if self._stack else None,
            workload=self.workload,
            start=time.perf_counter(),
        )
        self.records.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def under(self, kind: str, root: int) -> List[Span]:
        """The finished *kind* spans under pass span *root*."""
        inside, out = {root}, []
        for record in self.records:
            if record.parent not in inside:
                continue
            inside.add(record.id)
            if record.kind == kind and record.end is not None:
                out.append(record)
        return out

    def seconds(self, kind: str, root: int) -> float:
        """Total duration of the *kind* spans under pass span *root*."""
        return sum(record.seconds for record in self.under(kind, root))

    def write_jsonl(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps({**dataclasses.asdict(record), **extra}, sort_keys=True) + "\n")
