"""Chrome/Perfetto ``trace_event`` and JSONL export of machine traces.

The :class:`~repro.core.tracing.Tracer` ring holds structured events
with cycle timestamps; this module turns one tracer (single core) or
many (a :class:`~repro.multicore.system.MultiCoreSystem`) into the
Chrome ``trace_event`` JSON format, so a full run opens directly in
``ui.perfetto.dev`` (or ``chrome://tracing``):

* each core is one track (``tid`` = core id) under one process;
* a transaction is a *complete* ``"X"`` slice from its ``tx_begin`` to
  its ``commit`` / ``abort`` / ``conflict_abort``, so commit cost and
  retry storms are visible as slice widths;
* log drains, forced lazy persists, signature hits, txid reclaims,
  context switches and crashes are *instant* ``"i"`` marks on the
  owning core's track;
* every ``commit`` also feeds a per-core ``deferred lazy lines``
  counter track (``"C"``), the visual form of Section III-C's deferral.

Cycles map 1:1 to microseconds (``ts`` is in µs in the trace_event
spec); a "1 ms" slice in the UI is simply a 1000-cycle transaction.

The JSONL form is one :meth:`TraceEvent.to_dict` object per line — the
stable machine-readable stream downstream tooling consumes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.core.tracing import TraceEvent, Tracer

#: Event kinds that close the currently open transaction slice.
_TX_CLOSERS = ("commit", "abort", "conflict_abort")

#: trace_event phase types this exporter emits: complete slices,
#: instants, counters and metadata.
_PHASES = ("X", "i", "C", "M")


def _slice_name(open_fields: Dict[str, Any], closer: TraceEvent) -> str:
    seq = open_fields.get("tx_seq", closer.fields.get("tx_seq", "?"))
    if closer.kind == "commit":
        return f"tx {seq}"
    return f"tx {seq} ({closer.kind})"


def trace_events(
    tracers: "Sequence[Tracer]", *, pid: int = 1
) -> List[Dict[str, Any]]:
    """Flatten per-core tracer rings into ``trace_event`` dicts.

    Events are emitted per core in ring order; a ``tx_begin`` whose
    closing event fell out of the ring (or never happened — crash)
    yields no slice, only the instants that survived.
    """
    out: List[Dict[str, Any]] = []
    for core_id, tracer in enumerate(tracers):
        out.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": core_id,
                "name": "thread_name",
                "args": {"name": f"core {core_id}"},
            }
        )
        open_begin: Optional[TraceEvent] = None
        for event in tracer.events():
            if event.kind == "tx_begin":
                open_begin = event
                continue
            if event.kind in _TX_CLOSERS:
                start = event.cycle
                args: Dict[str, Any] = dict(event.fields)
                if open_begin is not None:
                    start = open_begin.cycle
                    args.update(open_begin.fields)
                    out.append(
                        {
                            "ph": "X",
                            "pid": pid,
                            "tid": core_id,
                            "ts": start,
                            "dur": max(0, event.cycle - start),
                            "name": _slice_name(
                                open_begin.fields if open_begin else {}, event
                            ),
                            "cat": "transaction",
                            "args": args,
                        }
                    )
                    open_begin = None
                if event.kind == "commit" and "deferred" in event.fields:
                    out.append(
                        {
                            "ph": "C",
                            "pid": pid,
                            "tid": core_id,
                            "ts": event.cycle,
                            "name": f"core {core_id} deferred lazy lines",
                            "args": {"lines": event.fields["deferred"]},
                        }
                    )
                continue
            out.append(
                {
                    "ph": "i",
                    "pid": pid,
                    "tid": core_id,
                    "ts": event.cycle,
                    "name": event.kind,
                    "cat": "machine",
                    "s": "t",  # thread-scoped instant
                    "args": dict(event.fields),
                }
            )
    return out


def chrome_trace(
    tracers: "Sequence[Tracer]",
    *,
    metadata: "Optional[Dict[str, Any]]" = None,
) -> Dict[str, Any]:
    """The complete Chrome ``trace_event`` JSON object for a run
    (machine tracks under ``pid 1``)."""
    doc: Dict[str, Any] = {
        "traceEvents": trace_events(tracers),
        "displayTimeUnit": "ms",
    }
    if metadata:
        doc["otherData"] = dict(metadata)
    return doc


def write_chrome_trace(
    path: str,
    tracers: "Sequence[Tracer]",
    *,
    metadata: "Optional[Dict[str, Any]]" = None,
) -> Dict[str, Any]:
    """Write the trace JSON to *path*; returns the document."""
    doc = chrome_trace(tracers, metadata=metadata)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def validate_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """Schema-check a trace document; returns the list of problems.

    Pins the contract the exporter promises Perfetto: a ``traceEvents``
    array whose members carry ``ph``/``pid``/``tid``/``name``, with
    timestamps on every timed phase and a non-negative ``dur`` on every
    complete slice.  An empty list means the document is loadable.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        for key in ("pid", "tid", "name"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        if ph != "M" and not isinstance(ev.get("ts"), int):
            problems.append(f"{where}: missing integer ts")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, int) or dur < 0:
                problems.append(f"{where}: X slice needs dur >= 0")
        if ph == "C" and not isinstance(ev.get("args"), dict):
            problems.append(f"{where}: counter needs args")
    return problems


# --- JSONL stream ------------------------------------------------------


def to_jsonl(tracer: Tracer, *, include_dropped: bool = True) -> str:
    """The tracer's ring as one JSON object per line.

    The first line is a header object (``{"kind": "header", ...}``)
    carrying the accounting totals, so a consumer knows how much fell
    off the ring before the first data line.
    """
    lines: List[str] = []
    if include_dropped:
        lines.append(
            json.dumps(
                {
                    "kind": "header",
                    "total_emitted": tracer.total_emitted,
                    "dropped": tracer.dropped,
                    "capacity": tracer.capacity,
                },
                sort_keys=True,
            )
        )
    for event in tracer.events():
        lines.append(json.dumps(event.to_dict(), sort_keys=True))
    return "\n".join(lines) + "\n"


def write_jsonl(path: str, tracers: "Iterable[Tracer]") -> None:
    """Concatenate every tracer's JSONL stream into *path*."""
    with open(path, "w") as fh:
        for tracer in tracers:
            fh.write(to_jsonl(tracer))
