"""Violation shrinking and byte-for-byte replay, for every family.

A :class:`Reproducer` freezes everything a violation needs to fire
again: workload, scheme, annotation policy, value size, the exact op
list (or, for the service and 2PC families, the request-volume
scalars) and the exact crash point or media-fault coordinates.
Because the whole simulator is deterministic (no wall clock, no
unseeded RNG anywhere in the stack), re-running a reproducer executes
the identical instruction stream and produces the identical violation
message.

Shrinking follows the family's :attr:`~repro.fuzz.kernel.Family.shrink`:

1. **ops** (crash and media-fault families) — greedy delta-debugging:
   repeatedly try dropping chunks of the op sequence (halving chunk
   sizes down to single ops) and keep any candidate that still violates;
   **volume** (service and 2PC) — halve the per-client request count
   while the violation survives, then peel clients off one at a time;
2. **crash point** — each candidate is judged by the first violating
   point of the reproducer's crash kind, scanned in ascending order from
   the family's own crash space, all from one recording pass that stops
   at that violation.  Media-fault coordinates address the physical log
   layout, so a ``"fault"`` case is held fixed instead.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ArtifactError, ReproError
from repro.common.units import WORD_BYTES
from repro.core.schemes import scheme_by_name
from repro.fuzz.campaign import POLICIES, STRESS_CONFIG, Op
from repro.fuzz.kernel import (
    FAMILIES,
    CaseResult,
    Family,
    Violation,
    crash_cases,
    family_of,
    is_count,
    require,
    require_choice,
    run_case,
    run_cases,
    shared_knobs,
    violation,
)


@dataclass
class Reproducer:
    """A self-contained, JSON-serialisable violation reproducer.

    *fault* is None for plain crash violations.  For media-fault
    violations it carries the exact injection coordinates and
    ``crash_kind`` is ``"fault"``; *crash_point* then only mirrors the
    dict's drain point, cut or bit.

    *service* / *twopc* switch the replay target from an op sequence to
    a whole deterministic workload: a transaction-service run or a
    sharded 2PC deployment.  They carry the generation scalars (clients,
    requests per client, seed, batch size / shard count); *ops* is then
    empty and shrinking reduces the request volume instead of the op
    list.  A 2PC reproducer may also carry *fault* (a torn/flipped
    protocol record, with its node label).
    """

    workload: str
    scheme: str
    policy: str
    value_bytes: int
    ops: List[Op]
    crash_kind: str
    crash_point: int
    violation: str
    check: str
    fault: Optional[Dict] = None
    service: Optional[Dict] = None
    twopc: Optional[Dict] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Reproducer":
        """Parse a reproducer file and check every field a replay uses;
        :class:`ArtifactError` names the first one it could not use."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ArtifactError(f"not a JSON document: {exc}") from None
        if not isinstance(data, dict):
            raise ArtifactError("not a JSON object")
        names = {f.name for f in fields(cls)}
        missing = sorted(names - set(data))
        if missing:
            raise ArtifactError(f"reproducer lacks field(s) {missing}")
        unknown = sorted(set(data) - names)
        if unknown:
            raise ArtifactError(f"unknown reproducer field(s) {unknown}")
        rep = cls(**data)
        require(isinstance(rep.scheme, str), "scheme", rep.scheme, "a scheme name")
        try:
            scheme_by_name(rep.scheme)
        except ReproError as exc:
            raise ArtifactError(f"field 'scheme': {exc}") from None
        require_choice("policy", rep.policy, POLICIES)
        require(
            is_count(rep.value_bytes, 1) and rep.value_bytes % WORD_BYTES == 0,
            "value_bytes", rep.value_bytes, f"a positive multiple of {WORD_BYTES}",
        )
        require(is_count(rep.crash_point), "crash_point", rep.crash_point, "an integer >= 0")
        for name in ("violation", "check"):
            require(isinstance(getattr(rep, name), str), name, getattr(rep, name), "a string")
        _thaw(rep)
        return rep

    @classmethod
    def from_violation(cls, found: Violation, *, seed: int, **knobs) -> "Reproducer":
        """Freeze a campaign violation; *seed* and *knobs* are the
        campaign's (the crash family regenerates its ops from them)."""
        family = family_of(found.cell)
        return cls(
            workload=found.cell.workload,
            scheme=found.cell.scheme,
            crash_kind=found.crash_kind,
            crash_point=found.crash_point,
            violation=found.message,
            check=found.check,
            fault=dict(found.fault) if found.fault else None,
            **family.freeze(found.cell, seed, {**family.knobs, **knobs}),
        )


def _thaw(rep: Reproducer) -> Tuple[Family, Any, int, Dict]:
    if rep.twopc is not None:
        family = FAMILIES["twopc"]
    elif rep.service is not None:
        family = FAMILIES["service"]
    elif rep.fault is not None:
        family = FAMILIES["faults"]
    else:
        family = FAMILIES["crash"]
    return (family, *family.thaw(rep))


def replay(
    rep: Reproducer, *, config: SystemConfig = STRESS_CONFIG
) -> CaseResult:
    """Re-run a reproducer exactly; deterministic by construction."""
    _family, cell, seed, knobs = _thaw(rep)
    point = rep.fault if rep.crash_kind == "fault" else rep.crash_point
    return run_case(cell, rep.crash_kind, point, seed=seed, config=config, **knobs)


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------


def _first_violation(
    rep: Reproducer, cell, seed: int, knobs: Dict
) -> Optional[Tuple[Any, str, str]]:
    """The first ``(point, message, check)`` of the reproducer's crash
    kind that violates under *knobs*, or None.  Every point of the kind
    is scanned; one kind's points are ascending in run order too, so the
    recording pass that judges them stops at the first violation."""
    knobs = shared_knobs(cell, seed=seed, **knobs)
    if rep.crash_kind == "fault":
        points = [rep.fault]
    else:
        points = [
            point for kind, point in crash_cases(cell, seed=seed, **knobs)
            if kind == rep.crash_kind
        ]
    cases = [(rep.crash_kind, point) for point in points]
    for point, result in zip(points, run_cases(cell, cases, seed=seed, stop=True, **knobs)):
        if result is not None and result.violation is not None:
            return point, result.violation, result.check
    return None


def _shrink_ops(first_violation, ops: List[Op]):
    original = [list(op) for op in ops]
    ops = original
    chunk = max(1, len(ops) // 2)
    while chunk >= 1:
        start = 0
        while start < len(ops) and len(ops) > 1:
            candidate = ops[:start] + ops[start + chunk:]
            if candidate and first_violation(ops=candidate):
                ops = candidate
            else:
                start += chunk
        chunk //= 2
    found = first_violation(ops=ops)
    if found is None:
        # Shrinking never removes the original failure: the unshrunk ops
        # still violate, so fall back to them wholesale.
        ops = original
        found = first_violation(ops=ops)
    return found, {"ops": ops}


def _shrink_volume(first_violation, num_clients: int, requests_per_client: int):
    found = None
    rpc = requests_per_client
    while rpc > 1:
        candidate = max(1, rpc // 2)
        result = first_violation(num_clients=num_clients, requests_per_client=candidate)
        if result is None:
            break
        rpc, found = candidate, result
    nc = num_clients
    while nc > 1:
        result = first_violation(num_clients=nc - 1, requests_per_client=rpc)
        if result is None:
            break
        nc, found = nc - 1, result
    if found is None:
        found = first_violation(num_clients=nc, requests_per_client=rpc)
    return found, {"num_clients": nc, "requests_per_client": rpc}


def minimize(
    rep: Reproducer, *, config: SystemConfig = STRESS_CONFIG
) -> Reproducer:
    """Shrink *rep* to a minimal reproducer (the op list or the request
    volume first, then the crash point), re-verifying the violation at
    every step."""
    family, cell, seed, knobs = _thaw(rep)
    knobs["config"] = config

    def first_violation(**change):
        return _first_violation(rep, cell, seed, {**knobs, **change})

    if family.shrink == "ops":
        found, shrunk = _shrink_ops(first_violation, knobs["ops"])
    else:
        found, shrunk = _shrink_volume(
            first_violation, knobs["num_clients"], knobs["requests_per_client"]
        )
    if found is None:
        raise AssertionError(
            "reproducer no longer violates — non-deterministic subject?"
        )
    point, message, check = found
    return Reproducer.from_violation(
        violation(cell, rep.crash_kind, point, check, message),
        seed=seed,
        **{**knobs, **shrunk},
    )
