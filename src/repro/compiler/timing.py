"""Compile-time accounting for the annotation passes (Figure 13, right).

The paper reports that the analysis adds marginal compile time (up to
23% relative on btree, under 0.15 s absolute).  We measure the same
quantity for our pipeline: a *baseline compile* (SSA validation, a
constant-folding peephole, and lowering to a pseudo-assembly listing —
the work any compiler does regardless of annotation), against the same
pipeline plus the Pattern 1/2 analyses and annotation comparison.

Times are wall-clock lower quartiles over many repetitions that
alternate the two pipelines, so host drift hits both alike; what
matters for the reproduction is the *relative* overhead, which is
geometry-free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.compiler.analysis import analyse
from repro.compiler.annotate import annotate_function
from repro.compiler.ir import (
    Alloc,
    BinOp,
    Call,
    Const,
    FreeMem,
    Function,
    Gep,
    Instr,
    LoadMem,
    Param,
    StoreMem,
    _uses,
)


def lower(fn: Function) -> List[str]:
    """Baseline lowering: constant folding + pseudo-assembly emission."""
    consts: Dict[str, int] = {}
    out: List[str] = [f".func {fn.name}"]
    for instr in fn.instrs:
        out.append(_emit(instr, consts))
    out.append(".end")
    return out


def liveness(fn: Function) -> Dict[str, "tuple[int, int]"]:
    """Live ranges (def index, last use index) of every SSA value."""
    ranges: Dict[str, List[int]] = {}
    for i, instr in enumerate(fn.instrs):
        dest = getattr(instr, "dest", None)
        if dest is not None:
            ranges[dest] = [i, i]
        for used in _uses(instr):
            if used in ranges:
                ranges[used][1] = i
    return {name: (lo, hi) for name, (lo, hi) in ranges.items()}


def assign_registers(fn: Function, *, num_regs: int = 16) -> Dict[str, int]:
    """Naive linear-scan register assignment over the live ranges."""
    ranges = liveness(fn)
    order = sorted(ranges, key=lambda n: ranges[n][0])
    active: List[str] = []
    free = list(range(num_regs))
    assignment: Dict[str, int] = {}
    spill_slot = num_regs
    for name in order:
        start, _ = ranges[name]
        for held in list(active):
            if ranges[held][1] < start:
                active.remove(held)
                if assignment[held] < num_regs:
                    free.append(assignment[held])
        if free:
            assignment[name] = free.pop()
            active.append(name)
        else:
            assignment[name] = spill_slot
            spill_slot += 1
    return assignment


def encode(listing: List[str], registers: Dict[str, int]) -> bytes:
    """Mock machine-code encoding of the lowered listing."""
    blob = bytearray()
    for line in listing:
        h = 2166136261
        for ch in line:
            h = (h ^ ord(ch)) * 16777619 & 0xFFFFFFFF
        blob.extend(h.to_bytes(4, "little"))
    for name in sorted(registers):
        blob.append(registers[name] & 0xFF)
    return bytes(blob)


def baseline_pipeline(fn: Function) -> bytes:
    """Everything a compiler does regardless of storeT annotation:
    validation, lowering with constant folding, liveness, register
    assignment, and encoding."""
    fn.validate()
    listing = lower(fn)
    registers = assign_registers(fn)
    return encode(listing, registers)


def _emit(instr: Instr, consts: Dict[str, int]) -> str:
    if isinstance(instr, Const):
        consts[instr.dest] = instr.value
        return f"  mov {instr.dest}, {instr.value}"
    if isinstance(instr, Param):
        return f"  arg {instr.dest}"
    if isinstance(instr, Alloc):
        return f"  call malloc, {instr.size} -> {instr.dest}"
    if isinstance(instr, FreeMem):
        return f"  call free, {instr.ptr}"
    if isinstance(instr, Gep):
        return f"  lea {instr.dest}, [{instr.base}+{instr.offset}]"
    if isinstance(instr, BinOp):
        # Peephole: fold when both operands are known constants.
        if instr.a in consts and instr.b in consts and instr.op == "+":
            folded = consts[instr.a] + consts[instr.b]
            consts[instr.dest] = folded
            return f"  mov {instr.dest}, {folded}"
        return f"  {instr.op} {instr.dest}, {instr.a}, {instr.b}"
    if isinstance(instr, LoadMem):
        return f"  load {instr.dest}, [{instr.addr}]"
    if isinstance(instr, StoreMem):
        return f"  store [{instr.addr}], {instr.value}"
    if isinstance(instr, Call):
        return f"  call {instr.fn}, {', '.join(instr.args)} -> {instr.dest}"
    return f"  ; {instr!r}"


@dataclass(frozen=True)
class CompileTiming:
    """Measured compile times for one function set."""

    name: str
    baseline_seconds: float
    optimized_seconds: float

    @property
    def overhead(self) -> float:
        """Relative extra time spent on the annotation analyses."""
        if self.baseline_seconds == 0:
            return 0.0
        return self.optimized_seconds / self.baseline_seconds - 1.0

    @property
    def absolute_extra_seconds(self) -> float:
        return self.optimized_seconds - self.baseline_seconds


def measure_compile_time(
    name: str, functions: Iterable[Function], *, repeats: int = 200
) -> CompileTiming:
    """Time baseline vs analysis-enabled compilation of *functions*:
    each repeat runs both pipelines, and each reports its lower-quartile
    repeat.  A minimum lets one fast outlier repeat flip the comparison,
    a median lets load that slows most of one pipeline's repeats flip
    it."""
    fns = list(functions)
    baseline: List[float] = []
    optimized: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        for fn in fns:
            baseline_pipeline(fn)
        middle = time.perf_counter()
        for fn in fns:
            baseline_pipeline(fn)
            annotate_function(fn)  # runs the Pattern 1/2 analyses
        baseline.append(middle - start)
        optimized.append(time.perf_counter() - middle)
    return CompileTiming(
        name=name,
        baseline_seconds=sorted(baseline)[repeats // 4],
        optimized_seconds=sorted(optimized)[repeats // 4],
    )
