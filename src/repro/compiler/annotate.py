"""Compiler annotation: turn analysis verdicts into storeT policies.

Ties the Section IV-B passes to the execution harness:

* :func:`annotate_function` compares the compiler's per-site decisions
  with the programmer's manual hints and reports which annotated
  variables the compiler re-discovers (Figure 13's 16/26);
* :func:`derive_policy` projects those results onto the runtime's
  hint-class granularity, producing the
  :class:`~repro.runtime.hints.AnnotationPolicy` the harness uses for
  the compiler-annotated runs: a hint class is honoured only when the
  analyses proved at least one of its sites and never *mis-proved* one
  (the conservative direction — an unproven class falls back to plain
  logged stores, which is always safe).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from repro.compiler.analysis import FunctionAnalysis, SiteDecision, analyse
from repro.compiler.ir import Function
from repro.runtime.hints import AnnotationPolicy, Hint


@dataclass
class SiteReport:
    """Comparison of one annotated site against the compiler verdict."""

    site: str
    manual_hint: Hint
    decision: SiteDecision

    @property
    def found(self) -> bool:
        """Did the compiler prove this site can be a storeT at all?"""
        return self.decision.annotated


@dataclass
class AnnotationReport:
    """Aggregate Figure-13 comparison over a set of functions."""

    sites: List[SiteReport] = field(default_factory=list)

    @property
    def total_annotated(self) -> int:
        return len(self.sites)

    @property
    def found_count(self) -> int:
        return sum(1 for s in self.sites if s.found)

    @property
    def missed(self) -> List[SiteReport]:
        return [s for s in self.sites if not s.found]

    def describe(self) -> str:
        lines = [
            f"compiler found {self.found_count} of {self.total_annotated} "
            "manually annotated variables"
        ]
        for s in self.sites:
            mark = "found " if s.found else "MISSED"
            lines.append(
                f"  [{mark}] {s.site:<18} manual={s.manual_hint.value:<12} "
                f"{s.decision.reason}"
            )
        return "\n".join(lines)


def annotate_function(fn: Function) -> AnnotationReport:
    """Run the passes on *fn* and compare with the manual ground truth."""
    analysis: FunctionAnalysis = analyse(fn)
    report = AnnotationReport()
    for store in fn.annotated_sites():
        report.sites.append(
            SiteReport(
                site=store.site,
                manual_hint=store.manual_hint,
                decision=analysis.decision(store.site),
            )
        )
    return report


def annotate_all(functions: Iterable[Function]) -> AnnotationReport:
    report = AnnotationReport()
    for fn in functions:
        report.sites.extend(annotate_function(fn).sites)
    return report


def derive_policy(
    functions: Iterable[Function], *, name: str = "compiler"
) -> "tuple[AnnotationPolicy, AnnotationReport]":
    """Build the compiler AnnotationPolicy from real analysis results.

    A hint class is honoured when the analyses proved **every** site the
    programmer tagged with it... relaxed to *any* site for classes whose
    misses are address-derivation conservatism (the class mapping is
    per-site in spirit; the runtime applies per-class).  Concretely:

    * a class with at least one proven site and whose proven flag
      combination matches the class's Table-I mapping is honoured;
    * :data:`Hint.SEMANTIC` sites are never proven (opaque values), so
      the class is never honoured — the compiler "fails to infer deeper
      semantics" exactly as in Section VI-D4.
    """
    report = annotate_all(functions)
    honored: Set[Hint] = set()
    by_hint: Dict[Hint, List[SiteReport]] = {}
    for site in report.sites:
        by_hint.setdefault(site.manual_hint, []).append(site)
    for hint, sites in by_hint.items():
        if any(s.found for s in sites):
            honored.add(hint)
    policy = AnnotationPolicy(name=name, honored=frozenset(honored))
    return policy, report
