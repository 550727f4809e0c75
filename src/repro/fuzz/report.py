"""The campaign report table, one writer for every family.

The table is stable for a given ``(budget, seed)``: no timestamps, no
machine-dependent fields, rows in fixed cell order — re-running the
same command must emit the identical file (the determinism acceptance
check diffs two runs, and CI diffs every checked-in report).  Each
family supplies its headline, the lines describing its parameters, its
columns and its coverage note (:class:`repro.fuzz.kernel.Family`).
"""

from __future__ import annotations

from typing import List

from repro.fuzz.kernel import FAMILIES, CampaignResult


def format_report(result: CampaignResult) -> str:
    """The campaign table plus totals, as written to the family's
    ``benchmarks/results/*_campaign.txt``."""
    family = FAMILIES[result.family]

    def row(values: List) -> str:
        return "  ".join(
            str(value).ljust(width)
            for (_, width, _), value in zip(family.columns, values)
        ).rstrip()

    lines = [
        family.title,
        *family.describe(result),
        "",
        row([name for name, _, _ in family.columns]),
        row(["-" * min(width, 10) for _, width, _ in family.columns]),
    ]
    for cell in result.cells:
        lines.append(row([value(cell) for _, _, value in family.columns]))
    lines += [
        "",
        f"cells: {len(result.cells)} ({family.coverage(result.cells)})",
        f"cases: {result.total_cases}",
        f"violations: {len(result.violations)}",
    ]
    for violation in result.violations:
        lines.append(f"  VIOLATION {violation}")
    lines.append("")
    return "\n".join(lines)
