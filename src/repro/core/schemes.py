"""The hardware schemes compared in the evaluation (Section VI-C).

A :class:`Scheme` is a frozen bundle of feature switches interpreted by
the machine:

* ``FG`` — the paper's baseline: fine-grain (word) logging through the
  coalescing tiered buffer, but with log-free and lazy persistency
  disabled (every ``storeT`` degrades to a plain ``store``).
* ``FG_LG`` / ``FG_LZ`` — baseline plus only log-free / only lazy
  persistency, used for the benefit breakdown in Figure 8.
* ``SLPMT`` — the full design.
* ``ATOM`` — prior work logging whole cache lines, with a log buffer that
  coalesces up to eight line records at a time.
* ``EDE`` — prior work logging at arbitrary granularity but with no
  hardware coalescing buffer (records drain in arrival order).
* ``FG_LINE`` / ``SLPMT_LINE`` — line-granularity variants for Figure 9.

ATOM's relaxed persistence domain and EDE's sorted issue queue are not
modelled: both persist in the same Figure-4 commit order as ``FG``
(DESIGN.md §12).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.common.errors import ReproError
from repro.core.ordering import LoggingMode


@dataclass(frozen=True)
class Scheme:
    """Feature configuration of one evaluated hardware design."""

    name: str
    #: "word" (8-byte log bits) or "line" (one log bit per cache line).
    log_granularity: str = "word"
    #: Buddy-coalescing tiered buffer (False models EDE's missing buffer).
    coalescing: bool = True
    #: Honour the log-free flag of storeT (selective logging).
    honor_log_free: bool = False
    #: Honour the lazy flag of storeT (lazy persistency).
    honor_lazy: bool = False
    #: Speculatively log clean sibling words to aid L2 bit aggregation
    #: (the optional optimisation in Section III-B1).
    speculative_logging: bool = False
    #: Undo or redo logging discipline.
    logging_mode: LoggingMode = LoggingMode.UNDO

    def __post_init__(self) -> None:
        if self.log_granularity not in ("word", "line"):
            raise ReproError(f"unknown log granularity {self.log_granularity!r}")

    def with_logging_mode(self, mode: LoggingMode) -> "Scheme":
        return replace(self, logging_mode=mode)


FG = Scheme(name="FG")
FG_LG = Scheme(name="FG+LG", honor_log_free=True)
FG_LZ = Scheme(name="FG+LZ", honor_lazy=True)
SLPMT = Scheme(name="SLPMT", honor_log_free=True, honor_lazy=True)
SLPMT_SPEC = Scheme(
    name="SLPMT+spec",
    honor_log_free=True,
    honor_lazy=True,
    speculative_logging=True,
)
#: Ablation: the FG baseline with the coalescing buffer removed
#: (isolates the tiered buffer's contribution from EDE's other changes).
FG_NOCOAL = Scheme(name="FG-nocoal", coalescing=False)
ATOM = Scheme(name="ATOM", log_granularity="line")
EDE = Scheme(name="EDE", coalescing=False)
FG_LINE = Scheme(name="FG-line", log_granularity="line")
SLPMT_LINE = Scheme(
    name="SLPMT-line",
    log_granularity="line",
    honor_log_free=True,
    honor_lazy=True,
)

#: All named schemes, for harness lookup by string.
SCHEMES: Dict[str, Scheme] = {
    s.name: s
    for s in (
        FG,
        FG_LG,
        FG_LZ,
        SLPMT,
        SLPMT_SPEC,
        ATOM,
        EDE,
        FG_LINE,
        SLPMT_LINE,
        FG_NOCOAL,
    )
}


def scheme_by_name(name: str) -> Scheme:
    """Look up a predefined scheme; raises :class:`ReproError` if unknown.

    A ``:undo`` / ``:redo`` suffix selects the logging discipline on top
    of any named scheme (e.g. ``"SLPMT:redo"``) — the fault campaign
    uses this to sweep both recovery directions over one grid.
    """
    base, _, mode = name.partition(":")
    try:
        scheme = SCHEMES[base]
    except KeyError:
        raise ReproError(
            f"unknown scheme {base!r}; known: {sorted(SCHEMES)}"
        ) from None
    if not mode:
        return scheme
    try:
        return scheme.with_logging_mode(LoggingMode[mode.upper()])
    except KeyError:
        raise ReproError(
            f"unknown logging-mode suffix {mode!r} in {name!r}; "
            "use ':undo' or ':redo'"
        ) from None
