"""Roll a cProfile run up into host seconds per simulator layer.

A layer is one package under ``src/repro/``.  A function defined in a
layer charges its self time there.  Builtins, the standard library and
anything else outside the repository are charged to whichever layers
called them, split in proportion to the self time pstats records per
caller (recursively, so ``json`` called from ``copy`` called from
``service`` lands on ``service``).  Packages outside the list are
``other``; the benchmark's own files, and any call chain with no layer
above it, are ``bench``.  The layers therefore partition the profile's
total self time, and :func:`rollup` reports how far that total is from
the measured wall time of the profiled region.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

LAYERS = (
    "core",
    "mem",
    "runtime",
    "workloads",
    "alloc",
    "isa",
    "common",
    "service",
    "shard",
    "multicore",
    "obs",
    "fuzz",
    "recovery",
    "faults",
    "other",
    "bench",
)

#: Function key: ``(filename, line, name, ...)`` (see :func:`snapshot`).
Func = Tuple


def snapshot(profiler) -> Dict:
    """The pstats stats layout of a finished ``cProfile.Profile``, keyed
    one entry per code object.

    ``pstats`` keys functions by ``(filename, line, name)`` and keeps
    only the last of several code objects sharing that label, such as
    the methods ``dataclasses`` generates; their time would vanish from
    the sum.  Keys here carry the code object's identity as a fourth
    element, so every entry survives."""
    stats: Dict = {}
    callers_of: Dict[int, Dict] = {}
    entries = profiler.getstats()

    def label(code) -> Tuple:
        if isinstance(code, str):
            return ("~", 0, code, id(code))
        return (code.co_filename, code.co_firstlineno, code.co_name, id(code))

    for entry in entries:
        callers: Dict = {}
        callers_of[id(entry.code)] = callers
        nc = entry.callcount
        stats[label(entry.code)] = (
            nc - entry.reccallcount, nc, entry.inlinetime, entry.totaltime, callers
        )
    for entry in entries:
        caller = label(entry.code)
        for sub in entry.calls or ():
            callers = callers_of.get(id(sub.code))
            if callers is None:
                continue
            prev = callers.get(caller, (0, 0, 0.0, 0.0))
            callers[caller] = (
                prev[0] + sub.callcount,
                prev[1] + sub.callcount - sub.reccallcount,
                prev[2] + sub.inlinetime,
                prev[3] + sub.totaltime,
            )
    return stats


def owner(filename: str) -> Optional[str]:
    """The layer that defines a function in *filename*, or None when
    the file is outside the repository (its time goes to its callers)."""
    path = filename.replace("\\", "/")
    marker = "/src/repro/"
    at = path.rfind(marker)
    if at >= 0:
        package = path[at + len(marker):].split("/", 1)
        if len(package) == 2 and package[0] in LAYERS:
            return package[0]
        return "other"
    if "/benchmarks/e2e/" in path:
        return "bench"
    return None


def _attribute(stats: Dict) -> Dict[Func, Dict[str, float]]:
    """The fraction of each function's time charged to each layer.

    Functions outside the repository that call each other in a cycle
    (``copy.deepcopy`` and its helpers, say) form one group, charged by
    the callers from outside the group.  Groups are found with Tarjan's
    algorithm over caller edges, which finishes a group only after every
    group that calls into it, so those callers' shares are known."""
    shares: Dict[Func, Dict[str, float]] = {}
    for func in stats:
        layer = owner(func[0])
        if layer is not None:
            shares[func] = {layer: 1.0}
    index: Dict[Func, int] = {}
    low: Dict[Func, int] = {}
    stack: List[Func] = []

    def charge(group: List[Func]) -> None:
        members = set(group)
        edges = [
            (caller, entry)
            for func in group
            for caller, entry in stats[func][4].items()
            if caller not in members
        ]
        # Weight callers by the self time they caused; a callee too
        # cheap to register any falls back to call counts.
        use_time = sum(entry[2] for _, entry in edges) > 0
        acc: Dict[str, float] = {}
        for caller, entry in edges:
            weight = entry[2] if use_time else entry[0]
            for name, part in shares[caller].items():
                acc[name] = acc.get(name, 0.0) + weight * part
        total = sum(acc.values())
        result = {k: v / total for k, v in acc.items()} if total > 0 else {"bench": 1.0}
        for func in group:
            shares[func] = result

    def connect(func: Func) -> None:
        index[func] = low[func] = len(index)
        stack.append(func)
        for caller in stats[func][4]:
            if caller in shares:
                continue
            if caller not in index:
                connect(caller)
                low[func] = min(low[func], low[caller])
            else:  # on the stack: finished groups are already in shares
                low[func] = min(low[func], index[caller])
        if low[func] == index[func]:
            group = []
            while not group or group[-1] != func:
                group.append(stack.pop())
            charge(group)

    for func in stats:
        if func not in shares:
            connect(func)
    return shares


def rollup(stats: Dict, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics from a pstats ``stats`` mapping.

    *stats* maps each function to ``(cc, nc, tt, ct, callers)`` with
    ``callers`` mapping caller → ``(nc, cc, tt, ct)`` — the layout of
    ``pstats.Stats(profile).stats`` (see :func:`snapshot`).  Returns ``<layer>.self_s``,
    ``<layer>.share`` and ``<layer>.calls`` for every layer, plus
    ``trace.sum_err``: ``|sum of layer self time - wall_s| / wall_s``.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0.0 for layer in LAYERS}
    shares = _attribute(stats)
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        for layer, part in shares[func].items():
            self_s[layer] += tt * part
            calls[layer] += nc * part
    total = sum(self_s.values())
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / total if total > 0 else 0.0
        out[f"{layer}.calls"] = round(calls[layer])
    out["trace.sum_err"] = abs(total - wall_s) / wall_s if wall_s > 0 else 1.0
    return out
