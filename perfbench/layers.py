"""Host-time attribution by layer, from outside the program.

:data:`LAYER_OF` maps every module of the ``repro`` package to exactly
one layer.  :func:`attribute` folds a :mod:`cProfile` run into per-layer
self time and call counts: a ``repro`` function belongs to its module's
layer, and a function outside the package (a C builtin, NumPy, the
standard library) is charged to the layers of its callers, in
proportion to the time each caller spent in it.  What has no ``repro``
caller at all (the benchmark's own code, interpreter start-up) is
``unattributed``.

:func:`chrome_trace` turns the benchmark's span records into a
Chrome-trace document.
"""

from __future__ import annotations

import pstats
from pathlib import Path

#: the layers, in the order the per-layer metrics are reported.
LAYERS: tuple[str, ...] = (
    "workloads",
    "runtime.program",
    "runtime.interpreter",
    "runtime.vector",
    "runtime.migration",
    "dsm.hlrc",
    "sim.network",
    "sim.events",
    "core.sampling",
    "core.access_profiler",
    "core.tcm",
    "core.stack_sampler",
    "core.footprint",
    "core.resolution",
    "obs",
)

#: module -> layer.  A key ending in ``.*`` covers a package and every
#: module below it; any other key names one module.  The packages of the
#: simulator core are listed module by module, so a module added there
#: is unmapped until someone places it.
LAYER_OF: dict[str, str] = {
    # simulated applications and their seeded inputs
    "repro.workloads.*": "workloads",
    "repro.util.rng": "workloads",
    # program decoding
    "repro.runtime.program": "runtime.program",
    "repro.runtime.ir": "runtime.program",
    # the interpreter, its threads and their simulated CPU accounting
    "repro": "runtime.interpreter",
    "repro.__main__": "runtime.interpreter",
    "repro._version": "runtime.interpreter",
    "repro.runtime": "runtime.interpreter",
    "repro.runtime.interpreter": "runtime.interpreter",
    "repro.runtime.djvm": "runtime.interpreter",
    "repro.runtime.thread": "runtime.interpreter",
    "repro.runtime.stack": "runtime.interpreter",
    "repro.sim": "runtime.interpreter",
    "repro.sim.clock": "runtime.interpreter",
    "repro.sim.costs": "runtime.interpreter",
    "repro.sim.node": "runtime.interpreter",
    "repro.sim.cluster": "runtime.interpreter",
    "repro.util": "runtime.interpreter",
    "repro.util.validation": "runtime.interpreter",
    "repro.runtime.vector": "runtime.vector",
    # thread migration and the placement policies that drive it
    "repro.runtime.migration": "runtime.migration",
    "repro.placement.*": "runtime.migration",
    "repro.core.prefetch": "runtime.migration",
    "repro.core.costmodel": "runtime.migration",
    "repro.dsm.homemigration": "runtime.migration",
    # the DSM protocol and the object space it keeps coherent
    "repro.dsm": "dsm.hlrc",
    "repro.dsm.hlrc": "dsm.hlrc",
    "repro.dsm.intervals": "dsm.hlrc",
    "repro.dsm.states": "dsm.hlrc",
    "repro.dsm.sync": "dsm.hlrc",
    "repro.dsm.pagedsm": "dsm.hlrc",
    "repro.heap.*": "dsm.hlrc",
    "repro.sim.network": "sim.network",
    "repro.sim.events": "sim.events",
    "repro.sim.partition": "sim.events",
    "repro.sim.workerpool": "sim.events",
    # object sampling and its rate control
    "repro.core": "core.sampling",
    "repro.core.sampling": "core.sampling",
    "repro.core.array_sampling": "core.sampling",
    "repro.core.adaptive": "core.sampling",
    "repro.core.profiler": "core.sampling",
    "repro.util.primes": "core.sampling",
    "repro.core.access_profiler": "core.access_profiler",
    "repro.core.oal": "core.access_profiler",
    "repro.core.tcm": "core.tcm",
    "repro.core.collector": "core.tcm",
    "repro.core.accuracy": "core.tcm",
    "repro.core.distributed": "core.tcm",
    "repro.core.stack_sampler": "core.stack_sampler",
    "repro.core.invariants": "core.stack_sampler",
    "repro.core.footprint": "core.footprint",
    "repro.core.resolution": "core.resolution",
    # observers of the simulation: telemetry, reports, checks, analysis
    "repro.obs.*": "obs",
    "repro.checks.*": "obs",
    "repro.analysis.*": "obs",
}

UNATTRIBUTED = "unattributed"


class UnmappedModule(LookupError):
    """A ``repro`` module has no entry in :data:`LAYER_OF`."""


def layer_of(module: str) -> str:
    """Layer of a dotted ``repro`` module name."""
    layer = LAYER_OF.get(module)
    if layer is not None:
        return layer
    parts = module.split(".")
    for i in range(len(parts), 0, -1):
        layer = LAYER_OF.get(".".join(parts[:i]) + ".*")
        if layer is not None:
            return layer
    raise UnmappedModule(f"module {module} maps to no layer; add it to LAYER_OF")


def module_of(filename: str, src: Path) -> str | None:
    """Dotted module name of a source file under ``src``, or None."""
    try:
        rel = Path(filename).resolve().relative_to(src)
    except ValueError:
        return None
    if rel.suffix != ".py" or rel.parts[0] != "repro":
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def source_modules(src: Path) -> list[str]:
    """Every module of the ``repro`` package under ``src``."""
    return sorted(
        filter(None, (module_of(str(p), src) for p in (src / "repro").rglob("*.py")))
    )


def attribute(stats: pstats.Stats, src: Path) -> dict:
    """Per-layer self seconds and calls of one profiled run.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n}, "functions":
    {(file, line, name): calls}, "total_s": s}``; ``self_s`` includes
    :data:`UNATTRIBUTED`.  Raises :class:`UnmappedModule` when a module
    that ran has no layer."""
    raw = stats.stats  # {func: (cc, nc, tt, ct, callers)}
    home: dict[tuple, str] = {}
    for func in raw:
        module = module_of(func[0], src)
        if module is not None:
            home[func] = layer_of(module)

    shares: dict[tuple, dict[str, float]] = {}

    def share_of(func, visiting: frozenset) -> dict[str, float]:
        """How ``func``'s self time splits over layers."""
        if func in home:
            return {home[func]: 1.0}
        done = shares.get(func)
        if done is not None:
            return done
        callers = [
            (caller, edge)
            for caller, edge in sorted(raw[func][4].items())
            if caller in raw and caller not in visiting
        ]
        weight = sum(edge[2] for _, edge in callers)
        out: dict[str, float] = {}
        for caller, edge in callers:
            w = edge[2] / weight if weight > 0 else 1.0 / len(callers)
            for layer, frac in share_of(caller, visiting | {func}).items():
                out[layer] = out.get(layer, 0.0) + w * frac
        if not out:  # no callers, or only recursive ones
            out = {UNATTRIBUTED: 1.0}
        shares[func] = out
        return out

    self_s = {layer: 0.0 for layer in (*LAYERS, UNATTRIBUTED)}
    calls = {layer: 0 for layer in LAYERS}
    functions = {}
    total = 0.0
    for func, (_cc, nc, tt, _ct, _callers) in sorted(raw.items()):
        total += tt
        for layer, frac in share_of(func, frozenset()).items():
            self_s[layer] += frac * tt
        if func in home:
            calls[home[func]] += nc
            functions[func] = nc
    return {"self_s": self_s, "calls": calls, "functions": functions, "total_s": total}


def chrome_trace(records: list[list], meta: dict) -> dict:
    """Chrome-trace document of :class:`cases.Spans` records: one
    properly nested B/E pair per span on a single track, timestamps in
    microseconds from the first span's start."""
    children: dict[int, list[int]] = {}
    for idx, (_name, parent, _t0, _t1) in enumerate(records):
        children.setdefault(parent, []).append(idx)
    origin = records[0][2] if records else 0
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "perfbench"}},
    ]

    def emit(idx: int) -> None:
        name, parent, t0, t1 = records[idx]
        events.append({"name": name, "ph": "B", "pid": 1, "tid": 0,
                       "ts": (t0 - origin) / 1e3, "args": {"span": idx, "parent": parent}})
        for child in children.get(idx, ()):
            emit(child)
        events.append({"name": name, "ph": "E", "pid": 1, "tid": 0, "ts": (t1 - origin) / 1e3})

    for root in children.get(-1, ()):
        emit(root)
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
