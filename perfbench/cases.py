"""The benchmark's workloads: two end-to-end configurations of the
simulator, each driven only through the public API.

One call of :func:`execute` is one closed-loop iteration: it constructs
the workload and a fresh DJVM, builds and compiles the programs, runs
the simulation and collects the results (TCM, and for ``ws-migrate`` the
object-centric report).  Nothing is shared between iterations, so every
iteration pays the same set-up and takes the same execution path.  In
particular compiled programs are never reused across DJVMs: reuse is
what lets vector replay engage on a later run, which would make timings
bimodal.

Every phase runs inside a span of the caller's :class:`Spans` recorder,
named after the layer the benchmark is calling into.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.adaptive import PerClassRateController
from repro.core.costmodel import MigrationCostModel
from repro.core.profiler import ProfilerSuite
from repro.obs.report import build_report
from repro.placement.balancer import CorrelationAwareBalancer
from repro.placement.runtime_balancer import OnlineRebalancer
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.workloads import BarnesHutWorkload, WaterSpatialWorkload

#: inputs one run measures.  A run cycles through them, so its medians
#: describe a population of inputs rather than one draw: the simulated
#: time of a single input varies by up to 20 % from seed to seed, the
#: median over sixteen by about 2 %.
INPUTS_PER_RUN = 16

#: the benchmark seed later work is tuned on, and the held-out seed its
#: claims are re-checked on; both have recorded digests.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1000


def inputs(seed: int) -> list[int]:
    """The input seeds of benchmark seed ``seed`` (disjoint per seed)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return [seed * INPUTS_PER_RUN + j for j in range(INPUTS_PER_RUN)]


#: the fixed inputs TCM accuracy is measured on, whatever the seed.  The
#: error of one input's TCM varies by a factor of five between inputs
#: (0.008 to 0.045 on ws-migrate), so a mean over any affordable number
#: of seed-drawn inputs moves by 15 % from seed to seed; on fixed inputs
#: it moves only when the program's accuracy does.  Each costs one more
#: run of the workload and one full-sampling run, outside the timed loop.
ACCURACY_INPUTS = tuple(inputs(DEFAULT_SEED)[:2])


class Spans:
    """In-memory span recorder: (name, parent index, start ns, end ns).

    Spans nest; each records the index of its enclosing span.  Nothing
    is written until the caller exports them."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.records.append([name, parent, time.perf_counter_ns(), 0])
        idx = len(self.records) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        """End span ``idx`` (the innermost open one); returns seconds."""
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.records[idx][0]!r} closed out of order")
        self._stack.pop()
        rec = self.records[idx]
        rec[3] = time.perf_counter_ns()
        return (rec[3] - rec[2]) / 1e9


@dataclass
class Outcome:
    """What one iteration produced, plus its host phase times (s).
    ``suite`` and ``tcm`` are None for an unprofiled iteration."""

    djvm: DJVM
    result: object
    suite: ProfilerSuite | None
    tcm: object
    report: dict | None = None
    phases: dict[str, float] = field(default_factory=dict)
    #: rate changes made while setting the initial rates, before the run.
    initial_rate_changes: int = 0
    #: ops in the compiled programs; the run must execute each once.
    program_ops: int = 0

    @property
    def setup_s(self) -> float:
        """Construct, build, program generation, compile and profiler set-up."""
        return sum(self.phases.get(name, 0.0) for name in SETUP_PHASES)

    @property
    def wall_s(self) -> float:
        """Workload construction to results in hand."""
        return sum(self.phases.values())


@dataclass(frozen=True)
class Case:
    """One benchmark workload."""

    name: str
    n_nodes: int
    #: build the (unbuilt) simulated application from the seed.
    make: object
    #: attach profilers to the built DJVM at ``rate`` (None: the case's
    #: own sampling set-up); returns the ProfilerSuite.
    attach: object
    #: attach the object-centric profiler and end with its report.
    objprof: bool = False
    telemetry: str | None = None


# ---------------------------------------------------------------------------
# bh-adaptive: Barnes-Hut under the paper's adaptive correlation tracking
# ---------------------------------------------------------------------------


def _bh_make(seed: int):
    return BarnesHutWorkload(n_bodies=2048, rounds=3, n_threads=8, seed=seed)


def _bh_attach(djvm: DJVM, rate):
    suite = ProfilerSuite(djvm, correlation=True, send_oals=True, window_batches=16)
    suite.set_rate_all(4 if rate is None else rate)
    if rate is None:
        suite.attach_per_class_controller(PerClassRateController())
    return suite


# ---------------------------------------------------------------------------
# ws-migrate: Water-Spatial through the full profile-to-migration loop
# ---------------------------------------------------------------------------


def _ws_make(seed: int):
    return WaterSpatialWorkload(n_molecules=512, rounds=5, n_threads=8, seed=seed)


def _ws_attach(djvm: DJVM, rate):
    suite = ProfilerSuite(djvm, correlation=True, send_oals=True, stack=True, footprint=True)
    suite.set_rate_all(4 if rate is None else rate)
    balancer = CorrelationAwareBalancer(
        MigrationCostModel(djvm.cluster.network, djvm.costs), horizon_intervals=10
    )
    rebalancer = OnlineRebalancer(
        suite, balancer, djvm.migration, warmup_intervals=8, prefetch_sticky=True
    )
    djvm.add_timer(rebalancer)
    return suite


#: the workloads; BENCHMARK.json records why each was chosen.
CASES: dict[str, Case] = {
    c.name: c
    for c in (
        Case(name="bh-adaptive", n_nodes=8, make=_bh_make, attach=_bh_attach),
        Case(
            name="ws-migrate",
            n_nodes=8,
            make=_ws_make,
            attach=_ws_attach,
            objprof=True,
            telemetry="full",
        ),
    )
}


#: phase -> the span it runs in, named after the layer it calls into.
PHASES: dict[str, str] = {
    "construct": "workloads.construct",
    "build": "workloads.build",
    "programs": "workloads.programs",
    "compile": "runtime.program.compile",
    "attach": "core.profiler.attach",
    "run": "runtime.djvm.run",
    "tcm": "core.tcm.build",
    "report": "obs.report",
}
SETUP_PHASES = ("construct", "build", "programs", "compile", "attach")


def execute(case: Case, seed: int, spans: Spans, *, rate=None, profiled=True) -> Outcome:
    """One closed-loop iteration of ``case`` on input ``seed``.

    ``rate`` replaces the case's sampling set-up with one fixed rate and
    leaves the pure observers (telemetry, objprof) off; the correlation
    reference runs this way at ``"full"``.  ``profiled=False`` runs the
    same programs on a DJVM with no profiler, observer or rebalancer
    attached: the baseline that profiling overhead is measured against."""
    phases: dict[str, float] = {}

    def timed(name: str, fn):
        idx = spans.open(PHASES[name])
        try:
            return fn()
        finally:
            phases[name] = spans.close(idx)

    observe = rate is None and profiled
    outer = spans.open(f"{case.name} input {seed}")
    try:
        workload, djvm = timed(
            "construct",
            lambda: (
                case.make(seed),
                DJVM(
                    n_nodes=case.n_nodes,
                    telemetry=case.telemetry if observe else None,
                    objprof=case.objprof and observe,
                ),
            ),
        )
        timed("build", lambda: workload.build(djvm))
        programs = timed("programs", workload.programs)
        compiled = timed(
            "compile", lambda: {tid: P.compile_program(ops) for tid, ops in programs.items()}
        )
        del programs
        program_ops = sum(len(prog) for prog in compiled.values())
        suite = tcm = None
        initial_rate_changes = 0
        if profiled:
            suite = timed("attach", lambda: case.attach(djvm, rate))
            initial_rate_changes = suite.policy.rate_changes
        result = timed("run", lambda: djvm.run(compiled))
        if suite is not None:
            tcm = timed("tcm", suite.tcm)
        report = None
        if djvm.objprof is not None:
            report = timed(
                "report",
                lambda: build_report(
                    djvm.objprof,
                    djvm.gos,
                    djvm.costs,
                    djvm.cluster.network,
                    workload=case.name,
                    n_nodes=case.n_nodes,
                ).to_json(),
            )
    finally:
        spans.close(outer)
    return Outcome(
        djvm=djvm,
        result=result,
        suite=suite,
        tcm=tcm,
        report=report,
        phases=phases,
        initial_rate_changes=initial_rate_changes,
        program_ops=program_ops,
    )
