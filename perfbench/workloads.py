"""The benchmark's workloads, their correctness gates and layer wrappers.

Every workload drives vdsagent through its public functions with the
scripted MockBackend, so nothing touches the network.  An op is one
`workflow.run_transfer` call.  Expected outcomes are derived from the
scripts (and, on the yard, from a Dijkstra of our own), never from
frozen numbers, so the gates hold on any seed.

Why these four: each later optimisation needs one workload where its
layer does most of the work and one where it does little.

- suite-golden: the default 45-transfer suite.  Solver, instance
  generation and the oracle dominate; retrieval sees one exemplar.
- suite-repair: the same suite without RAG.  Only here do the debugger,
  reflection parsing and repeated render/parse/static loops run, and
  retrieval is never called.
- kb-growth: the golden suite learning into a 500-exemplar base that
  is persisted to disk.  Retrieval dominates; the solver is light.
- yard-400: single transfers on a 20x20 grid with 100 vehicles.  The
  only network above 20 nodes: solver, bind and prompt size scale here.
"""

from __future__ import annotations

import heapq
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from vdsagent import (bench, dsl, injection, instances, knowledge, llm,
                      solver, workflow)
from vdsagent.env import (EXPERTISE_LEVELS, SCENARIO_KINDS, Agv, Edge,
                          FleetConfig, Network, Node, Requirements, Task,
                          TerminalEnv)

from harness import CountingBackend, SpeedGauge, Tracer, traced

SUITE_OPS = len(SCENARIO_KINDS) * len(EXPERTISE_LEVELS)  # per base instance


@dataclass
class Verdict:
    """Correctness tally over ops attempted."""

    attempted: int = 0
    failed: int = 0
    solved: int = 0  # solved and matching the oracle or reference

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.solved += other.solved


class OpLog:
    """Times each op at the call site and keeps its outcome.

    With a gauge, the gauge samples machine speed (when due) just before
    an op's clock starts.
    """

    def __init__(self, gauge: SpeedGauge | None = None) -> None:
        self.gauge = gauge
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.outcomes: list[workflow.TransferOutcome] = []  # cleared per rep
        self.attempts = 0
        self.solved = 0

    def mark(self) -> tuple[int, int, int]:
        return len(self.latencies), self.attempts, self.solved

    def rollback(self, mark: tuple[int, int, int]) -> None:
        """Forget every op logged since `mark`."""
        ops, self.attempts, self.solved = mark
        del self.latencies[ops:]
        del self.starts[ops:]

    def timed(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def run_transfer(*args: Any, **kwargs: Any) -> Any:
            if self.gauge is not None:
                self.gauge.tick()
            start = time.perf_counter()
            outcome = fn(*args, **kwargs)
            self.latencies.append(time.perf_counter() - start)
            self.starts.append(start)
            self.outcomes.append(outcome)
            self.attempts += outcome.iterations
            self.solved += outcome.status == "solved"
            return outcome
        return run_transfer


# -- correctness gates ------------------------------------------------------

@dataclass(frozen=True)
class Expected:
    status: str
    attempts: int
    stage: str  # stage reached by the final attempt
    solved: bool  # solved and matching the oracle


FIRST_TRY = Expected("solved", 1, "solved", True)
REPAIRED = Expected("solved", 2, "solved", True)
STUCK = Expected("exhausted", 3, "static", False)


def check_suite(rows: list[dict[str, Any]],
                outcomes: list[workflow.TransferOutcome],
                expect: Callable[[str], Expected], ops: int) -> Verdict:
    """Judge one suite's report rows against the outcomes that made them.

    Rows and outcomes pair up in run order.  A suite with the wrong number
    of either fails every op it should have run.
    """
    if len(rows) != ops or len(outcomes) != ops:
        return Verdict(attempted=ops, failed=ops)
    verdict = Verdict(attempted=ops)
    for row, outcome in zip(rows, outcomes):
        want = expect(row["instance_id"])
        matches = bool(row["solved"]) and \
            row["objective"] == row["oracle_objective"]
        ok = (outcome.status == want.status
              and outcome.iterations == want.attempts
              and outcome.attempts[-1].stage_reached == want.stage
              and matches == want.solved)
        verdict.failed += not ok
        verdict.solved += matches
    return verdict


# -- layer wrappers -----------------------------------------------------------

def _role_of_prompt(role: str, *_: Any, **__: Any) -> str:
    return role


def _role_of_bundle(_backend: Any, bundle: llm.PromptBundle,
                    *_: Any, **__: Any) -> str:
    return bundle.role


def _count_exemplars(tracer: Tracer, args: tuple, _result: Any) -> None:
    tracer.counters["knowledge.retrieve.exemplars"] += len(args[0].exemplars)


def _count_failures(tracer: Tracer, _args: tuple, result: Any) -> None:
    tracer.counters["dsl.static_check.failures"] += bool(result)


# (owner, attribute the caller looks up, span name, label, observe)
_SITES: tuple[tuple[Any, str, str, Any, Any], ...] = (
    (bench, "run_benchmark", "bench.run_benchmark", None, None),
    (bench, "generate_instances", "instances.generate_instances", None, None),
    (instances, "solve", "instances.solve", None, None),
    (bench, "oracle_solve", "solver.oracle_solve", None, None),
    (bench, "accumulate", "knowledge.accumulate", None, None),
    (workflow, "accumulate", "knowledge.accumulate", None, None),
    (workflow, "retrieve", "knowledge.retrieve", None, _count_exemplars),
    (workflow, "env_digest", "env.env_digest", None, None),
    (knowledge, "env_digest", "env.env_digest", None, None),
    (llm, "render_prompt", "llm.render_prompt", _role_of_prompt, None),
    (llm, "complete", "llm.complete", _role_of_bundle, None),
    (llm, "parse_reflection", "llm.parse_reflection", None, None),
    (dsl, "extract_dsl_block", "dsl.extract_dsl_block", None, None),
    (dsl, "parse", "dsl.parse", None, None),
    (dsl, "static_check", "dsl.static_check", None, _count_failures),
    (solver, "bind", "solver.bind", None, None),
    (solver, "solve", "solver.solve", None, None),
    (solver, "shortest_path", "solver.shortest_path", None, None),
)

ROLES = llm.ROLES
SPANS = ("bench.run_benchmark", "instances.generate_instances",
         "instances.solve", "solver.oracle_solve", "workflow.run_transfer",
         "knowledge.retrieve", "knowledge.accumulate", "env.env_digest",
         *(f"llm.render_prompt.{r}" for r in ROLES),
         *(f"llm.complete.{r}" for r in ROLES),
         "llm.parse_reflection", "dsl.extract_dsl_block", "dsl.parse",
         "dsl.static_check", "solver.bind", "solver.solve",
         "solver.shortest_path")
# Spans whose count per suite depends on the seed's instances; a traced
# run checks them against its own first repetition instead of a record.
SEEDED = ("instances.solve", "solver.shortest_path")


def instrument(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """Replacements that wrap every layer entry point in a span."""
    return [(owner, attr, traced(tracer, span, getattr(owner, attr),
                                 label, observe))
            for owner, attr, span, label, observe in _SITES]


# -- suite workloads ----------------------------------------------------------

@dataclass
class SuiteState:
    seed: int
    script: dict[str, Any]
    expect: Callable[[str], Expected]
    base: knowledge.KnowledgeBase
    scratch: Path


class SuiteWorkload:
    """`bench.run_benchmark` over the default suite, once per repetition."""

    transfer_owner = bench  # run_benchmark looks up bench.run_transfer
    per_scenario = 5
    ops = per_scenario * SUITE_OPS  # per repetition

    def __init__(self, ablation: str = "none", learn: bool = False,
                 base_size: int = 0, warmup_per_scenario: int = 5):
        self.ablation = ablation
        self.learn = learn
        self.base_size = base_size
        self.warmup_per_scenario = warmup_per_scenario

    def prepare(self, seed: int, scratch: Path) -> SuiteState:
        if self.ablation == "no-rag":
            script = injection.ablation_script(seed)
            recovers = set(script["instances"])

            def expect(iid: str) -> Expected:
                return REPAIRED if iid in recovers else STUCK
        else:
            script = injection.golden_script()

            def expect(iid: str) -> Expected:
                return FIRST_TRY
        base = knowledge.load_seed_kb()
        if self.base_size:
            base = build_base(seed + 1, self.base_size, scratch)
        return SuiteState(seed, script, expect, base, scratch)

    def warmup(self, state: SuiteState, log: OpLog) -> None:
        self._run(state, log, Counter(), self.warmup_per_scenario)

    def repetition(self, state: SuiteState, log: OpLog,
                   tally: Counter[str]) -> tuple[Verdict, float]:
        return self._run(state, log, tally, self.per_scenario)

    def _run(self, state: SuiteState, log: OpLog, tally: Counter[str],
             per_scenario: int) -> tuple[Verdict, float]:
        suite = bench.SuiteConfig(seed=state.seed,
                                  instances_per_scenario=per_scenario,
                                  ablation=self.ablation,
                                  learn_during_run=self.learn)
        provider = counting_provider(state.script, tally)
        root = None
        if self.learn:
            # every repetition grows the same base, persisted to a fresh root
            root = Path(tempfile.mkdtemp(prefix="rep-", dir=state.scratch))
            kb = knowledge.KnowledgeBase(state.base.primitives,
                                         state.base.exemplars, root=root)
        else:
            kb = state.base.snapshot()
        log.outcomes.clear()
        try:
            start = time.perf_counter()
            report = bench.run_benchmark(suite, kb, provider)
            elapsed = time.perf_counter() - start
        finally:
            if root is not None:
                shutil.rmtree(root)
        verdict = check_suite(report["instances"], log.outcomes, state.expect,
                              per_scenario * SUITE_OPS)
        return verdict, elapsed


def counting_provider(script: dict[str, Any],
                      tally: Counter[str]) -> bench.BackendProvider:
    inner = bench.scripted_provider(script)

    def make(iid: str, env: TerminalEnv, spec: Any) -> CountingBackend:
        return CountingBackend(inner(iid, env, spec), tally)
    return make


def build_base(seed: int, size: int, scratch: Path) -> knowledge.KnowledgeBase:
    """The seed KB plus `size` golden exemplars, persisted and reloaded.

    Exemplars come from instances generated from `seed`, at every
    expertise level, added with `knowledge.accumulate` to a directory
    loaded as `vdsagent bench --kb DIR` loads it.
    """
    root = Path(tempfile.mkdtemp(prefix="kb-", dir=scratch))
    shutil.copytree(knowledge.seed_kb_path(), root, dirs_exist_ok=True)
    kb = knowledge.load(root)
    per_kind = -(-size // SUITE_OPS)
    generated = {kind: instances.generate_instances(seed, kind, per_kind)
                 for kind in SCENARIO_KINDS}
    picks = [(kind, i, level) for i in range(per_kind)
             for kind in SCENARIO_KINDS for level in EXPERTISE_LEVELS]
    for kind, i, level in picks[:size]:
        env = instances.with_level(*generated[kind][i], level)
        knowledge.accumulate(kb, env, injection.CORRECT_PROGRAMS[kind],
                             description=" ".join(env.requirements.texts))
    del kb  # only the reloaded base stays alive
    return knowledge.load(root)


# -- the yard -----------------------------------------------------------------

YARD_SIDE = 20
YARD_FLEET = 100
YARD_LINK_LENGTH = 10
YARD_CASES = 4  # distinct instances an op cycles through
# Trip lengths (in links) cycle through 1..YARD_MAX_TRIP, so every case on
# every seed has the same mix of short and long searches.
YARD_MAX_TRIP = 30


def grid_network(side: int, length: float = YARD_LINK_LENGTH) -> Network:
    """side x side grid, nodes row-major, every adjacency both ways."""
    edges = []
    for row in range(side):
        for col in range(side):
            u = row * side + col
            for v in ((u + 1,) if col + 1 < side else ()) + \
                     ((u + side,) if row + 1 < side else ()):
                edges += [Edge(u, v, length), Edge(v, u, length)]
    edges.sort(key=lambda e: (e.source, e.target))
    return Network(nodes=tuple(Node(i) for i in range(side * side)),
                   edges=tuple(edges))


def dijkstra(lengths: dict[tuple[int, int], float],
             removed: frozenset[tuple[int, int]],
             source: int, target: int) -> tuple[float, list[int]]:
    """Reference shortest path, independent of vdsagent.solver."""
    adjacency: dict[int, list[tuple[int, float]]] = {}
    for (u, v), w in lengths.items():
        if (u, v) not in removed:
            adjacency.setdefault(u, []).append((v, w))
    best = {source: 0.0}
    previous: dict[int, int] = {}
    heap = [(0.0, source)]
    while heap:
        cost, node = heapq.heappop(heap)
        if node == target:
            path = [node]
            while path[-1] != source:
                path.append(previous[path[-1]])
            return cost, path[::-1]
        if cost > best[node]:
            continue
        for nxt, w in adjacency.get(node, ()):
            if cost + w < best.get(nxt, float("inf")):
                best[nxt] = cost + w
                previous[nxt] = node
                heapq.heappush(heap, (cost + w, nxt))
    raise ValueError(f"no path from {source} to {target}")


def _od_at(rng: random.Random, trip: int) -> tuple[int, int]:
    """A random origin and a random node `trip` grid links away from it."""
    side = YARD_SIDE
    while True:
        row, col = divmod(rng.randrange(side * side), side)
        targets = [r * side + c for r in range(side) for c in range(side)
                   if abs(r - row) + abs(c - col) == trip]
        if targets:
            return row * side + col, rng.choice(targets)


@dataclass(frozen=True)
class YardCase:
    env: TerminalEnv
    script: dict[str, Any]
    closed: frozenset[tuple[int, int]]  # closed to every vehicle
    banned: dict[str, frozenset[tuple[int, int]]]  # closed to one vehicle
    reference: float  # optimal objective by `dijkstra`


def yard_case(seed: int, index: int) -> YardCase:
    """One seeded yard instance with a two-way closure and a vehicle ban.

    The closed road lies mid-way along the open-grid shortest path of the
    vehicle with the longest trip, and the ban on the first link of
    another vehicle's path, so both constraints change some route.
    """
    rng = random.Random(f"{seed}:yard:{index}")
    network = grid_network(YARD_SIDE)
    lengths = network.lengths()
    fleet = YARD_FLEET
    ods = [_od_at(rng, 1 + k % YARD_MAX_TRIP) for k in range(fleet)]
    _, path = dijkstra(lengths, frozenset(), *ods[YARD_MAX_TRIP - 1])
    mid = len(path) // 2
    u, v = path[mid - 1], path[mid]
    closed = frozenset({(u, v), (v, u)})
    victim = rng.randrange(1, fleet)
    _, path = dijkstra(lengths, closed, *ods[victim])
    a, b = path[0], path[1]
    agv = f"AGV-{victim + 1}"
    banned = {agv: frozenset({(a, b)})}
    reference = sum(
        dijkstra(lengths, closed | banned.get(f"AGV-{k + 1}", frozenset()),
                 *od)[0]
        for k, od in enumerate(ods))
    text = (f"Attention: the two-way road between nodes {u} and {v} is "
            f"closed. {agv} must not drive the link from node {a} to "
            f"node {b}.")
    env = TerminalEnv(
        network=network,
        fleet=FleetConfig(
            agvs=tuple(Agv(f"AGV-{k + 1}") for k in range(fleet)),
            tasks=tuple(Task(f"T{k + 1}", f"AGV-{k + 1}", o, d)
                        for k, (o, d) in enumerate(ods))),
        requirements=Requirements(level="engineer", texts=(text,)))
    scheme = (f"1. Objective: minimize total travel time over all vehicles.\n"
              f"2. Keep flow balance for every vehicle.\n"
              f"3. Remove edges ({u},{v}) and ({v},{u}) for all vehicles.\n"
              f"4. Forbid edge ({a},{b}) for {agv} only.")
    program = (f"model yard_transfer\n"
               f"objective minimize total_travel_time\n"
               f"constraints {{\n"
               f"  flow_balance all\n"
               f"  remove_edge ({u}, {v})\n"
               f"  remove_edge ({v}, {u})\n"
               f"  forbid_edge vehicle \"{agv}\" ({a}, {b})\n"
               f"}}")
    script = {"modeler": [scheme], "coder": [injection.fenced(program)],
              "debugger": []}
    return YardCase(env, script, closed, banned, reference)


def check_yard(outcome: workflow.TransferOutcome, case: YardCase) -> Verdict:
    """Solved, optimal by the reference, and every path legal and priced."""
    solution = outcome.solution
    ok = (outcome.status == "solved" and outcome.iterations == 1
          and solution is not None and solution.objective == case.reference
          and sum(solution.costs.values()) == solution.objective)
    if ok:
        lengths = case.env.network.lengths()
        for task in case.env.fleet.tasks:
            path = solution.paths.get(task.agv, ())
            gone = case.closed | case.banned.get(task.agv, frozenset())
            links = list(zip(path, path[1:]))
            ok = ok and bool(path) and path[0] == task.origin \
                and path[-1] == task.destination \
                and all(e in lengths and e not in gone for e in links) \
                and sum(lengths[e] for e in links) \
                == solution.costs.get(task.agv)
    return Verdict(attempted=1, failed=int(not ok), solved=int(ok))


@dataclass
class YardState:
    cases: list[YardCase]
    kb: knowledge.KnowledgeBase
    config: workflow.WorkflowConfig = field(
        default_factory=lambda: workflow.WorkflowConfig(
            accumulate_on_success=False))  # the KB stays at its seed state
    served: int = 0


class YardWorkload:
    """One transfer per repetition, cycling through seeded 400-node yards."""

    transfer_owner = workflow  # the benchmark calls workflow.run_transfer
    ops = 1  # per repetition

    def prepare(self, seed: int, scratch: Path) -> YardState:
        return YardState([yard_case(seed, i) for i in range(YARD_CASES)],
                         knowledge.load_seed_kb())

    def warmup(self, state: YardState, log: OpLog) -> None:
        for _ in state.cases:
            self.repetition(state, log, Counter())

    def repetition(self, state: YardState, log: OpLog,
                   tally: Counter[str]) -> tuple[Verdict, float]:
        case = state.cases[state.served % len(state.cases)]
        state.served += 1
        backend = CountingBackend(llm.MockBackend(case.script), tally)
        start = time.perf_counter()
        outcome = workflow.run_transfer(case.env, state.kb, state.config,
                                        backend)
        elapsed = time.perf_counter() - start
        log.outcomes.clear()
        return check_yard(outcome, case), elapsed


WORKLOADS: dict[str, Any] = {
    "suite-golden": SuiteWorkload(),
    "suite-repair": SuiteWorkload(ablation="no-rag"),
    "kb-growth": SuiteWorkload(learn=True, base_size=500,
                               warmup_per_scenario=1),
    "yard-400": YardWorkload(),
}
