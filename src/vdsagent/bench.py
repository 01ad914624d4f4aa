"""Benchmark harness: suites, metrics, and the statistical report.

The default suite is 3 scenarios x 5 base instances x 3 expertise
levels = 45 transfer runs.  Each run is judged against the ground-truth
oracle: it *executed* when its final attempt solved, and it *solved*
when the objective also matches the oracle within tolerance (CER and
SSR).  Reports are deterministic for a fixed config, seed, and scripted
backend, except wall-clock fields.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Collection

from .env import (EXPERTISE_LEVELS, SCENARIO_KINDS, ScenarioSpec,
                  TerminalEnv)
from .errors import ConfigError, VdsAgentError
from .instances import generate_instances, instance_id, with_level
from .knowledge import KnowledgeBase, accumulate
from .llm import ROLES, Backend, BackendExhausted, MockBackend
from .solver import DEFAULT_TIME_LIMIT, oracle_solve
from .stats import DegenerateTable, exact_test
from .workflow import TransferOutcome, WorkflowConfig, run_transfer

SIGNIFICANCE_LEVEL = 0.05

_ABLATION_LABELS = {"none": "full", "no-rag": "w/o RAG",
                    "no-self-correction": "w/o self-correction"}

ABLATIONS = tuple(_ABLATION_LABELS)

SYNTAX_STAGES = ("extract", "parse", "static")


class EmptyInputError(VdsAgentError):
    """Metrics were requested over an empty result list."""


@dataclass
class SuiteConfig:
    seed: int = 42
    scenarios: tuple[str, ...] = SCENARIO_KINDS
    levels: tuple[str, ...] = EXPERTISE_LEVELS
    instances_per_scenario: int = 5
    k_shot: int = WorkflowConfig.k_shot
    max_iterations: int = WorkflowConfig.max_iterations
    tolerance: float = 1e-4
    solve_time_limit: float = DEFAULT_TIME_LIMIT
    ablation: str = "none"
    accumulate_policy: str = "agent"  # agent | oracle | none
    learn_during_run: bool = False

    def validate(self) -> None:
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation '{self.ablation}'")
        if self.accumulate_policy not in ("agent", "oracle", "none"):
            raise ConfigError(
                f"unknown accumulate policy '{self.accumulate_policy}'")
        for name in ("seed", "instances_per_scenario", "k_shot",
                     "max_iterations"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer")
        if not isinstance(self.learn_during_run, bool):
            raise ConfigError("learn_during_run must be true or false")
        for name in ("tolerance", "solve_time_limit"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a number")
        if self.instances_per_scenario < 1:
            raise ConfigError("instances_per_scenario must be >= 1")
        if not 0 <= self.tolerance < math.inf:
            raise ConfigError("tolerance must be finite and >= 0")
        self.workflow_config().validate()
        for kind in self.scenarios:
            if kind not in SCENARIO_KINDS:
                raise ConfigError(f"unknown scenario kind '{kind}'")
        for level in self.levels:
            if level not in EXPERTISE_LEVELS:
                raise ConfigError(f"unknown expertise level '{level}'")
        for name in ("scenarios", "levels"):
            entries = getattr(self, name)
            if not entries:
                raise ConfigError(f"{name} must not be empty")
            if len(set(entries)) != len(entries):
                raise ConfigError(f"{name} repeats an entry: {list(entries)}")

    def label(self) -> str:
        return _ABLATION_LABELS[self.ablation]

    def workflow_config(self) -> WorkflowConfig:
        return ablate(WorkflowConfig(
            max_iterations=self.max_iterations,
            k_shot=self.k_shot,
            solve_time_limit=self.solve_time_limit,
            accumulate_on_success=False,  # the harness owns accumulation
        ), (self.ablation,))


def ablate(config: WorkflowConfig,
           ablations: Collection[str]) -> WorkflowConfig:
    """`config` with each named ablation applied: no-rag drops retrieval,
    no-self-correction allows at most one attempt ("none" changes
    nothing)."""
    if "no-rag" in ablations:
        config = replace(config, use_rag=False)
    if "no-self-correction" in ablations:
        config = replace(config, max_iterations=min(config.max_iterations, 1))
    return config


@dataclass(frozen=True)
class InstanceResult:
    instance_id: str
    scenario: str
    level: str
    executed: bool
    solved: bool
    objective: float | None
    oracle_objective: float
    iterations: int
    wall_time: float
    failure_category: str | None


@dataclass(frozen=True)
class MetricsAggregate:
    n_total: int
    n_executed: int
    n_solved: int
    cer: float
    ssr: float
    mean_iterations: float
    mean_wall_time: float


def failure_category(outcome: TransferOutcome, executed: bool, solved: bool,
                     max_iterations: int) -> str | None:
    """Classify a finished run.

    misinterpretation: executed but the objective missed the oracle.
    exhausted: used every iteration failing at more than one stage.
    syntax / runtime: classified by the final attempt's stage otherwise.
    """
    if solved:
        return None
    if executed:
        return "misinterpretation"
    stages = {a.stage_reached for a in outcome.attempts}
    if len(outcome.attempts) >= max_iterations and len(stages) > 1:
        return "exhausted"
    final = outcome.attempts[-1].stage_reached
    return "syntax" if final in SYNTAX_STAGES else "runtime"


def evaluate_instance(instance_id: str, scenario: str, level: str,
                      outcome: TransferOutcome, oracle_objective: float,
                      tolerance: float, max_iterations: int) -> InstanceResult:
    """Judge one transfer outcome against the oracle objective."""
    executed = outcome.status == "solved"
    objective = outcome.solution.objective if executed else None
    solved = executed and abs(objective - oracle_objective) <= tolerance
    return InstanceResult(
        instance_id=instance_id, scenario=scenario, level=level,
        executed=executed, solved=solved, objective=objective,
        oracle_objective=oracle_objective,
        iterations=outcome.iterations,
        wall_time=outcome.total_wall_time,
        failure_category=failure_category(outcome, executed, solved,
                                          max_iterations),
    )


def compute_metrics(results: list[InstanceResult]) -> MetricsAggregate:
    if not results:
        raise EmptyInputError("no results to aggregate")
    n = len(results)
    executed = sum(1 for r in results if r.executed)
    solved = sum(1 for r in results if r.solved)
    return MetricsAggregate(
        n_total=n, n_executed=executed, n_solved=solved,
        cer=executed / n, ssr=solved / n,
        mean_iterations=sum(r.iterations for r in results) / n,
        mean_wall_time=sum(r.wall_time for r in results) / n,
    )


def _grouped(results: list[InstanceResult],
             key: Callable[[InstanceResult], str],
             order: tuple[str, ...]) -> dict[str, list[InstanceResult]]:
    groups: dict[str, list[InstanceResult]] = {name: [] for name in order}
    for r in results:
        groups[key(r)].append(r)
    return groups


def _stats_block(by_level: dict[str, list[InstanceResult]],
                 max_iterations: int) -> dict[str, Any]:
    """Exact test of each outcome against expertise level.

    `by_level` holds the groups in suite level order.  The
    iterations table has one column per count 1..max_iterations, so its
    shape follows the workflow config, not the data.
    """
    groups = list(by_level.values())
    if len(groups) < 2:
        return {}
    tables = {
        "cer_exact": [[sum(r.executed for r in g),
                       sum(not r.executed for r in g)] for g in groups],
        "ssr_exact": [[sum(r.solved for r in g),
                       sum(not r.solved for r in g)] for g in groups],
        "iterations_exact": [[sum(r.iterations == k for r in g)
                              for k in range(1, max_iterations + 1)]
                             for g in groups],
    }
    stats: dict[str, Any] = {}
    for name, table in tables.items():
        try:
            p = exact_test(table)
        except DegenerateTable:
            continue  # too little data for this test; omit the entry
        stats[name] = {"p_value": p, "significant": p < SIGNIFICANCE_LEVEL}
    return stats


BackendProvider = Callable[[str, TerminalEnv, ScenarioSpec], Backend]


_SUITE_SCRIPT_KEYS = ("instances", "scenarios", "default")


def scripted_provider(suite_script: dict[str, Any]) -> BackendProvider:
    """Fresh single-run mock per instance, resolved from a suite script.

    A suite script drives the whole benchmark from one JSON document:

        {"scenarios": {<kind>: {"modeler": [...], "coder": [...], ...}},
         "instances": {<instance id>: {...}},
         "default":   {...}}

    Instance entries win over scenario entries, which win over the
    default; a document that is itself a run script (the `MockBackend`
    format) serves every instance.  Any other top-level key is an
    error.  Every run script is checked here, and an error names its
    entry.  Making the backend of an instance that no entry covers
    raises ConfigError; `run_benchmark` makes every backend before its
    first transfer, so a partial script fails before any transfer runs.
    """
    if set(ROLES) & set(suite_script):
        MockBackend(suite_script)
        return lambda instance_id, env, spec: MockBackend(suite_script)
    unknown = sorted(set(suite_script) - set(_SUITE_SCRIPT_KEYS))
    if unknown:
        raise ConfigError(f"mock script: unknown keys {unknown} (a suite "
                          f"script holds only {', '.join(_SUITE_SCRIPT_KEYS)})")
    scripts = {}  # run script by entry path
    for key in ("instances", "scenarios"):
        entries = suite_script.get(key, {})
        if not isinstance(entries, dict):
            raise ConfigError(f"mock script {key}: expected an object, got "
                              f"{type(entries).__name__}")
        scripts.update((f"{key}.{name}", v) for name, v in entries.items())
    if "default" in suite_script:
        scripts["default"] = suite_script["default"]
    for entry, script in scripts.items():
        try:
            MockBackend(script)
        except ConfigError as exc:
            raise ConfigError(f"mock script {entry}"
                              + str(exc).removeprefix("mock script")) from exc

    def make(instance_id: str, env: TerminalEnv,
             spec: ScenarioSpec) -> Backend:
        for entry in (f"instances.{instance_id}", f"scenarios.{spec.kind}",
                      "default"):
            if entry in scripts:
                return MockBackend(scripts[entry])
        raise ConfigError(
            f"suite script has no entry for instance {instance_id}")
    return make


def shared_provider(backend: Backend) -> BackendProvider:
    def make(instance_id: str, env: TerminalEnv,
             spec: ScenarioSpec) -> Backend:
        return backend
    return make


def run_benchmark(suite: SuiteConfig, kb: KnowledgeBase,
                  provider: BackendProvider,
                  trace_dir: str | Path | None = None) -> dict[str, Any]:
    """Run the suite and build the report document.

    The suite is set up whole before its first transfer: every instance
    is generated, its oracle solved and its backend made, so an error
    there (such as a suite script with no entry for some instance)
    raises before any transfer runs or any trace is written.  A scripted
    backend that runs out of responses raises `BackendExhausted` with
    the instance id in front of its message.

    The knowledge base is snapshotted at suite start, so accumulation
    from one instance cannot leak into another's retrieval unless
    learn_during_run is set.  Accumulation goes to the caller's base
    per accumulate_policy.  When trace_dir is given, every transfer
    outcome is written there and the report rows carry the paths.
    """
    suite.validate()
    wf_config = suite.workflow_config()
    retrieval_kb = kb if suite.learn_during_run else kb.snapshot()
    runs = []  # (id, kind, level, env, oracle objective, backend)
    for kind in suite.scenarios:
        bases = generate_instances(suite.seed, kind,
                                   suite.instances_per_scenario)
        for index, (base_env, spec) in enumerate(bases):
            oracle = oracle_solve(base_env, spec, suite.solve_time_limit)
            for level in suite.levels:
                env = with_level(base_env, spec, level)
                iid = instance_id(kind, index, level)
                runs.append((iid, kind, level, env, oracle.objective,
                             provider(iid, env, spec)))
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    results: list[InstanceResult] = []
    traces: dict[str, str] = {}
    for iid, kind, level, env, oracle_objective, backend in runs:
        try:
            outcome = run_transfer(env, retrieval_kb, wf_config, backend)
        except BackendExhausted as exc:
            raise BackendExhausted(f"{iid}: {exc}") from exc
        result = evaluate_instance(
            iid, kind, level, outcome, oracle_objective,
            suite.tolerance, wf_config.max_iterations)
        results.append(result)
        if trace_dir is not None:
            trace_path = trace_dir / f"{iid}.trace.json"
            outcome.write_trace(trace_path)
            traces[iid] = str(trace_path)
        if ((suite.accumulate_policy == "agent" and result.executed)
                or (suite.accumulate_policy == "oracle" and result.solved)):
            accumulate(kb, env, outcome.final_program,
                       description=" ".join(env.requirements.texts))
    by_scenario = _grouped(results, lambda r: r.scenario, suite.scenarios)
    by_level = _grouped(results, lambda r: r.level, suite.levels)
    categories = Counter(r.failure_category for r in results
                         if r.failure_category)
    report = {
        "config": {"label": suite.label(), **asdict(suite)},
        "instances": [dict(asdict(r), trace=traces.get(r.instance_id))
                      for r in results],
        "aggregates": {
            "overall": asdict(compute_metrics(results)),
            "by_scenario": {k: asdict(compute_metrics(v))
                            for k, v in by_scenario.items()},
            "by_level": {k: asdict(compute_metrics(v))
                         for k, v in by_level.items()},
        },
        "failure_categories": dict(sorted(categories.items())),
        "stats": _stats_block(by_level, wf_config.max_iterations),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    return report


CSV_COLUMNS = tuple(f.name for f in fields(InstanceResult))


def report_to_csv(report: dict[str, Any]) -> str:
    """Flatten the per-instance rows of a report into CSV text."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS,
                            lineterminator="\n")
    writer.writeheader()
    for row in report["instances"]:
        writer.writerow({col: row[col] for col in CSV_COLUMNS})
    return buffer.getvalue()
