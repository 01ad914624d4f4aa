"""The expert-team transfer loop.

One run turns an environment plus natural-language requirements into a
solved dispatch model: retrieve knowledge once, then iterate
modeler -> coder -> (extract, parse, static, bind, solve), reflecting on
failures through the debugger until solved or out of iterations.  Stage
failures never raise; they are recorded in the outcome.  The loop never
consults the ground-truth oracle.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import dsl, llm, solver
from .env import TerminalEnv, env_digest
from .errors import ConfigError
from .files import write_json
from .knowledge import (KnowledgeBase, RetrievedContext, accumulate,
                        query_terms, retrieve)


@dataclass
class WorkflowConfig:
    max_iterations: int = 3
    k_shot: int = 1
    use_rag: bool = True
    solve_time_limit: float = solver.DEFAULT_TIME_LIMIT
    accumulate_on_success: bool = True
    token_budget: int = llm.DEFAULT_TOKEN_BUDGET

    def validate(self) -> None:
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.k_shot < 0:
            raise ConfigError("k_shot must be >= 0")
        solver.check_time_limit(self.solve_time_limit)
        if self.token_budget <= 0:
            raise ConfigError("token_budget must be positive")


@dataclass
class AttemptRecord:
    index: int
    stage_reached: str
    modeler_prompt: llm.PromptBundle | None = None
    modeler_scheme: str | None = None
    coder_prompt: llm.PromptBundle | None = None
    coder_output: str | None = None
    extracted_program: str | None = None
    error: str | None = None
    debugger_prompt: llm.PromptBundle | None = None
    debugger_output: str | None = None
    reflection: llm.Reflection | None = None
    wall_time: float = 0.0


@dataclass
class TransferOutcome:
    status: str  # "solved" | "exhausted"
    attempts: list[AttemptRecord] = field(default_factory=list)
    final_program: str | None = None
    solution: solver.Solution | None = None
    retrieved: RetrievedContext | None = None
    accumulated: bool = False
    total_wall_time: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.attempts)

    def to_dict(self) -> dict[str, Any]:
        retrieved = None
        if self.retrieved is not None:
            retrieved = {
                "primitives": [p.id for p in self.retrieved.primitives],
                "exemplars": [e.id for e in self.retrieved.exemplars],
                "scores": list(self.retrieved.scores),
            }
        return {
            "status": self.status,
            "iterations": self.iterations,
            "final_program": self.final_program,
            "solution": (None if self.solution is None
                         else self.solution.to_dict()),
            "retrieved": retrieved,
            "accumulated": self.accumulated,
            "total_wall_time": self.total_wall_time,
            "attempts": [dataclasses.asdict(a) for a in self.attempts],
        }

    def write_trace(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def _attempt_pipeline(coder_output: str, env: TerminalEnv,
                      config: WorkflowConfig,
                      record: AttemptRecord) -> solver.Solution | None:
    """Run extract -> parse -> static -> bind -> solve, recording progress.

    Returns the solution on success; on failure the record keeps the
    stage that failed and its error, and None is returned.  Each stage
    raises only its own error type, so one handler serves them all.
    """
    try:
        record.stage_reached = "extract"
        record.extracted_program = dsl.extract_dsl_block(coder_output)
        record.stage_reached = "parse"
        ast = dsl.parse(record.extracted_program)
        record.stage_reached = "static"
        problems = dsl.static_check(ast)
        if problems:
            record.error = "; ".join(str(p) for p in problems)
            return None
        record.stage_reached = "bind"
        constraints = solver.bind(ast, env)
        record.stage_reached = "solve"
        solution = solver.solve(constraints, env.network, env.fleet.trips,
                                config.solve_time_limit)
    except (dsl.ExtractionError, dsl.DslError, solver.SolveError) as exc:
        record.error = str(exc)
        return None
    record.stage_reached = "solved"
    return solution


def _ask(backend: llm.Backend, role: str, ctx: llm.PromptContext,
         config: WorkflowConfig) -> tuple[llm.PromptBundle, str]:
    """Render the role's prompt and complete it: one model call."""
    bundle = llm.render_prompt(role, ctx, config.token_budget)
    return bundle, llm.complete(backend, bundle)


def run_transfer(env: TerminalEnv, kb: KnowledgeBase,
                 config: WorkflowConfig,
                 backend: llm.Backend) -> TransferOutcome:
    """Run one transfer; all agent failures are encoded in the outcome."""
    config.validate()
    run_start = time.monotonic()
    retrieved = None
    if config.use_rag:
        retrieved = retrieve(kb, query_terms(env), config.k_shot)
    ctx = llm.PromptContext(env_digest=env_digest(env),
                            requirements=env.requirements.texts,
                            retrieved=retrieved)
    outcome = TransferOutcome(status="exhausted", retrieved=retrieved)
    for index in range(1, config.max_iterations + 1):
        attempt_start = time.monotonic()
        record = AttemptRecord(index=index, stage_reached="extract")
        record.modeler_prompt, record.modeler_scheme = _ask(
            backend, "modeler", ctx, config)
        record.coder_prompt, record.coder_output = _ask(
            backend, "coder",
            dataclasses.replace(ctx, scheme=record.modeler_scheme), config)
        solution = _attempt_pipeline(record.coder_output, env, config, record)
        if solution is None and index < config.max_iterations:
            record.debugger_prompt, record.debugger_output = _ask(
                backend, "debugger", dataclasses.replace(
                    ctx, error_message=record.error,
                    failed_program=(record.extracted_program
                                    or record.coder_output)), config)
            record.reflection = llm.parse_reflection(record.debugger_output)
            ctx = dataclasses.replace(ctx, corrections=(
                *ctx.corrections, record.reflection.correction))
        record.wall_time = time.monotonic() - attempt_start
        outcome.attempts.append(record)
        if solution is not None:
            outcome.status = "solved"
            outcome.final_program = record.extracted_program
            outcome.solution = solution
            description = " ".join(ctx.requirements)
            # blank requirements make no usable exemplar; the solve stands
            if config.accumulate_on_success and description.strip():
                accumulate(kb, env, record.extracted_program, description)
                outcome.accumulated = True
            break
    outcome.total_wall_time = time.monotonic() - run_start
    return outcome
