"""Builders for scripted mock-backend suites.

Each builder returns a suite script, the document that
`bench.scripted_provider` reads, checks and resolves to one run script
per benchmark instance; its docstring describes the format.

Besides the all-correct golden suite, `fault_injection_script` builds
the documented misinterpretation fixture: two road-closure instances
whose program removes only one direction of the closed edge, and one
designated-route instance whose program pins the vehicle's entire path
instead of requiring the subpath.
"""

from __future__ import annotations

from typing import Any

from .env import SCENARIO_KINDS, ScenarioSpec, TerminalEnv
from .errors import ConfigError
from .instances import fixed_scenario, generate_instances, instance_id
from .solver import oracle_solve, solve, bind
from . import dsl
from .dsl import fenced  # injection.fenced stays importable

_MODEL_NAMES = {"road_closure": "closure_transfer",
                "forbidden_edge_vehicle": "forbidden_transfer",
                "designated_route": "designated_transfer"}


def _program(name: str, statements: tuple[dsl.Statement, ...]) -> str:
    """Program text for `statements`, without the trailing newline."""
    return dsl.render(dsl.ModelAst(name, statements)).rstrip("\n")


def correct_program(spec: ScenarioSpec) -> str:
    """The program that states `spec` exactly: flow balance plus both
    directions of a closure or ban, or the corridor as a subpath."""
    if spec.kind == "designated_route":
        stmts = (dsl.RequireSubpath(dsl.SubjectRef("task", spec.task),
                                    spec.nodes),)
    elif spec.kind == "road_closure":
        u, v = spec.edge
        stmts = (dsl.RemoveEdge(u, v), dsl.RemoveEdge(v, u))
    else:
        u, v = spec.edge
        who = dsl.SubjectRef("vehicle", spec.vehicle)
        stmts = (dsl.ForbidEdge(who, u, v), dsl.ForbidEdge(who, v, u))
    return _program(_MODEL_NAMES[spec.kind], (dsl.FlowBalanceAll(),) + stmts)


def modeler_scheme(spec: ScenarioSpec) -> str:
    """The modeler's three-step scheme for `spec`."""
    head = ("1. Objective: minimize total travel time over all vehicles.\n"
            "2. Keep flow balance for every vehicle.\n3. ")
    if spec.kind == "designated_route":
        corridor = " -> ".join(str(n) for n in spec.nodes)
        return head + (f"The vehicle serving task {spec.task} must traverse "
                       f"{corridor} as a contiguous subpath of its route; "
                       f"the rest of the route stays free.")
    u, v = spec.edge
    if spec.kind == "road_closure":
        return head + (f"The segment between nodes {u} and {v} is closed in "
                       f"both directions: remove edges ({u},{v}) and "
                       f"({v},{u}) for all vehicles.")
    return head + (f"{spec.vehicle} is over-height: forbid edges ({u},{v}) "
                   f"and ({v},{u}) for {spec.vehicle} only; all other "
                   f"vehicles are unaffected.")


CORRECT_PROGRAMS = {kind: correct_program(fixed_scenario(kind))
                    for kind in SCENARIO_KINDS}

MODELER_SCHEMES = {kind: modeler_scheme(fixed_scenario(kind))
                   for kind in SCENARIO_KINDS}

_CLOSED = fixed_scenario("road_closure").edge

# the closure stated in one direction only
ONE_WAY_CLOSURE_PROGRAM = _program(
    _MODEL_NAMES["road_closure"],
    (dsl.FlowBalanceAll(), dsl.RemoveEdge(*_CLOSED)))


def _answer(kind: str, program: str) -> dict[str, Any]:
    """One run's script: the kind's scheme and `program`, no reflection."""
    return {"modeler": [MODELER_SCHEMES[kind]], "coder": [fenced(program)],
            "debugger": []}


def golden_script() -> dict[str, Any]:
    """Every instance answered correctly on the first attempt."""
    return {"scenarios": {kind: _answer(kind, program)
                          for kind, program in CORRECT_PROGRAMS.items()}}


def _one_way_objective_differs(env: TerminalEnv, spec: ScenarioSpec) -> bool:
    """Does closing only one direction change Z versus the full closure?"""
    full = oracle_solve(env, spec).objective
    ast = dsl.parse(ONE_WAY_CLOSURE_PROGRAM)
    one_way = solve(bind(ast, env), env.network, env.fleet.trips).objective
    return abs(full - one_way) > 1e-9


def _pinned_exact_path(env: TerminalEnv, spec: ScenarioSpec) -> str:
    """A valid but suboptimal whole-path program for the route task.

    Takes the oracle-optimal path and inserts an out-and-back bounce
    right after the forced segment, so the program binds (endpoints
    still match the OD), executes, and lands strictly above the optimum.
    """
    optimal = oracle_solve(env, spec).paths[env.fleet.task_vehicle[spec.task]]
    k = len(spec.nodes)
    # where the forced segment ends inside the optimal path
    end = next(i + k for i in range(len(optimal) - k + 1)
               if optimal[i:i + k] == spec.nodes)
    hinge = spec.nodes[-1]
    used = set(zip(optimal, optimal[1:]))
    network = env.network
    free = [v for v in (e.target for e in network.adjacency[0].get(hinge, ()))
            if network.length(v, hinge) is not None
            and (hinge, v) not in used and (v, hinge) not in used]
    if not free:
        raise ConfigError("no bounce neighbor free at the forced segment")
    pinned = optimal[:end] + (free[0], hinge) + optimal[end:]
    return _program(_MODEL_NAMES["designated_route"], (
        dsl.FlowBalanceAll(),
        dsl.RequireExactPath(dsl.SubjectRef("task", spec.task), pinned)))


def fault_injection_script(seed: int = 42,
                           instances_per_scenario: int = 5) -> dict[str, Any]:
    """The three-misinterpretation suite over the default benchmark.

    Two road-closure instances (technician level) get the one-way
    closure program; one designated-route instance (engineer level) gets
    the pinned whole-path program.  All three execute but miss the
    optimum, so they score as misinterpretations; everything else is
    golden.  By level that is 2 + 1 + 0 failures across the 45 runs.
    """
    script = golden_script()
    overrides: dict[str, Any] = {}
    closures = generate_instances(seed, "road_closure", instances_per_scenario)
    wrong = [i for i, (env, spec) in enumerate(closures)
             if _one_way_objective_differs(env, spec)]
    if len(wrong) < 2:
        raise ConfigError("need two closure instances where one direction "
                          "matters; got fewer, pick another seed")
    for i in wrong[:2]:
        overrides[instance_id("road_closure", i, "technician")] = _answer(
            "road_closure", ONE_WAY_CLOSURE_PROGRAM)
    env0, spec0 = generate_instances(seed, "designated_route", 1)[0]
    overrides[instance_id("designated_route", 0, "engineer")] = _answer(
        "designated_route", _pinned_exact_path(env0, spec0))
    script["instances"] = overrides
    return script


BROKEN_PROGRAM = CORRECT_PROGRAMS["road_closure"].rsplit("\n", 1)[0]

RECOVERY_REFLECTION = (
    "DIAGNOSIS: The emitted program ends inside the constraints block; the "
    "closing brace is missing, so parsing fails at end of input.\n"
    "CORRECTION: Re-emit the complete program and close the constraints "
    "block with '}' after the last statement."
)


def recovery_script(kind: str = "road_closure") -> dict[str, Any]:
    """Attempt 1 fails to parse (missing brace); attempt 2 is correct."""
    return {
        "modeler": [MODELER_SCHEMES[kind]] * 2,
        "coder": [fenced(BROKEN_PROGRAM), fenced(CORRECT_PROGRAMS[kind])],
        "debugger": [RECOVERY_REFLECTION],
    }


RAG_MARKER = "## Modeling primitives"

# the closure without the required flow balance: fails static checks
UNGROUNDED_PROGRAM = _program("ungrounded_attempt",
                              (dsl.RemoveEdge(*_CLOSED),))


def ablation_script(seed: int = 42) -> dict[str, Any]:
    """Suite designed so both ablations strictly lose, the same for every seed.

    Default entries answer correctly only when the prompt carries
    retrieved knowledge (otherwise they emit a program with no flow
    balance, which fails static checks on every attempt).  One scientist
    instance per scenario instead needs the reflection loop: attempt 1
    drops the closing brace, attempt 2 is correct.
    """
    scenarios = {}
    for kind, program in CORRECT_PROGRAMS.items():
        conditional = {"if_contains": RAG_MARKER,
                       "then": fenced(program),
                       "else": fenced(UNGROUNDED_PROGRAM)}
        scenarios[kind] = {
            "modeler": [MODELER_SCHEMES[kind]] * 3,
            "coder": [conditional] * 3,
            "debugger": [RECOVERY_REFLECTION] * 2,
        }
    overrides = {instance_id(kind, 0, "scientist"): recovery_script(kind)
                 for kind in CORRECT_PROGRAMS}
    return {"scenarios": scenarios, "instances": overrides}
