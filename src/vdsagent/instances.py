"""Deterministic benchmark instance generation.

Each instance is the standard 20-node grid with 30 AGVs, one task per
AGV, and uniformly sampled OD pairs (origin != destination), under the
fixed scenario of its kind.  `_FIXED_SPECS` is the one place those
scenarios' parameters are written; the scripted programs and schemes
in `injection` are derived from it.

Each drawn OD is checked by solving that vehicle alone under the
`solver.scenario_constraints` record the oracle uses; ODs that make it
infeasible (or degenerate) are resampled, at most 100 draws per vehicle.
All draws of a call share one record, so they share its common view and
resume each target's reverse search instead of starting it again.
"""

from __future__ import annotations

import dataclasses
import random

from .env import (Agv, FleetConfig, Requirements, ScenarioSpec, Task,
                  TerminalEnv, default_network, scenario_prompt)
from .errors import InfeasibleGeneration, SchemaError
from .solver import SolveError, scenario_constraints, solve

FLEET_SIZE = 30

_MAX_DRAWS = 100

_FIXED_SPECS = {
    "road_closure": ScenarioSpec("road_closure", edge=(6, 7)),
    "forbidden_edge_vehicle": ScenarioSpec("forbidden_edge_vehicle",
                                           vehicle="AGV-4", edge=(5, 6)),
    "designated_route": ScenarioSpec("designated_route", task="T3",
                                     nodes=(6, 10, 11)),
}


def fixed_scenario(kind: str) -> ScenarioSpec:
    if kind not in _FIXED_SPECS:
        raise SchemaError(f"unknown scenario kind '{kind}'")
    return _FIXED_SPECS[kind]


def instance_id(kind: str, index: int, level: str) -> str:
    return f"{kind}-{index:02d}-{level}"


def generate_instances(seed: int, kind: str,
                       count: int) -> list[tuple[TerminalEnv, ScenarioSpec]]:
    """Generate `count` instances, phrased at engineer level (`with_level`
    rephrases them); pure function of its arguments."""
    if count < 1:
        raise ValueError("count must be >= 1")
    spec = fixed_scenario(kind)
    network = default_network()
    node_ids = sorted(network.node_ids)
    constraints = scenario_constraints(
        spec, {f"T{k}": f"AGV-{k}" for k in range(1, FLEET_SIZE + 1)})
    instances = []
    for i in range(count):
        rng = random.Random(f"{seed}:{kind}:{i}")
        agvs = []
        tasks = []
        for k in range(1, FLEET_SIZE + 1):
            agv_id = f"AGV-{k}"
            task_id = f"T{k}"
            agv_attrs = {}
            task_attrs = {}
            if kind == "forbidden_edge_vehicle" and agv_id == spec.vehicle:
                agv_attrs["over_height"] = True
            if kind == "designated_route" and task_id == spec.task:
                task_attrs["dangerous_goods"] = True
            for _ in range(_MAX_DRAWS):
                od = (rng.choice(node_ids), rng.choice(node_ids))
                if od[0] == od[1]:
                    continue
                try:
                    solve(constraints, network, {agv_id: od})
                except SolveError:
                    continue
                break
            else:
                raise InfeasibleGeneration(
                    f"no feasible OD for {agv_id} in {kind} instance {i}")
            agvs.append(Agv(id=agv_id, attributes=agv_attrs))
            tasks.append(Task(id=task_id, agv=agv_id, origin=od[0],
                              destination=od[1], attributes=task_attrs))
        env = TerminalEnv(
            network=network,
            fleet=FleetConfig(agvs=tuple(agvs), tasks=tuple(tasks)),
            requirements=Requirements(
                level="engineer", texts=(scenario_prompt(spec, "engineer"),)),
        )
        instances.append((env, spec))
    return instances


def with_level(env: TerminalEnv, spec: ScenarioSpec, level: str) -> TerminalEnv:
    """The same base instance with requirements phrased at another level."""
    reqs = Requirements(level=level, texts=(scenario_prompt(spec, level),))
    return dataclasses.replace(env, requirements=reqs)
