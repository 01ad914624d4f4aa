"""Terminal environment model: road network, fleet, and requirements.

A dispatching environment arrives as three JSON documents (road network,
fleet configuration, natural-language requirements).  Parsing validates
the shape first, then cross-references, and produces immutable values.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path
from typing import Any

from .errors import CrossReferenceError, SchemaError, UnknownCombination
from .files import read_json

EXPERTISE_LEVELS = ("technician", "engineer", "scientist")

SCENARIO_KINDS = ("road_closure", "forbidden_edge_vehicle", "designated_route")

DEFAULT_ENV_DIR = Path(__file__).resolve().parent / "data" / "default_env"
DEFAULT_NETWORK_FILE = DEFAULT_ENV_DIR / "network.json"

# Byte table mapping everything but 0-9 and a-z to a space.
_SEPARATORS = bytes(c if 48 <= c <= 57 or 97 <= c <= 122 else 32
                    for c in range(256))


def tokenize(text: str) -> list[str]:
    """The runs of `[a-z0-9]` in `text.lower()`, in one C-level pass.

    Every non-ASCII code point left after lowering becomes `?` and then
    a separator, as it is for `re.findall("[a-z0-9]+", text.lower())`.
    """
    return (text.lower().encode("ascii", "replace").translate(_SEPARATORS)
            .decode("ascii").split())


def _require(obj: dict, key: str, kinds: type | tuple, where: str) -> Any:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{where}: missing field '{key}'")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise SchemaError(f"{where}.{key}: wrong type {type(value).__name__}")
    return value


def _attributes(item: dict, where: str) -> dict[str, Any]:
    """The free-form `attributes` object of a fleet entry ({} if absent)."""
    attrs = item.get("attributes", {})
    if not isinstance(attrs, dict):
        raise SchemaError(f"{where}.attributes: expected an object")
    return attrs


def _ints(params: dict, key: str, expected: str,
          size: int | None = None) -> tuple[int, ...] | None:
    """`params[key]` as a tuple of ints, of exactly `size` when given."""
    value = params.get(key)
    if value is None:
        return None
    if (not isinstance(value, (list, tuple))
            or size is not None and len(value) != size
            or not all(isinstance(n, int) and not isinstance(n, bool)
                       for n in value)):
        raise SchemaError(f"scenario.params.{key}: expected {expected}")
    return tuple(value)


@dataclass(frozen=True)
class Node:
    id: int
    type: str | None = None


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    length: float


Links = dict[int, tuple[Edge, ...]]
# vehicle -> (origin, destination) of its task, or None without one
Trips = Mapping[str, tuple[int, int] | None]


@dataclass(frozen=True)
class Network:
    """Directed road graph.  Validated on construction."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate node ids in network")
        known = set(ids)
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            if e.source not in known:
                raise CrossReferenceError(f"edge references unknown node {e.source}")
            if e.target not in known:
                raise CrossReferenceError(f"edge references unknown node {e.target}")
            if not (math.isfinite(e.length) and e.length > 0):
                raise ValueError(f"edge ({e.source}, {e.target}) has length "
                                 f"{e.length}; lengths must be finite and positive")
            key = (e.source, e.target)
            if key in seen:
                raise SchemaError(f"duplicate directed edge ({e.source}, {e.target})")
            seen.add(key)

    @cached_property
    def node_ids(self) -> frozenset[int]:
        """This network's node ids, one frozenset per network."""
        return frozenset(n.id for n in self.nodes)

    def length(self, u: int, v: int) -> float | None:
        """Link (u, v)'s length, or None: one scan of u's `adjacency` out-links."""
        for link in self.adjacency[0].get(u, ()):
            if link.target == v:
                return link.length
        return None

    def lengths(self) -> dict[tuple[int, int], float]:
        """Directed edge -> length mapping."""
        return {(e.source, e.target): e.length for e in self.edges}

    @cached_property
    def adjacency(self) -> tuple[Links, Links]:
        """Per node, its own outgoing `Edge`s sorted by target and its
        incoming ones sorted by source."""
        succ: dict[int, list[Edge]] = {}
        pred: dict[int, list[Edge]] = {}
        for e in sorted(self.edges, key=lambda e: (e.target, e.source)):
            succ.setdefault(e.source, []).append(e)
            pred.setdefault(e.target, []).append(e)
        return ({u: tuple(out) for u, out in succ.items()},
                {v: tuple(into) for v, into in pred.items()})

    @cached_property
    def routes(self) -> dict[tuple, tuple[float, tuple[int, ...]]]:
        """`solver.shortest_path`'s route memo for this immutable network."""
        return {}

    @cached_property
    def cuts(self) -> dict[frozenset, tuple[frozenset, Links, Links]]:
        """`solver.RoadGraph.without`'s memo: per removed-link set, that
        set and the filtered out- and in-links of the nodes it touches."""
        return {}

    @cached_property
    def digest(self) -> str:
        """The `nodes (…)` and `edges (…)` lines of `env_digest`."""
        node_bits = [f"{n.id}:{n.type}" if n.type else str(n.id)
                     for n in sorted(self.nodes, key=lambda n: n.id)]
        edge_bits = [f"{e.source}->{e.target}:{e.length:g}" for e in
                     sorted(self.edges, key=lambda e: (e.source, e.target))]
        return (f"nodes ({len(node_bits)}): " + " ".join(node_bits) + "\n"
                + f"edges ({len(edge_bits)}): " + " ".join(edge_bits))

    @cached_property
    def digest_terms(self) -> frozenset[str]:
        """The distinct `tokenize` terms of `digest`."""
        return frozenset(tokenize(self.digest))


@dataclass(frozen=True)
class Agv:
    id: str
    attributes: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Task:
    id: str
    agv: str
    origin: int
    destination: int
    attributes: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class FleetConfig:
    """Vehicles and tasks; `digest` is cached, so never mutate `attributes`."""

    agvs: tuple[Agv, ...]
    tasks: tuple[Task, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "agvs", tuple(self.agvs))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        agv_ids = [a.id for a in self.agvs]
        if len(set(agv_ids)) != len(agv_ids):
            raise SchemaError("duplicate agv ids")
        task_ids = [t.id for t in self.tasks]
        if len(set(task_ids)) != len(task_ids):
            raise SchemaError("duplicate task ids")
        known = set(agv_ids)
        assigned: set[str] = set()
        for t in self.tasks:
            if t.agv not in known:
                raise CrossReferenceError(f"task {t.id} references unknown agv {t.agv}")
            if t.agv in assigned:
                raise SchemaError(f"agv {t.agv} carries more than one task")
            assigned.add(t.agv)

    @cached_property
    def task_vehicle(self) -> Mapping[str, str]:
        """Each task's id -> the id of the AGV that carries it."""
        return {t.id: t.agv for t in self.tasks}

    @cached_property
    def trips(self) -> Trips:
        """Each AGV's task OD pair, or None without a task, in fleet order."""
        ods = {t.agv: (t.origin, t.destination) for t in self.tasks}
        return {a.id: ods.get(a.id) for a in self.agvs}

    @cached_property
    def digest(self) -> str:
        """The `agvs (…)` and `tasks (…)` lines of `env_digest`."""
        agv_bits = [_tagged(a.id, a.attributes) for a in self.agvs]
        task_bits = [_tagged(f"{t.id}:{t.agv}:{t.origin}->{t.destination}",
                             t.attributes) for t in self.tasks]
        return (f"agvs ({len(agv_bits)}): " + " ".join(agv_bits) + "\n"
                + f"tasks ({len(task_bits)}): " + " ".join(task_bits))

    @cached_property
    def digest_terms(self) -> frozenset[str]:
        """The distinct `tokenize` terms of `digest`."""
        return frozenset(tokenize(self.digest))


def _tagged(bit: str, attributes: dict[str, Any]) -> str:
    """`bit[k=v,...]` over the sorted attribute keys, or `bit` if none."""
    attrs = ",".join(f"{k}={attributes[k]}" for k in sorted(attributes))
    return f"{bit}[{attrs}]" if attrs else bit


@dataclass(frozen=True)
class Requirements:
    level: str
    texts: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "texts", tuple(self.texts))
        if self.level not in EXPERTISE_LEVELS:
            raise SchemaError(f"unknown expertise level '{self.level}'")


@dataclass(frozen=True)
class TerminalEnv:
    network: Network
    fleet: FleetConfig
    requirements: Requirements

    def __post_init__(self) -> None:
        known = self.network.node_ids
        for t in self.fleet.tasks:
            for node in (t.origin, t.destination):
                if node not in known:
                    raise CrossReferenceError(
                        f"task {t.id} references unknown node {node}"
                    )


@dataclass(frozen=True)
class ScenarioSpec:
    """Structured ground-truth description of one dispatching scenario."""

    kind: str
    edge: tuple[int, int] | None = None
    vehicle: str | None = None
    task: str | None = None
    nodes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.nodes is not None:
            object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.edge is not None:
            object.__setattr__(self, "edge", tuple(self.edge))
        if self.kind not in SCENARIO_KINDS:
            raise SchemaError(f"unknown scenario kind '{self.kind}'")
        for name in ("vehicle", "task"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise SchemaError(f"scenario {name}: expected a string id")
        if self.kind == "road_closure":
            if self.edge is None or len(self.edge) != 2:
                raise SchemaError("road_closure requires an edge pair")
        elif self.kind == "forbidden_edge_vehicle":
            if self.vehicle is None or self.edge is None or len(self.edge) != 2:
                raise SchemaError(
                    "forbidden_edge_vehicle requires a vehicle and an edge pair"
                )
        else:
            if self.task is None or self.nodes is None or len(self.nodes) < 2:
                raise SchemaError(
                    "designated_route requires a task and at least two nodes"
                )

    def validate_against(self, env: TerminalEnv) -> None:
        """Raise `CrossReferenceError` unless `env` has every vehicle, task
        and link this scenario names: the links `solver.scenario_constraints`
        states, `edge` and its reverse for a closure or ban and each
        consecutive pair of `nodes` for a corridor."""
        links = (zip(self.nodes, self.nodes[1:]) if self.kind == "designated_route"
                 else (self.edge, self.edge[::-1]))
        for u, v in links:
            if env.network.length(u, v) is None:
                raise CrossReferenceError(
                    f"scenario references unknown link ({u}, {v})")
        if self.vehicle is not None and self.vehicle not in env.fleet.trips:
            raise CrossReferenceError(
                f"scenario references unknown vehicle {self.vehicle}")
        if self.task is not None and self.task not in env.fleet.task_vehicle:
            raise CrossReferenceError(f"scenario references unknown task {self.task}")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioSpec":
        kind = _require(data, "kind", str, "scenario")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError("scenario.params: expected an object")
        return cls(kind=kind, edge=_ints(params, "edge", "[int, int]", 2),
                   vehicle=params.get("vehicle"), task=params.get("task"),
                   nodes=_ints(params, "nodes", "a list of ints"))


def parse_network(text: str) -> Network:
    data = read_json(text, "network", SchemaError)
    raw_nodes = _require(data, "nodes", list, "network")
    raw_edges = _require(data, "edges", list, "network")
    nodes = []
    for i, item in enumerate(raw_nodes):
        node_id = _require(item, "id", int, f"network.nodes[{i}]")
        node_type = item.get("type")
        if node_type is not None and not isinstance(node_type, str):
            raise SchemaError(f"network.nodes[{i}].type: wrong type")
        nodes.append(Node(id=node_id, type=node_type))
    edges = []
    for i, item in enumerate(raw_edges):
        where = f"network.edges[{i}]"
        edge = Edge(
            source=_require(item, "source", int, where),
            target=_require(item, "target", int, where),
            length=_require(item, "length", (int, float), where),
        )
        if not (math.isfinite(edge.length) and edge.length > 0):
            raise SchemaError(f"{where}.length: {edge.length} is not a "
                              f"finite positive number")
        edges.append(edge)
    return Network(nodes=tuple(nodes), edges=tuple(edges))


def parse_fleet_config(text: str) -> FleetConfig:
    data = read_json(text, "config", SchemaError)
    raw_agvs = _require(data, "agvs", list, "config")
    raw_tasks = _require(data, "tasks", list, "config")
    agvs = []
    for i, item in enumerate(raw_agvs):
        where = f"config.agvs[{i}]"
        agvs.append(Agv(id=_require(item, "id", str, where),
                        attributes=_attributes(item, where)))
    tasks = []
    for i, item in enumerate(raw_tasks):
        where = f"config.tasks[{i}]"
        tasks.append(Task(
            id=_require(item, "id", str, where),
            agv=_require(item, "agv", str, where),
            origin=_require(item, "origin", int, where),
            destination=_require(item, "destination", int, where),
            attributes=_attributes(item, where),
        ))
    return FleetConfig(agvs=tuple(agvs), tasks=tuple(tasks))


def parse_requirements(text: str) -> Requirements:
    data = read_json(text, "requirements", SchemaError)
    level = _require(data, "expertise_level", str, "requirements")
    raw = _require(data, "requirements", list, "requirements")
    texts = []
    for i, item in enumerate(raw):
        if not isinstance(item, str):
            raise SchemaError(f"requirements.requirements[{i}]: wrong type")
        texts.append(item)
    return Requirements(level=level, texts=tuple(texts))


def parse_environment(network_text: str, config_text: str,
                      requirements_text: str) -> TerminalEnv:
    """Parse and cross-validate the three environment documents."""
    return TerminalEnv(
        network=parse_network(network_text),
        fleet=parse_fleet_config(config_text),
        requirements=parse_requirements(requirements_text),
    )


@cache
def _packaged_network() -> Network:
    return parse_network(DEFAULT_NETWORK_FILE.read_text(encoding="utf-8"))


def default_network() -> Network:
    """The standard benchmark grid (4 x 5 nodes, 64 directed edges).

    `DEFAULT_NETWORK_FILE` is parsed once per process; every call returns
    a new `Network` of its nodes and edges, so each caller owns its memos
    and link index."""
    packaged = _packaged_network()
    return Network(nodes=packaged.nodes, edges=packaged.edges)


def env_digest(env: TerminalEnv) -> str:
    """Compact deterministic text rendering of an environment.

    Used both inside prompts and as the `env_digest` field of stored
    exemplars, so it must stay stable across runs.  Joins the digests
    cached on the network and the fleet, which relies on the `attributes`
    dicts never being mutated after construction (nothing here does).
    """
    return env.network.digest + "\n" + env.fleet.digest


def _vehicle_number(vehicle_id: str) -> str:
    match = re.search(r"(\d+)$", vehicle_id)
    return match.group(1) if match else vehicle_id


def scenario_prompt(spec: ScenarioSpec, level: str) -> str:
    """The natural-language requirement for (scenario, expertise level)."""
    if level not in EXPERTISE_LEVELS:
        raise UnknownCombination(f"unknown expertise level '{level}'")
    if spec.kind == "road_closure":
        u, v = spec.edge
        if level == "technician":
            return f"That road between node {u} and node {v} can't be used today."
        if level == "engineer":
            return (f"Attention: The bidirectional road segment connecting nodes "
                    f"({u}, {v}) is completely closed.")
        return (f"The model must satisfy a topology constraint: remove the edge "
                f"subset E' = {{({u},{v}), ({v},{u})}} from the network graph.")
    if spec.kind == "forbidden_edge_vehicle":
        u, v = spec.edge
        vid = spec.vehicle
        if level == "technician":
            return (f"{vid} in the fleet is one of those extra-tall ones; it can't "
                    f"get under the low bridge between node {u} and node {v}.")
        if level == "engineer":
            return (f"Attention: {vid} in the fleet is an over-height vehicle and "
                    f"cannot pass through the bidirectional height-restricted "
                    f"gantry connecting ({u}, {v}).")
        num = _vehicle_number(vid)
        return (f"A vehicle-path compatibility constraint must be enforced: for "
                f"v={num}, the decision variable x_ve must be 0 for all e in "
                f"{{({u},{v}), ({v},{u})}}.")
    if spec.kind == "designated_route":
        tid = spec.task
        nodes = spec.nodes
        if level == "technician":
            hops = ", then ".join(
                f"go from {a} to {b}" if i == 0 else f"from {a} to {b}"
                for i, (a, b) in enumerate(zip(nodes, nodes[1:]))
            )
            return (f"The container for {tid} has dangerous goods, so it has to "
                    f"stick to the safe route: {hops}. No exceptions.")
        if level == "engineer":
            corridor = "->".join(str(n) for n in nodes)
            return (f"Task {tid} involves dangerous goods and must follow the "
                    f"designated one-way safety corridor ({corridor}).")
        seq = ", ".join(str(n) for n in nodes)
        return (f"A mandatory subpath constraint must be applied to the AGV "
                f"assigned to task {tid}, ensuring its solution path contains "
                f"the subsequence ({seq}).")
    raise UnknownCombination(f"unknown scenario kind '{spec.kind}'")
