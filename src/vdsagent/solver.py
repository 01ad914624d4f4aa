"""Exact solver for per-vehicle constrained shortest paths.

The dispatch objective decomposes per vehicle (no inter-vehicle
coupling), so the global optimum is the sum of independent constrained
shortest-path solves.  Paths may revisit nodes but never reuse a
directed edge; among equal-cost paths the lexicographically smallest
node sequence wins, which makes every result deterministic.

`bind` (from a program) and `scenario_constraints` (from a scenario)
fill one `Constraints` record, which alone builds vehicle problems.
A network's links are indexed once, in `Network.adjacency`: per node,
the network's own outgoing `Edge` objects sorted by target and incoming
ones sorted by source.  Every `RoadGraph` of it shares those tuples, and
each vehicle gets a view without its removed links.  A search runs
Dijkstra from the target over reversed links until the source settles,
then walks forward from the source, always to the smallest neighbour on
a shortest route.

Found routes are memoized on the `env.Network` a graph comes from, keyed
by (removed links, source, target) and kept as long as that network
object, so generation, the oracle and every transfer on it solve each
route once.  Infeasible and timed-out searches are not stored.
"""

from __future__ import annotations

import copy
import heapq
import math
import time
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any, Iterable

from . import dsl
from .env import Edge, Links, Network, ScenarioSpec, TerminalEnv, index_links
from .errors import ConfigError, VdsAgentError

DEFAULT_TIME_LIMIT = 300.0


def check_time_limit(time_limit: float) -> None:
    """A time limit is seconds > 0; inf means none.  NaN is rejected."""
    if not time_limit > 0:
        raise ConfigError(f"time limit must be > 0 seconds, got {time_limit}")


# A search reads the clock once per this many heap pops.
CLOCK_EVERY = 256

_now = time.monotonic  # patched in tests to exercise the timeout path

EdgeMap = Mapping[tuple[int, int], float]


class RoadGraph(EdgeMap):
    """Read-only map (u, v) -> length: a network's links minus `removed`.

    The link tuples of `env.index_links` are shared by every view
    `without` derives, so a vehicle's graph costs only the links it loses.
    So is the route memo.  `RoadGraph.of` takes both from the network; a
    graph from a plain mapping indexes it and keeps a private memo.  There
    is no length dict: looking up (u, v) scans u's successor tuple.
    """

    def __init__(self, lengths: EdgeMap):
        self._succ, self._pred = index_links(
            Edge(u, v, w) for (u, v), w in lengths.items())
        self.removed: frozenset[tuple[int, int]] = frozenset()
        # link tuples of the nodes a removed link touches, filtered
        self._cut_succ: Links = {}
        self._cut_pred: Links = {}
        self._routes: dict[tuple, tuple[float, tuple[int, ...]]] = {}

    @classmethod
    def of(cls, network: Network) -> RoadGraph:
        """The network's shared adjacency and route memo."""
        graph = cls({})
        graph._succ, graph._pred = network.adjacency
        graph._routes = network.routes
        return graph

    def without(self, edges: Iterable[tuple[int, int]]) -> RoadGraph:
        """A view that also lacks `edges`; links not in it are ignored."""
        gone = self.removed.union(e for e in edges if e in self)
        if gone == self.removed:
            return self
        view = copy.copy(self)
        view.removed = gone
        view._cut_succ = {u: tuple(e for e in self._succ[u]
                                   if (u, e.target) not in gone)
                          for u, _ in gone}
        view._cut_pred = {v: tuple(e for e in self._pred[v]
                                   if (e.source, v) not in gone)
                          for _, v in gone}
        return view

    def __getitem__(self, edge: tuple[int, int]) -> float:
        if edge not in self.removed:
            for link in self._succ.get(edge[0], ()):
                if link.target == edge[1]:
                    return link.length
        raise KeyError(edge)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        links = ((e.source, e.target)
                 for out in self._succ.values() for e in out)
        return (edge for edge in links if edge not in self.removed)

    def __len__(self) -> int:
        return sum(map(len, self._succ.values())) - len(self.removed)


class SolveError(VdsAgentError):
    """A bind or solve failure, classified by `kind`.

    Kinds: bind_unknown_node, bind_unknown_vehicle, bind_conflict,
    infeasible, timeout, degenerate_edge_reuse.
    """

    def __init__(self, kind: str, detail: str):
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind}: {detail}")


@dataclass(frozen=True)
class PathRequirement:
    kind: str  # "subpath" | "exact"
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))


@dataclass(frozen=True)
class VehicleProblem:
    vehicle: str
    od: tuple[int, int] | None
    edges: EdgeMap  # a RoadGraph view, or any mapping (indexed per search)
    requirement: PathRequirement | None = None


@dataclass(frozen=True)
class SolverInstance:
    vehicles: tuple[VehicleProblem, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vehicles", tuple(self.vehicles))
        seen = set()
        for vp in self.vehicles:
            if vp.vehicle in seen:
                raise SolveError("bind_conflict",
                                 f"vehicle {vp.vehicle} appears twice")
            seen.add(vp.vehicle)


@dataclass(frozen=True)
class Constraints:
    """Which links each vehicle loses and which route it must follow.

    `removed` is closed to all vehicles, `removed_for[v]` to vehicle v
    only, and `required[v]` is v's path requirement.
    """

    removed: Iterable[tuple[int, int]] = frozenset()
    removed_for: Mapping[str, Iterable[tuple[int, int]]] = field(
        default_factory=dict)
    required: Mapping[str, PathRequirement] = field(default_factory=dict)

    def problem(self, common: RoadGraph, vehicle: str,
                od: tuple[int, int] | None) -> VehicleProblem:
        """Vehicle's problem on `common` (the network minus `removed`),
        or on a view of it when the vehicle has links of its own removed."""
        banned = self.removed_for.get(vehicle)
        return VehicleProblem(
            vehicle=vehicle, od=od,
            edges=common if banned is None else common.without(banned),
            requirement=self.required.get(vehicle))

    def instance(self, env: TerminalEnv) -> SolverInstance:
        """Every vehicle of the fleet, in fleet order, on one shared graph."""
        common = RoadGraph.of(env.network).without(self.removed)
        ods = {t.agv: (t.origin, t.destination) for t in env.fleet.tasks}
        return SolverInstance(vehicles=tuple(
            self.problem(common, a.id, ods.get(a.id))
            for a in env.fleet.agvs))


@dataclass(frozen=True)
class Solution:
    paths: dict[str, tuple[int, ...]]
    costs: dict[str, float]
    objective: float

    def to_dict(self) -> dict[str, Any]:
        """JSON form: objective, then paths as lists, then costs."""
        return {"objective": self.objective,
                "paths": {v: list(p) for v, p in self.paths.items()},
                "costs": dict(self.costs)}


def shortest_path(edges: EdgeMap, source: int, target: int,
                  deadline: float = math.inf) -> tuple[float, tuple[int, ...]]:
    """Cheapest route source -> target over positive lengths.

    Dijkstra runs from the target over reversed links, keyed by node, and
    stops once the source settles, giving d(u), the distance from u to the
    target.  A forward walk from the source then steps from each u to the
    smallest successor v with w(u, v) + d(v) == d(u), taking only nodes
    settled before u.  Every optimal route is node-simple and ends at the
    target, so this greedy walk yields the lexicographically smallest
    optimal node sequence.  The tie-break is exact whenever path sums are
    exact in binary floating point, which covers integer lengths and so
    every packaged and generated network; with other lengths the route is
    optimal up to float rounding.  The walk always terminates: each step
    goes to a node settled earlier.  The cost returned is the forward sum
    of lengths along the route.

    A plain mapping is indexed into a RoadGraph first.  The clock is read
    every CLOCK_EVERY heap pops; past `deadline` the search raises timeout.

    A found route is memoized under (removed links, source, target) in
    the graph's memo (the network's, for `RoadGraph.of`, living as long
    as it); infeasible and timed-out searches raise and store nothing.
    """
    graph = edges if isinstance(edges, RoadGraph) else RoadGraph(edges)
    key = (graph.removed, source, target)
    route = graph._routes.get(key)
    if route is None:
        route = graph._routes[key] = _search(graph, source, target, deadline)
    return route


def _search(graph: RoadGraph, source: int, target: int,
            deadline: float) -> tuple[float, tuple[int, ...]]:
    if source == target:
        return 0.0, (source,)
    pred, cut_pred = graph._pred, graph._cut_pred
    dist: dict[int, float] = {target: 0.0}
    rank: dict[int, int] = {}  # settle order
    heap: list[tuple[float, int]] = [(0.0, target)]
    pops = 0
    while heap:
        pops += 1
        if pops % CLOCK_EVERY == 0 and _now() > deadline:
            raise SolveError("timeout", "deadline passed during search")
        d, node = heapq.heappop(heap)
        if node in rank:
            continue
        rank[node] = len(rank)
        if node == source:
            break
        into = cut_pred[node] if node in cut_pred else pred.get(node, ())
        for link in into:
            prev, nd = link.source, d + link.length
            if nd < dist.get(prev, math.inf):
                dist[prev] = nd
                heapq.heappush(heap, (nd, prev))
    else:
        raise SolveError("infeasible", f"no path from {source} to {target}")
    succ, cut_succ = graph._succ, graph._cut_succ
    path = [source]
    cost = 0.0
    node = source
    while node != target:
        here, limit = dist[node], rank[node]
        for link in (cut_succ[node] if node in cut_succ else succ[node]):
            nxt = link.target
            if rank.get(nxt, limit) < limit and link.length + dist[nxt] == here:
                break
        path.append(nxt)
        cost += link.length
        node = nxt
    return cost, tuple(path)


def _duplicate_edge(path: Iterable[int]) -> tuple[int, int] | None:
    seen: set[tuple[int, int]] = set()
    prev = None
    for node in path:
        if prev is not None:
            edge = (prev, node)
            if edge in seen:
                return edge
            seen.add(edge)
        prev = node
    return None


def _edge_cost(edges: EdgeMap, path: tuple[int, ...]) -> float:
    total = 0.0
    for u, v in zip(path, path[1:]):
        if (u, v) not in edges:
            raise SolveError("infeasible", f"edge ({u}, {v}) not available")
        total += edges[(u, v)]
    return total


def _solve_vehicle(vp: VehicleProblem,
                   deadline: float) -> tuple[float, tuple[int, ...]]:
    if vp.od is None:
        return 0.0, ()
    source, target = vp.od
    req = vp.requirement
    if req is None:
        return shortest_path(vp.edges, source, target, deadline)
    if req.kind == "exact":
        path = req.nodes
        if path[0] != source or path[-1] != target:
            raise SolveError(
                "bind_conflict",
                f"exact path endpoints ({path[0]}, {path[-1]}) do not match "
                f"OD pair ({source}, {target})")
        dup = _duplicate_edge(path)
        if dup is not None:
            raise SolveError("degenerate_edge_reuse",
                             f"exact path reuses edge {dup}")
        return _edge_cost(vp.edges, path), path
    # subpath: shortest head and tail around the forced segment
    forced_cost = _edge_cost(vp.edges, req.nodes)
    head_cost, head = shortest_path(vp.edges, source, req.nodes[0], deadline)
    tail_cost, tail = shortest_path(vp.edges, req.nodes[-1], target, deadline)
    full = head + req.nodes[1:] + tail[1:]
    dup = _duplicate_edge(full)
    if dup is not None:
        raise SolveError("degenerate_edge_reuse",
                         f"subpath solution reuses edge {dup}")
    return head_cost + forced_cost + tail_cost, full


def solve(instance: SolverInstance,
          time_limit: float = DEFAULT_TIME_LIMIT) -> Solution:
    """Solve every vehicle problem; Z is the sum of per-vehicle costs.

    The time limit holds between vehicles and inside each search.
    """
    check_time_limit(time_limit)
    deadline = _now() + time_limit
    paths: dict[str, tuple[int, ...]] = {}
    costs: dict[str, float] = {}
    total = 0.0
    for vp in instance.vehicles:
        if _now() > deadline:
            raise SolveError("timeout",
                             f"time limit of {time_limit}s exceeded")
        try:
            cost, path = _solve_vehicle(vp, deadline)
        except SolveError as exc:
            raise SolveError(exc.kind,
                             f"vehicle {vp.vehicle}: {exc.detail}") from exc
        paths[vp.vehicle] = path
        costs[vp.vehicle] = cost
        total += cost
    return Solution(paths=paths, costs=costs, objective=total)


def _resolve_subject(subject: dsl.SubjectRef, env: TerminalEnv) -> str:
    if subject.kind == "vehicle":
        if subject.ident not in {a.id for a in env.fleet.agvs}:
            raise SolveError("bind_unknown_vehicle",
                             f"unknown vehicle {subject.ident}")
        return subject.ident
    task = env.fleet.task_by_id(subject.ident)
    if task is None:
        raise SolveError("bind_unknown_vehicle",
                         f"unknown task {subject.ident}")
    return task.agv


def _check_nodes(nodes: Iterable[int], known: frozenset[int]) -> None:
    for node in nodes:
        if node not in known:
            raise SolveError("bind_unknown_node",
                             f"statement references unknown node {node}")


def bind(ast: dsl.ModelAst, env: TerminalEnv) -> SolverInstance:
    """Ground a checked program against an environment.

    Assumes static_check(ast) passed.  Statements apply in program order
    to one `Constraints` record, which covers every vehicle exactly once.
    A path requirement on a vehicle without a task is a bind_conflict.
    """
    known = env.network.node_ids()
    removed: set[tuple[int, int]] = set()
    removed_for: dict[str, set[tuple[int, int]]] = {}
    required: dict[str, PathRequirement] = {}
    ods = {t.agv: (t.origin, t.destination) for t in env.fleet.tasks}
    for stmt in ast.statements:
        if isinstance(stmt, dsl.FlowBalanceAll):
            continue
        if isinstance(stmt, dsl.RemoveEdge):
            _check_nodes((stmt.source, stmt.target), known)
            removed.add((stmt.source, stmt.target))
        elif isinstance(stmt, dsl.ForbidEdge):
            _check_nodes((stmt.source, stmt.target), known)
            vehicle = _resolve_subject(stmt.subject, env)
            removed_for.setdefault(vehicle, set()).add(
                (stmt.source, stmt.target))
        else:
            _check_nodes(stmt.nodes, known)
            vehicle = _resolve_subject(stmt.subject, env)
            if vehicle in required:
                raise SolveError(
                    "bind_conflict",
                    f"multiple path requirements bound to vehicle {vehicle}")
            kind = "exact" if isinstance(stmt, dsl.RequireExactPath) else "subpath"
            od = ods.get(vehicle)
            if od is None:
                raise SolveError(
                    "bind_conflict",
                    f"{kind} path requirement bound to vehicle {vehicle} "
                    f"which has no task")
            first, last = stmt.nodes[0], stmt.nodes[-1]
            if kind == "exact" and (first, last) != od:
                raise SolveError(
                    "bind_conflict",
                    f"exact path endpoints ({first}, {last}) "
                    f"do not match OD pair {od} of vehicle {vehicle}")
            required[vehicle] = PathRequirement(kind, stmt.nodes)
    return Constraints(removed, removed_for, required).instance(env)


def scenario_constraints(spec: ScenarioSpec,
                         task_vehicle: Mapping[str, str]) -> Constraints:
    """A scenario's constraints; closures and bans cover both directions.

    `task_vehicle` maps task id -> vehicle id.  Reads no program.
    """
    if spec.kind == "designated_route":
        return Constraints(required={
            task_vehicle[spec.task]: PathRequirement("subpath", spec.nodes)})
    both = frozenset({spec.edge, spec.edge[::-1]})
    if spec.kind == "road_closure":
        return Constraints(removed=both)
    return Constraints(removed_for={spec.vehicle: both})


def oracle_solve(env: TerminalEnv, spec: ScenarioSpec | None,
                 time_limit: float = DEFAULT_TIME_LIMIT) -> Solution:
    """Ground-truth solve built directly from a structured scenario.

    Bypasses the language and bind entirely: the constraint record comes
    from the ScenarioSpec fields, then the same exact path algebra runs.
    """
    constraints = Constraints()
    if spec is not None:
        spec.validate_against(env)
        constraints = scenario_constraints(
            spec, {t.id: t.agv for t in env.fleet.tasks})
    return solve(constraints.instance(env), time_limit)
