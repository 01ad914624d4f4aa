"""Exact solver for per-vehicle constrained shortest paths.

The dispatch objective decomposes per vehicle (no inter-vehicle
coupling), so the global optimum is the sum of independent constrained
shortest-path solves.  Paths may revisit nodes but never reuse a
directed edge; among equal-cost paths the lexicographically smallest
node sequence wins, which makes every result deterministic.

`bind` (from a program) and `scenario_constraints` (from a scenario)
fill one `Constraints` record, which `solve` reads in one walk over the
fleet's trips: `solve_route` routes each vehicle on the common view, or
on a view of its own if it has links of its own removed.
A network's links are indexed once, in `Network.adjacency`: per node,
the network's own outgoing `Edge` objects sorted by target and incoming
ones sorted by source.  Every `RoadGraph` is a view of one network that
shares those tuples and, per removed-link set, one filtered copy of the
tuples its removed links touch.  A search runs Dijkstra from the target
over reversed links until the source settles, then walks forward from
the source, always to the smallest neighbour on a shortest route.

Found routes are memoized on the `env.Network` a view comes from, keyed
by (removed links, source, target) and kept as long as that network
object, so generation, the oracle and every transfer on it solve each
route once.  Infeasible and timed-out searches are not stored.

A reverse search can be resumed.  From a (removed links, target)'s
second request on, its distances, settle order and heap are kept, and a
later source either is settled already or resumes the heap until it
settles.  That state lives on the common view `solve` keeps on its
`Constraints` record, not on the network, so it is dropped with the
record: instance generation shares one record over all its draws.
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Iterable

from . import dsl
from .env import Links, Network, ScenarioSpec, TerminalEnv, Trips
from .errors import ConfigError, VdsAgentError

DEFAULT_TIME_LIMIT = 300.0


def check_time_limit(time_limit: float) -> None:
    """A time limit is seconds > 0; inf means none.  NaN is rejected."""
    if not time_limit > 0:
        raise ConfigError(f"time limit must be > 0 seconds, got {time_limit}")


# A search reads the clock once per this many heap pops.
CLOCK_EVERY = 256

_now = time.monotonic  # patched in tests to exercise the timeout path


class RoadGraph:
    """A network's links minus `removed`: the graph one vehicle drives on.

    `RoadGraph(network)` takes the network's link tuples
    (`Network.adjacency`), route memo (`Network.routes`) and cut memo
    (`Network.cuts`), and every view `without` derives shares all three,
    so a vehicle's graph costs only the links it loses, filtered once per
    distinct removed-link set.  There is no length dict: `length(u, v)`
    is `Network.length` for a link the view has not removed.
    """

    def __init__(self, network: Network):
        self._network = network
        self._succ, self._pred = network.adjacency
        self._routes = network.routes
        self._cuts = network.cuts
        # resumable searches, shared by the views derived from this one
        self._searches: dict[tuple, tuple] = {}
        self.removed: frozenset[tuple[int, int]] = frozenset()
        # link tuples of the nodes a removed link touches, filtered
        self._cut_succ: Links = {}
        self._cut_pred: Links = {}

    def length(self, u: int, v: int) -> float | None:
        """The length of link (u, v), or None when the view lacks it."""
        return None if (u, v) in self.removed else self._network.length(u, v)

    def without(self, edges: Iterable[tuple[int, int]]) -> RoadGraph:
        """A view that also lacks `edges`; links not in it are ignored.

        Per removed-link set, `Network.cuts` keeps one set object, so
        route-memo keys compare by identity, and the filtered tuples.  It
        holds no view: a view holding the memo that holds it would be a
        reference cycle, outliving its network until a full collection.
        """
        gone = self.removed.union(
            (u, v) for u, v in edges if self.length(u, v) is not None)
        if gone == self.removed:
            return self
        cut = self._cuts.get(gone)
        if cut is None:
            cut = self._cuts[gone] = (
                gone,
                {u: tuple(e for e in self._succ[u]
                          if (u, e.target) not in gone) for u, _ in gone},
                {v: tuple(e for e in self._pred[v]
                          if (e.source, v) not in gone) for _, v in gone})
        # a shallow copy, several times cheaper than copy.copy
        view = object.__new__(RoadGraph)
        view.__dict__.update(self.__dict__)
        view.removed, view._cut_succ, view._cut_pred = cut
        return view


class SolveError(VdsAgentError):
    """A bind or solve failure, classified by `kind`.

    Kinds: bind_unknown_node, bind_unknown_edge, bind_unknown_vehicle,
    bind_conflict, infeasible, timeout, degenerate_edge_reuse.
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
class Constraints:
    """Which links each vehicle loses and which route it must follow.

    `removed` is closed to all vehicles, `removed_for[v]` to vehicle v
    only, and `required[v]` is v's path requirement.  `solve` keeps its
    common view, with the searches run on it, on the record, so the
    record and the collections it holds must not be mutated after its
    first `solve`.
    """

    removed: Iterable[tuple[int, int]] = frozenset()
    removed_for: Mapping[str, Iterable[tuple[int, int]]] = field(
        default_factory=dict)
    required: Mapping[str, PathRequirement] = field(default_factory=dict)
    _common: RoadGraph | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def common_view(self, network: Network) -> RoadGraph:
        """The view of `network` without `removed`, built once per network."""
        view = self._common
        if view is None or view._network is not network:
            view = RoadGraph(network).without(self.removed)
            object.__setattr__(self, "_common", view)
        return view


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


def shortest_path(graph: RoadGraph, source: int, target: int,
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

    The clock is read every CLOCK_EVERY heap pops; past `deadline` the
    search raises timeout.

    A found route is memoized under (removed links, source, target) in
    the memo of the graph's network, living as long as it; infeasible and
    timed-out searches raise and store no route.  The Dijkstra itself is
    kept on the graph's views from the second request for its (removed
    links, target) on: a settled source goes straight to the walk, an
    unsettled one resumes the heap, and once the heap is empty every
    other source is infeasible.  Settle order does not depend on where a
    search stops, so a resumed search finds the route a fresh one would.
    """
    key = (graph.removed, source, target)
    route = graph._routes.get(key)
    if route is None:
        route = graph._routes[key] = _search(graph, source, target, deadline)
    return route


def _search(graph: RoadGraph, source: int, target: int,
            deadline: float) -> tuple[float, tuple[int, ...]]:
    if source == target:
        return 0.0, (source,)
    key = (graph.removed, target)
    state = graph._searches.get(key)
    if not state:  # the first request leaves a marker, the second its state
        fresh = ({target: 0.0}, {}, [(0.0, target)])
        graph._searches[key] = () if state is None else fresh
        state = fresh
    dist, rank, heap = state  # rank is the settle order
    pred, cut_pred = graph._pred, graph._cut_pred
    pops = 0
    while source not in rank:  # a settled node's links are relaxed
        if not heap:
            raise SolveError("infeasible", f"no path from {source} to {target}")
        pops += 1
        if pops % CLOCK_EVERY == 0 and _now() > deadline:
            raise SolveError("timeout", "deadline passed during search")
        d, node = heapq.heappop(heap)
        if node in rank:
            continue
        rank[node] = len(rank)
        into = cut_pred[node] if node in cut_pred else pred.get(node, ())
        for link in into:
            prev, nd = link.source, d + link.length
            if nd < dist.get(prev, math.inf):
                dist[prev] = nd
                heapq.heappush(heap, (nd, prev))
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


def _edge_cost(graph: RoadGraph, path: tuple[int, ...]) -> float:
    total = 0.0
    for u, v in zip(path, path[1:]):
        length = graph.length(u, v)
        if length is None:
            raise SolveError("infeasible", f"edge ({u}, {v}) not available")
        total += length
    return total


def solve_route(graph: RoadGraph, od: tuple[int, int] | None,
                req: PathRequirement | None,
                deadline: float) -> tuple[float, tuple[int, ...]]:
    """One vehicle's cheapest route on `graph` meeting `req`; a vehicle
    without a trip (`od` None) costs 0 on the empty path."""
    if od is None:
        return 0.0, ()
    source, target = od
    if req is None:
        return shortest_path(graph, source, target, deadline)
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
        return _edge_cost(graph, path), path
    # subpath: shortest head and tail around the forced segment
    forced_cost = _edge_cost(graph, req.nodes)
    head_cost, head = shortest_path(graph, source, req.nodes[0], deadline)
    tail_cost, tail = shortest_path(graph, req.nodes[-1], target, deadline)
    full = head + req.nodes[1:] + tail[1:]
    dup = _duplicate_edge(full)
    if dup is not None:
        raise SolveError("degenerate_edge_reuse",
                         f"subpath solution reuses edge {dup}")
    return head_cost + forced_cost + tail_cost, full


def solve(constraints: Constraints, network: Network, trips: Trips,
          time_limit: float = DEFAULT_TIME_LIMIT) -> Solution:
    """Route every vehicle of `trips` (vehicle -> OD pair or None, in the
    solution's order) under `constraints`; Z is the sum of their costs.

    The time limit holds between vehicles and inside each search.
    """
    check_time_limit(time_limit)
    deadline = _now() + time_limit
    common = constraints.common_view(network)
    removed_for, required = constraints.removed_for, constraints.required
    paths: dict[str, tuple[int, ...]] = {}
    costs: dict[str, float] = {}
    total = 0.0
    for vehicle, od in trips.items():
        if _now() > deadline:
            raise SolveError("timeout",
                             f"time limit of {time_limit}s exceeded")
        banned = removed_for.get(vehicle)
        graph = common if banned is None else common.without(banned)
        try:
            cost, path = solve_route(graph, od, required.get(vehicle),
                                     deadline)
        except SolveError as exc:
            raise SolveError(exc.kind,
                             f"vehicle {vehicle}: {exc.detail}") from exc
        paths[vehicle] = path
        costs[vehicle] = cost
        total += cost
    return Solution(paths=paths, costs=costs, objective=total)


def _resolve_subject(subject: dsl.SubjectRef, env: TerminalEnv) -> str:
    if subject.kind == "vehicle":
        if subject.ident not in env.fleet.trips:
            raise SolveError("bind_unknown_vehicle",
                             f"unknown vehicle {subject.ident}")
        return subject.ident
    vehicle = env.fleet.task_vehicle.get(subject.ident)
    if vehicle is None:
        raise SolveError("bind_unknown_vehicle",
                         f"unknown task {subject.ident}")
    return vehicle


def _check_nodes(nodes: Iterable[int], known: frozenset[int]) -> None:
    for node in nodes:
        if node not in known:
            raise SolveError("bind_unknown_node",
                             f"statement references unknown node {node}")


def _check_link(source: int, target: int, network: Network) -> None:
    """Both nodes are known and the network has the link source -> target."""
    _check_nodes((source, target), network.node_ids)
    if network.length(source, target) is None:
        raise SolveError("bind_unknown_edge", f"statement references "
                         f"unknown edge ({source}, {target})")


def bind(ast: dsl.ModelAst, env: TerminalEnv) -> Constraints:
    """Ground a checked program against an environment.

    Assumes static_check(ast) passed.  Statements apply in program order
    to one `Constraints` record, returned for `solve`.  A path
    requirement on a vehicle without a task is a bind_conflict.
    """
    removed: set[tuple[int, int]] = set()
    removed_for: dict[str, set[tuple[int, int]]] = {}
    required: dict[str, PathRequirement] = {}
    trips = env.fleet.trips
    for stmt in ast.statements:
        if isinstance(stmt, dsl.FlowBalanceAll):
            continue
        if isinstance(stmt, dsl.RemoveEdge):
            _check_link(stmt.source, stmt.target, env.network)
            removed.add((stmt.source, stmt.target))
        elif isinstance(stmt, dsl.ForbidEdge):
            _check_link(stmt.source, stmt.target, env.network)
            vehicle = _resolve_subject(stmt.subject, env)
            removed_for.setdefault(vehicle, set()).add(
                (stmt.source, stmt.target))
        else:
            _check_nodes(stmt.nodes, env.network.node_ids)
            vehicle = _resolve_subject(stmt.subject, env)
            if vehicle in required:
                raise SolveError(
                    "bind_conflict",
                    f"multiple path requirements bound to vehicle {vehicle}")
            kind = "exact" if isinstance(stmt, dsl.RequireExactPath) else "subpath"
            od = trips[vehicle]
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
    return Constraints(removed, removed_for, required)


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
        constraints = scenario_constraints(spec, env.fleet.task_vehicle)
    return solve(constraints, env.network, env.fleet.trips, time_limit)
