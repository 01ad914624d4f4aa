import math
import random
from fractions import Fraction

import pytest

from helpers import (grid_edges, min_simple_path, min_walk, network_from,
                     path_cost, path_heap_dijkstra)
from vdsagent import bench, dsl
from vdsagent import injection as inj
from vdsagent import solver as sv
from vdsagent.env import (SCENARIO_KINDS, Agv, FleetConfig, Network, Node, Edge,
                          Requirements, ScenarioSpec, Task, TerminalEnv,
                          default_network)
from vdsagent.errors import ConfigError
from vdsagent.injection import CORRECT_PROGRAMS
from vdsagent.instances import fixed_scenario, generate_instances
from vdsagent.knowledge import load_seed_kb


def triangle_edges():
    return {(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 1): 1, (0, 2): 3, (2, 0): 3}


def four_cycle_edges():
    edges = {}
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        edges[(u, v)] = 1
        edges[(v, u)] = 1
    return edges


def env_for(network, task_specs):
    """task_specs: list of (agv_id, task_id, origin, destination)."""
    agvs = tuple(Agv(a) for a, _, _, _ in task_specs)
    tasks = tuple(Task(t, a, o, d) for a, t, o, d in task_specs)
    return TerminalEnv(network=network,
                       fleet=FleetConfig(agvs=agvs, tasks=tasks),
                       requirements=Requirements("engineer", ()))


def grid_env(task_specs):
    return env_for(default_network(), task_specs)


def graph_of(edges, nodes):
    """The solver's view of the network built from `edges` over `nodes`."""
    return sv.RoadGraph(network_from(edges, nodes))


@pytest.fixture
def grid_graph(grid_lengths):
    """The default grid, built from `grid_lengths`, with a fresh memo."""
    return graph_of(grid_lengths, range(20))


class TestShortestPath:
    def test_triangle_fixture(self):
        # brute force first: direct edge costs 3, detour costs 2
        assert min_simple_path(triangle_edges(), 0, 2) == \
            (Fraction(2), (0, 1, 2))
        assert sv.shortest_path(graph_of(triangle_edges(), range(3)), 0, 2) \
            == (2.0, (0, 1, 2))

    def test_default_grid_fixture(self, grid_lengths, grid_graph):
        assert min_simple_path(grid_lengths, 0, 4) == \
            (Fraction(40), (0, 1, 2, 3, 4))
        assert sv.shortest_path(grid_graph, 0, 4) == \
            (40.0, (0, 1, 2, 3, 4))

    def test_lexicographic_tie_break(self, grid_graph):
        # many 40-cost routes 0 -> 4 exist; the returned one is lex-least
        cost, path = sv.shortest_path(grid_graph, 0, 4)
        assert cost == 40.0
        assert path == (0, 1, 2, 3, 4)
        cost, path = sv.shortest_path(grid_graph, 0, 12)
        assert cost == 40.0
        assert path == (0, 1, 2, 7, 12)

    def test_source_equals_target(self):
        assert sv.shortest_path(graph_of(triangle_edges(), range(3)), 1, 1) \
            == (0.0, (1,))

    def test_infeasible(self):
        with pytest.raises(sv.SolveError) as exc:
            sv.shortest_path(graph_of({(0, 1): 1}, range(2)), 1, 0)
        assert exc.value.kind == "infeasible"

    def test_random_graphs_match_brute_force(self):
        # integer lengths, then multiples of 0.1, whose path sums round
        rng = random.Random(11)
        for scale in (1, 10):
            for _ in range(150):
                n = rng.randrange(2, 7)
                nodes = list(range(n))
                pairs = [(u, v) for u in nodes for v in nodes if u != v]
                rng.shuffle(pairs)
                edges = {p: rng.randrange(1, 20 * scale) / scale
                         for p in pairs[:rng.randrange(1, 11)]}
                source, target = rng.sample(nodes, 2)
                graph = graph_of(edges, nodes)
                expected = min_simple_path(edges, source, target)
                if expected is None:
                    with pytest.raises(sv.SolveError):
                        sv.shortest_path(graph, source, target)
                    continue
                cost, path = sv.shortest_path(graph, source, target)
                assert cost == sum(edges[e] for e in zip(path, path[1:]))
                if scale == 1:
                    assert Fraction(cost) == expected[0]
                    assert path == expected[1]
                else:
                    # the walk ended on a node-simple route that is
                    # optimal up to float rounding
                    assert path[0] == source and path[-1] == target
                    assert len(set(path)) == len(path)
                    exact = path_cost(edges, path)
                    assert abs(exact - expected[0]) < Fraction(1, 10**9)

    def test_matches_path_heap_reference_on_grids(self):
        # uniform lengths put equal-cost ties everywhere
        rng = random.Random(2)
        for side in (10, 20, 40):
            full = grid_edges(side)
            for _ in range(60):
                share = rng.choice((0.0, 0.1, 0.3))
                edges = dict(full)
                for u, v in rng.sample(sorted(full), int(share * len(full))):
                    edges.pop((u, v), None)
                    edges.pop((v, u), None)
                source, target = rng.sample(range(side * side), 2)
                graph = graph_of(edges, range(side * side))
                expected = path_heap_dijkstra(edges, source, target)
                if expected is None:
                    with pytest.raises(sv.SolveError) as exc:
                        sv.shortest_path(graph, source, target)
                    assert exc.value.kind == "infeasible"
                else:
                    assert sv.shortest_path(graph, source, target) == expected


class TestRouteMemo:
    @pytest.fixture
    def searches(self, monkeypatch):
        """Counts the searches that miss the memo."""
        calls = []
        search = sv._search

        def counted(*args):
            calls.append(args[1:3])
            return search(*args)

        monkeypatch.setattr(sv, "_search", counted)
        return calls

    def test_memoized_routes_match_fresh_search_and_reference(self,
                                                              searches):
        rng = random.Random(5)
        for side in (4, 8, 12):
            full = grid_edges(side)
            network = network_from(full, range(side * side))
            base = sv.RoadGraph(network)
            for _ in range(20):
                cut = rng.sample(sorted(full),
                                 rng.randrange(0, len(full) // 5))
                kept = {e: w for e, w in full.items() if e not in cut}
                for _ in range(5):
                    source, target = rng.sample(range(side * side), 2)
                    view = base.without(cut)  # a new view, an equal key
                    expected = path_heap_dijkstra(kept, source, target)
                    if expected is None:
                        with pytest.raises(sv.SolveError):
                            sv.shortest_path(view, source, target)
                        assert (view.removed, source, target) \
                            not in network.routes
                        continue
                    route = sv.shortest_path(view, source, target)
                    assert route == expected
                    searched = len(searches)
                    assert sv.shortest_path(base.without(cut), source,
                                            target) is route
                    assert len(searches) == searched
                    assert network.routes[(view.removed, source, target)] \
                        is route
                    assert sv._search(view, source, target,
                                      math.inf) == route

    def test_views_with_different_removed_sets_keep_apart(self):
        network = default_network()
        graph = sv.RoadGraph(network)
        closed = graph.without({(6, 7), (7, 6)})
        banned = graph.without({(6, 7)})
        assert sv.shortest_path(closed, 6, 7) == (30.0, (6, 1, 2, 7))
        assert sv.shortest_path(banned, 7, 6) == (10.0, (7, 6))
        assert sv.shortest_path(graph, 6, 7) == (10.0, (6, 7))
        assert sv.shortest_path(closed, 7, 6) == (30.0, (7, 2, 1, 6))
        assert sv.shortest_path(banned, 6, 7) == (30.0, (6, 1, 2, 7))
        assert sorted(network.routes, key=repr) == sorted([
            (closed.removed, 6, 7), (closed.removed, 7, 6),
            (banned.removed, 7, 6), (banned.removed, 6, 7),
            (frozenset(), 6, 7)], key=repr)

    def test_equal_networks_keep_their_own_memo(self, searches):
        first, second = default_network(), default_network()
        assert first == second and first is not second
        route = sv.shortest_path(sv.RoadGraph(first), 0, 19)
        assert route == path_heap_dijkstra(first.lengths(), 0, 19)
        assert list(first.routes.values()) == [route]
        assert second.routes == {}
        # a new view of the same network reads the same memo
        assert sv.shortest_path(sv.RoadGraph(first), 0, 19) is route
        assert sv.shortest_path(sv.RoadGraph(second), 0, 19) == route
        assert list(second.routes.values()) == [route]
        assert len(searches) == 2
        # the memo is no field: equality and hashing ignore it
        assert first == second and hash(first) == hash(second)

    def test_timed_out_search_is_not_stored(self, monkeypatch):
        network = network_from(grid_edges(40), range(40 * 40))
        problem = sv.VehicleProblem("v", (0, 40 * 40 - 1),
                                    sv.RoadGraph(network))
        reads = []

        def clock():
            reads.append(None)
            return 0.0 if len(reads) <= 2 else 1000.0

        monkeypatch.setattr(sv, "_now", clock)
        with pytest.raises(sv.SolveError) as exc:
            single(problem)
        assert exc.value.kind == "timeout"
        assert network.routes == {}
        monkeypatch.setattr(sv, "_now", lambda: 0.0)
        expected = path_heap_dijkstra(grid_edges(40), 0, 40 * 40 - 1)
        assert single(problem) == expected
        assert list(network.routes.values()) == [expected]

    def test_infeasible_search_is_not_stored(self, searches):
        network = Network(nodes=(Node(0), Node(1)), edges=(Edge(0, 1, 1),))
        graph = sv.RoadGraph(network)
        for _ in range(2):
            with pytest.raises(sv.SolveError) as exc:
                sv.shortest_path(graph, 1, 0)
            assert exc.value.kind == "infeasible"
        assert network.routes == {}
        assert searches == [(1, 0), (1, 0)]



def random_digraph(rng):
    """Node ids, a link -> length map and an equal network with extra nodes.

    Ids are sparse, lengths mix integers with 10.5, 2.25 and 1e-7, links
    leave some nodes without out-links or in-links, and the network also
    holds isolated nodes and lists its edges in shuffled order.
    """
    ids = rng.sample(range(3, 5000, 13), rng.randrange(2, 12))
    pairs = [(u, v) for u in ids for v in ids if u != v]
    links = rng.sample(pairs, rng.randrange(0, len(pairs) // 2 + 1))
    lengths = {e: rng.choice((1, 3, 10.5, 2.25, 1e-7, rng.randrange(1, 40)))
               for e in links}
    edges = [Edge(u, v, w) for (u, v), w in lengths.items()]
    rng.shuffle(edges)
    extra = (Node(n) for n in rng.sample(range(5001, 5100), 2))
    network = Network(nodes=(*(Node(n) for n in ids), *extra),
                      edges=tuple(edges))
    return ids, lengths, network


class TestSharedIndex:
    def test_graphs_and_views_share_the_networks_adjacency(self):
        network = default_network()
        succ, pred = network.adjacency
        graphs = [sv.RoadGraph(network), sv.RoadGraph(network)]
        cuts = ((), {(6, 7)}, {(6, 7), (7, 6)}, {(0, 1), (98, 99)})
        for graph in list(graphs):
            graphs += [graph.without(cut) for cut in cuts]
            graphs.append(graph.without({(6, 7)}).without({(5, 6)}))
        for graph in graphs:
            assert graph._succ is succ and graph._pred is pred
        # the tuples hold the network's own Edge objects, each once per side
        for side in (succ, pred):
            held = [e for links in side.values() for e in links]
            assert sorted(map(id, held)) == sorted(map(id, network.edges))
        assert all(tuple(e.target for e in links)
                   == tuple(sorted(e.target for e in links))
                   for links in succ.values())
        assert all(tuple(e.source for e in links)
                   == tuple(sorted(e.source for e in links))
                   for links in pred.values())

    def test_golden_suite_indexes_each_network_once(self, monkeypatch):
        # 3 instance generations, 15 oracle solves and 45 binds
        networks, indexes = [], []
        init = sv.RoadGraph.__init__

        def recorded(graph, network):
            init(graph, network)
            networks.append(network)
            indexes.append(graph._succ)

        monkeypatch.setattr(sv.RoadGraph, "__init__", recorded)
        report = bench.run_benchmark(
            bench.SuiteConfig(seed=3), load_seed_kb(),
            bench.scripted_provider(inj.golden_script()))
        assert report["aggregates"]["overall"]["ssr"] == 1.0
        assert len(indexes) == 63
        assert len({id(network) for network in networks}) == 3
        assert len({id(index) for index in indexes}) == 3

    def test_views_filter_the_networks_links(self):
        rng = random.Random(12)
        for _ in range(200):
            ids, lengths, network = random_digraph(rng)
            absent = [(u, v) for u in ids for v in ids
                      if u != v and (u, v) not in lengths][:3]
            absent += [(ids[0], 5200), (5201, 5202)]
            base = sv.RoadGraph(network)
            for edge in (*lengths, *absent):
                assert base.length(*edge) == lengths.get(edge)
            for _ in range(6):
                cut = set(rng.sample(sorted(lengths),
                                     rng.randrange(0, len(lengths) + 1)))
                cut.update(rng.sample(absent, 2))
                view = base.without(cut)
                expected = {e: w for e, w in lengths.items() if e not in cut}
                assert view.removed == {e for e in cut if e in lengths}
                for edge in (*lengths, *absent):
                    assert view.length(*edge) == expected.get(edge)
                more = set(rng.sample(sorted(expected),
                                      min(2, len(expected))))
                narrower = view.without(more)
                for edge in (*lengths, *absent):
                    assert narrower.length(*edge) == (
                        None if edge in more else expected.get(edge))
                nodes = [n.id for n in network.nodes]
                for _ in range(4):
                    source, target = rng.sample(nodes, 2)
                    route = path_heap_dijkstra(expected, source, target)
                    if route is None:
                        with pytest.raises(sv.SolveError) as exc:
                            sv.shortest_path(view, source, target)
                        assert exc.value.kind == "infeasible"
                    else:
                        assert sv.shortest_path(view, source,
                                                target) == route


def single(problem):
    solution = sv.solve(sv.SolverInstance(vehicles=(problem,)))
    return solution.costs[problem.vehicle], solution.paths[problem.vehicle]


class TestSolve:
    def test_closure_detour_fixture(self, grid_lengths):
        edges = {e: w for e, w in grid_lengths.items()
                 if e not in {(6, 7), (7, 6)}}
        # positive weights: min over edge-simple walks = min over simple paths
        assert min_simple_path(edges, 6, 7) == (Fraction(30), (6, 1, 2, 7))
        cost, path = single(sv.VehicleProblem("v", (6, 7),
                                              graph_of(edges, range(20))))
        assert (cost, path) == (30.0, (6, 1, 2, 7))

    def test_four_cycle_subpath_revisits_node(self):
        # forced (3, 0) from 0 to 2: out-and-back then around
        edges = four_cycle_edges()
        assert min_walk(edges, 0, 2, forced=(3, 0)) == \
            (Fraction(4), (0, 3, 0, 1, 2))
        cost, path = single(sv.VehicleProblem(
            "v", (0, 2), graph_of(edges, range(4)),
            sv.PathRequirement("subpath", (3, 0))))
        assert (cost, path) == (4.0, (0, 3, 0, 1, 2))

    def test_subpath_concatenation_cost(self, grid_graph):
        cost, path = single(sv.VehicleProblem(
            "v", (0, 14), grid_graph,
            sv.PathRequirement("subpath", (6, 10, 11))))
        assert cost == 74.0
        assert path[0] == 0 and path[-1] == 14
        assert any(path[i:i + 3] == (6, 10, 11) for i in range(len(path) - 2))

    def test_subpath_missing_forced_edge(self):
        edges = triangle_edges()
        del edges[(0, 2)]
        with pytest.raises(sv.SolveError) as exc:
            single(sv.VehicleProblem("v", (0, 2), graph_of(edges, range(3)),
                                     sv.PathRequirement("subpath", (0, 2))))
        assert exc.value.kind == "infeasible"

    def test_subpath_reuse_rejected(self):
        # line 0-1-2: travel 0 -> 2 but force (2, 1); returning to 2
        # must re-drive (1, 2), which binary edge variables cannot express
        edges = {(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 1): 1}
        with pytest.raises(sv.SolveError) as exc:
            single(sv.VehicleProblem("v", (0, 2), graph_of(edges, range(3)),
                                     sv.PathRequirement("subpath", (2, 1))))
        assert exc.value.kind == "degenerate_edge_reuse"

    def test_exact_path_cost_and_validation(self, grid_lengths, grid_graph):
        cost, path = single(sv.VehicleProblem(
            "v", (0, 2), grid_graph,
            sv.PathRequirement("exact", (0, 5, 6, 7, 2))))
        assert Fraction(cost) == path_cost(grid_lengths, (0, 5, 6, 7, 2))
        assert path == (0, 5, 6, 7, 2)

    def test_exact_path_endpoint_mismatch(self, grid_graph):
        with pytest.raises(sv.SolveError) as exc:
            single(sv.VehicleProblem("v", (0, 2), grid_graph,
                                     sv.PathRequirement("exact", (0, 1))))
        assert exc.value.kind == "bind_conflict"

    def test_exact_path_missing_edge(self, grid_graph):
        with pytest.raises(sv.SolveError) as exc:
            single(sv.VehicleProblem("v", (0, 2), grid_graph,
                                     sv.PathRequirement("exact", (0, 2))))
        assert exc.value.kind == "infeasible"

    def test_exact_path_edge_reuse(self):
        graph = graph_of({(0, 1): 1, (1, 0): 1}, range(2))
        with pytest.raises(sv.SolveError) as exc:
            single(sv.VehicleProblem("v", (0, 1), graph,
                                     sv.PathRequirement(
                                         "exact", (0, 1, 0, 1))))
        assert exc.value.kind == "degenerate_edge_reuse"

    def test_error_names_vehicle(self):
        with pytest.raises(sv.SolveError) as exc:
            single(sv.VehicleProblem("AGV-17", (0, 1),
                                     graph_of({(1, 0): 1}, range(2))))
        assert "AGV-17" in exc.value.detail

    def test_idle_vehicle_costs_nothing(self):
        graph = graph_of(triangle_edges(), range(3))
        solution = sv.solve(sv.SolverInstance(vehicles=(
            sv.VehicleProblem("idle", None, graph),
            sv.VehicleProblem("busy", (0, 2), graph),
        )))
        assert solution.costs == {"idle": 0.0, "busy": 2.0}
        assert solution.paths["idle"] == ()
        assert solution.objective == 2.0

    def test_objective_sums_vehicles(self, grid_graph):
        problems = tuple(
            sv.VehicleProblem(f"v{i}", (i, i + 5), grid_graph)
            for i in range(5))
        solution = sv.solve(sv.SolverInstance(vehicles=problems))
        assert solution.objective == sum(solution.costs.values())
        assert solution.objective == 50.0

    def test_duplicate_vehicle_rejected(self):
        graph = graph_of(triangle_edges(), range(3))
        with pytest.raises(sv.SolveError) as exc:
            sv.SolverInstance(vehicles=(
                sv.VehicleProblem("v", (0, 1), graph),
                sv.VehicleProblem("v", (0, 2), graph),
            ))
        assert exc.value.kind == "bind_conflict"

    def test_timeout(self, monkeypatch, grid_graph):
        clock = iter([0.0, 1000.0])
        monkeypatch.setattr(sv, "_now", lambda: next(clock))
        with pytest.raises(sv.SolveError) as exc:
            sv.solve(sv.SolverInstance(vehicles=(
                sv.VehicleProblem("v", (0, 4), grid_graph),)),
                time_limit=300.0)
        assert exc.value.kind == "timeout"

    def test_timeout_inside_one_search(self, monkeypatch):
        # the clock jumps after solve's own two reads, so only a check
        # inside the one vehicle's search can see it
        reads = []

        def clock():
            reads.append(None)
            return 0.0 if len(reads) <= 2 else 1000.0

        monkeypatch.setattr(sv, "_now", clock)
        with pytest.raises(sv.SolveError) as exc:
            single(sv.VehicleProblem("v", (0, 40 * 40 - 1),
                                     graph_of(grid_edges(40), range(40 * 40))))
        assert exc.value.kind == "timeout"
        assert len(reads) == 3

    @pytest.mark.parametrize("limit", (0.0, -1.0, math.nan))
    def test_bad_time_limit_rejected(self, grid_graph, limit):
        problem = sv.VehicleProblem("v", (0, 4), grid_graph)
        with pytest.raises(ConfigError):
            sv.solve(sv.SolverInstance(vehicles=(problem,)), limit)

    def test_infinite_time_limit_means_none(self, grid_graph):
        problem = sv.VehicleProblem("v", (0, 4), grid_graph)
        assert sv.solve(sv.SolverInstance(vehicles=(problem,)), math.inf) == \
            sv.solve(sv.SolverInstance(vehicles=(problem,)))

    def test_subpath_relaxation_property(self, grid_lengths, grid_graph):
        rng = random.Random(3)
        nodes = sorted({u for u, _ in grid_lengths})
        for _ in range(40):
            source, target = rng.sample(nodes, 2)
            u, v = rng.choice(list(grid_lengths))
            free_cost, _ = single(sv.VehicleProblem("v", (source, target),
                                                    grid_graph))
            try:
                forced_cost, _ = single(sv.VehicleProblem(
                    "v", (source, target), grid_graph,
                    sv.PathRequirement("subpath", (u, v))))
            except sv.SolveError:
                continue
            assert forced_cost >= free_cost


PROGRAM = """\
model m
objective minimize total_travel_time
constraints {{
  flow_balance all
{body}
}}
"""


def bound(body, env):
    return sv.bind(dsl.parse(PROGRAM.format(body=body)), env)


class TestBind:
    def test_remove_edge_is_global_and_directional(self):
        env = grid_env([("A", "T1", 6, 7), ("B", "T2", 7, 6)])
        instance = bound("  remove_edge (6, 7)", env)
        for vp in instance.vehicles:
            assert vp.graph.length(6, 7) is None
            assert vp.graph.length(7, 6) == 10

    def test_forbid_edge_scopes_to_vehicle(self):
        env = grid_env([("A", "T1", 5, 6), ("B", "T2", 5, 6)])
        instance = bound('  forbid_edge vehicle "A" (5, 6)', env)
        by_id = {vp.vehicle: vp for vp in instance.vehicles}
        assert by_id["A"].graph.length(5, 6) is None
        assert by_id["B"].graph.length(5, 6) == 10

    def test_forbid_edge_task_subject_resolves_to_agv(self):
        env = grid_env([("A", "T1", 5, 6), ("B", "T2", 5, 6)])
        instance = bound('  forbid_edge task "T2" (5, 6)', env)
        by_id = {vp.vehicle: vp for vp in instance.vehicles}
        assert by_id["A"].graph.length(5, 6) == 10
        assert by_id["B"].graph.length(5, 6) is None

    def test_requirement_attached(self):
        env = grid_env([("A", "T1", 0, 14)])
        instance = bound('  require_subpath task "T1" [6, 10, 11]', env)
        req = instance.vehicles[0].requirement
        assert req == sv.PathRequirement("subpath", (6, 10, 11))

    def test_unknown_vehicle(self):
        env = grid_env([("A", "T1", 0, 1)])
        with pytest.raises(sv.SolveError) as exc:
            bound('  forbid_edge vehicle "ghost" (0, 1)', env)
        assert exc.value.kind == "bind_unknown_vehicle"

    def test_unknown_task(self):
        env = grid_env([("A", "T1", 0, 1)])
        with pytest.raises(sv.SolveError) as exc:
            bound('  require_subpath task "T9" [1, 2]', env)
        assert exc.value.kind == "bind_unknown_vehicle"

    def test_unknown_node(self):
        env = grid_env([("A", "T1", 0, 1)])
        with pytest.raises(sv.SolveError) as exc:
            bound("  remove_edge (0, 99)", env)
        assert exc.value.kind == "bind_unknown_node"

    def test_aliased_requirements_conflict(self):
        # vehicle subject and task subject naming the same AGV collide
        env = grid_env([("A", "T1", 0, 14)])
        with pytest.raises(sv.SolveError) as exc:
            bound('  require_subpath vehicle "A" [1, 2]\n'
                  '  require_subpath task "T1" [2, 3]', env)
        assert exc.value.kind == "bind_conflict"

    def test_exact_path_od_checked_at_bind(self):
        env = grid_env([("A", "T1", 0, 2)])
        with pytest.raises(sv.SolveError) as exc:
            bound('  require_exact_path vehicle "A" [0, 1]', env)
        assert exc.value.kind == "bind_conflict"
        with pytest.raises(sv.SolveError) as exc:
            bound('  require_exact_path vehicle "A" [5, 6]', env)
        assert exc.value.kind == "bind_conflict"

    def test_exact_path_without_task(self):
        env = env_for(default_network(), [("B", "T1", 0, 1)])
        env = TerminalEnv(
            network=env.network,
            fleet=FleetConfig(agvs=env.fleet.agvs + (Agv("A"),),
                              tasks=env.fleet.tasks),
            requirements=env.requirements)
        with pytest.raises(sv.SolveError) as exc:
            bound('  require_exact_path vehicle "A" [0, 1]', env)
        assert exc.value.kind == "bind_conflict"

    def test_subpath_without_task(self):
        env = env_for(default_network(), [("B", "T1", 0, 1)])
        env = TerminalEnv(
            network=env.network,
            fleet=FleetConfig(agvs=env.fleet.agvs + (Agv("A"),),
                              tasks=env.fleet.tasks),
            requirements=env.requirements)
        with pytest.raises(sv.SolveError) as exc:
            bound('  require_subpath vehicle "A" [0, 1]', env)
        assert exc.value.kind == "bind_conflict"

    def test_bind_then_solve_equals_oracle(self, closure_instance):
        env, spec = closure_instance
        program = ("model m\nobjective minimize total_travel_time\n"
                   "constraints {\n  flow_balance all\n"
                   "  remove_edge (6, 7)\n  remove_edge (7, 6)\n}")
        bound_solution = sv.solve(sv.bind(dsl.parse(program), env))
        oracle = sv.oracle_solve(env, spec)
        assert bound_solution.objective == oracle.objective
        assert bound_solution.paths == oracle.paths


class TestOracleSolve:
    def test_no_scenario_is_unconstrained(self, closure_instance):
        env, _ = closure_instance
        plain = sv.oracle_solve(env, None)
        lengths = env.network.lengths()
        expected = sum(
            path_heap_dijkstra(lengths, t.origin, t.destination)[0]
            for t in env.fleet.tasks)
        assert plain.objective == expected

    def test_closure_scenario_detours(self, closure_instance):
        env, spec = closure_instance
        constrained = sv.oracle_solve(env, spec)
        for path in constrained.paths.values():
            transitions = set(zip(path, path[1:]))
            assert (6, 7) not in transitions
            assert (7, 6) not in transitions

    def test_forbidden_scenario_scopes_to_one_agv(self, forbidden_instance):
        env, spec = forbidden_instance
        solution = sv.oracle_solve(env, spec)
        blocked = set(zip(solution.paths["AGV-4"],
                          solution.paths["AGV-4"][1:]))
        assert (5, 6) not in blocked and (6, 5) not in blocked

    def test_designated_fixture_od_0_14(self):
        # vehicle cost 74 = SP(0->6) 20 + d(6,10) 14 + d(10,11) 10 + SP(11->14) 30
        env = grid_env([("AGV-3", "T3", 0, 14)])
        spec = ScenarioSpec("designated_route", task="T3", nodes=(6, 10, 11))
        lengths = env.network.lengths()
        head = min_simple_path(lengths, 0, 6)[0]
        tail = min_simple_path(lengths, 11, 14)[0]
        expected = head + Fraction(14) + Fraction(10) + tail
        assert expected == 74
        solution = sv.oracle_solve(env, spec)
        assert solution.costs["AGV-3"] == 74.0

    def test_scenario_cross_validated(self, closure_instance):
        env, _ = closure_instance
        from vdsagent.errors import CrossReferenceError
        with pytest.raises(CrossReferenceError):
            sv.oracle_solve(env, ScenarioSpec("road_closure", edge=(6, 99)))

    def test_matches_fixed_scenarios(self):
        for kind in ("road_closure", "forbidden_edge_vehicle",
                     "designated_route"):
            env, spec = generate_instances(7, kind, 1)[0]
            assert spec == fixed_scenario(kind)
            solution = sv.oracle_solve(env, spec)
            assert solution.objective == sum(solution.costs.values())


def summary(vp):
    """What a vehicle problem holds, its graph as the links it lacks."""
    return vp.vehicle, vp.od, vp.graph.removed, vp.requirement


class TestConstraints:
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    @pytest.mark.parametrize("seed", (3, 42))
    def test_bind_and_scenario_constraints_agree(self, kind, seed):
        ast = dsl.parse(CORRECT_PROGRAMS[kind])
        for env, spec in generate_instances(seed, kind, 6):
            tasks = {t.id: t.agv for t in env.fleet.tasks}
            expected = sv.scenario_constraints(spec, tasks).instance(env)
            assert list(map(summary, sv.bind(ast, env).vehicles)) == \
                list(map(summary, expected.vehicles))

    def test_scenario_closures_cover_both_directions(self):
        closure = sv.scenario_constraints(
            ScenarioSpec("road_closure", edge=(6, 7)), {})
        assert set(closure.removed) == {(6, 7), (7, 6)}
        banned = sv.scenario_constraints(
            ScenarioSpec("forbidden_edge_vehicle", vehicle="A", edge=(5, 6)),
            {})
        assert set(banned.removed_for["A"]) == {(5, 6), (6, 5)}
        route = sv.scenario_constraints(
            ScenarioSpec("designated_route", task="T2", nodes=(6, 10, 11)),
            {"T1": "A", "T2": "B"})
        assert route.required == {
            "B": sv.PathRequirement("subpath", (6, 10, 11))}

    def test_problem_and_instance(self):
        env = grid_env([("A", "T1", 0, 14), ("B", "T2", 5, 7)])
        env = TerminalEnv(
            network=env.network,
            fleet=FleetConfig(agvs=env.fleet.agvs + (Agv("C"),),
                              tasks=env.fleet.tasks),
            requirements=env.requirements)
        requirement = sv.PathRequirement("subpath", (6, 10, 11))
        constraints = sv.Constraints(removed={(6, 7)},
                                     removed_for={"B": {(5, 6)}},
                                     required={"A": requirement})
        instance = constraints.instance(env)
        assert [vp.vehicle for vp in instance.vehicles] == ["A", "B", "C"]
        a, b, c = instance.vehicles
        assert (a.od, b.od, c.od) == ((0, 14), (5, 7), None)
        assert a.graph.length(6, 7) is None and a.graph.length(7, 6) == 10
        assert a.graph.length(5, 6) == 10 and b.graph.length(5, 6) is None
        assert (a.requirement, b.requirement) == (requirement, None)
        common = sv.RoadGraph(env.network).without({(6, 7)})
        assert summary(constraints.problem(common, "B", (5, 7))) == \
            summary(b) == ("B", (5, 7), {(6, 7), (5, 6)}, None)

    def test_unbanned_vehicles_share_the_common_view(self, monkeypatch):
        env = grid_env([(f"V{k}", f"T{k}", k, 19 - k) for k in range(6)])
        constraints = sv.Constraints(removed={(6, 7)},
                                     removed_for={"V2": {(5, 6), (0, 99)}})
        common = sv.RoadGraph(env.network).without({(6, 7)})
        views = []
        without = sv.RoadGraph.without

        def recorded(graph, edges):
            views.append(without(graph, edges))
            return views[-1]

        monkeypatch.setattr(sv.RoadGraph, "without", recorded)
        problems = [constraints.problem(common, a.id, None)
                    for a in env.fleet.agvs]
        assert len(views) == 1  # the banned vehicle's view only
        for problem in problems:
            if problem.vehicle == "V2":
                assert problem.graph is views[0]
                assert problem.graph.removed == {(6, 7), (5, 6)}
                for (u, v), w in env.network.lengths().items():
                    assert problem.graph.length(u, v) == (
                        None if (u, v) in {(6, 7), (5, 6)} else w)
            else:
                assert problem.graph is common
