import functools
import gc
import math
import random
import weakref
from fractions import Fraction

import pytest

from helpers import (grid_edges, min_simple_path, min_walk, network_from,
                     path_cost, path_heap_dijkstra, reference_search)
from vdsagent import bench, dsl, instances
from vdsagent import injection as inj
from vdsagent import solver as sv
from vdsagent.env import (SCENARIO_KINDS, Agv, FleetConfig, Network, Node, Edge,
                          Requirements, ScenarioSpec, Task, TerminalEnv,
                          default_network)
from vdsagent.errors import ConfigError, CrossReferenceError
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
def grid_net(grid_lengths):
    """The default grid, built from `grid_lengths`, with fresh memos."""
    return network_from(grid_lengths, range(20))


@pytest.fixture
def grid_graph(grid_net):
    return sv.RoadGraph(grid_net)


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
        reads = []

        def clock():
            reads.append(None)
            return 0.0 if len(reads) <= 2 else 1000.0

        monkeypatch.setattr(sv, "_now", clock)
        with pytest.raises(sv.SolveError) as exc:
            single(network, (0, 40 * 40 - 1))
        assert exc.value.kind == "timeout"
        assert network.routes == {}
        monkeypatch.setattr(sv, "_now", lambda: 0.0)
        expected = path_heap_dijkstra(grid_edges(40), 0, 40 * 40 - 1)
        assert single(network, (0, 40 * 40 - 1)) == expected
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
        # every solve (generation draws, 15 oracle solves, 45 transfers)
        # routes on a view of one of the 3 generated networks, built once
        # per Constraints record: generation shares one over all its draws
        networks, indexes, solves, records = [], [], [], []
        init, solve = sv.RoadGraph.__init__, sv.solve

        def recorded(graph, network):
            init(graph, network)
            networks.append(network)
            indexes.append(graph._succ)

        def counted(*args):
            records.append(args[0])
            solves.append(args[1])
            return solve(*args)

        monkeypatch.setattr(sv.RoadGraph, "__init__", recorded)
        monkeypatch.setattr(sv, "solve", counted)
        monkeypatch.setattr(instances, "solve", counted)
        report = bench.run_benchmark(
            bench.SuiteConfig(seed=3), load_seed_kb(),
            bench.scripted_provider(inj.golden_script()))
        assert report["aggregates"]["overall"]["ssr"] == 1.0
        assert {id(n) for n in networks} == {id(n) for n in solves}
        assert len(networks) == len({id(r) for r in records}) == 3 + 15 + 45
        assert len(solves) > 60
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


def grid_network(side, cut=()):
    """A side x side grid network and its link -> length map without `cut`."""
    lengths = grid_edges(side)
    kept = {e: w for e, w in lengths.items() if e not in cut}
    return network_from(lengths, range(side * side)), kept


def outcome(search, *args):
    """A search's route, or the kind of the SolveError it raised."""
    try:
        return search(*args)
    except sv.SolveError as exc:
        return exc.kind


class TestResumedSearch:
    def test_interleaved_sources_match_a_fresh_search(self):
        rng = random.Random(23)
        seen = {"fresh": 0, "settled": 0, "resumed": 0, "exhausted": 0}
        for case in range(300):
            if case % 5:
                _, lengths, network = random_digraph(rng)
            else:  # equal lengths: ties everywhere
                network, lengths = grid_network(rng.randrange(2, 6))
            nodes = [n.id for n in network.nodes]
            links = sorted(lengths)
            common = sv.RoadGraph(network).without(
                rng.sample(links, rng.randrange(0, len(links) // 3 + 1)))
            banned = common.without(rng.sample(links, min(2, len(links))))
            queries = [(view, target, source)
                       for view in (common, banned)
                       for target in rng.sample(nodes, min(3, len(nodes)))
                       for source in (target, *rng.choices(nodes, k=8))]
            rng.shuffle(queries)
            for view, target, source in queries:
                state = view._searches.get((view.removed, target))
                if source == target or not state:
                    seen["fresh"] += 1
                elif source in state[1]:
                    seen["settled"] += 1
                else:
                    seen["resumed" if state[2] else "exhausted"] += 1
                assert outcome(sv._search, view, source, target, math.inf) \
                    == outcome(reference_search, view, source, target)
        assert min(seen.values()) > 100, seen

    def test_state_is_kept_from_the_second_request(self):
        network, _ = grid_network(6)
        graph = sv.RoadGraph(network)
        sv._search(graph, 5, 0, math.inf)
        assert graph._searches == {(frozenset(), 0): ()}
        sv._search(graph, 7, 0, math.inf)
        dist, rank, heap = graph._searches[(frozenset(), 0)]
        assert 7 in rank and 35 not in rank and heap
        for source in (35, 5):  # resumed, then settled already
            assert sv._search(graph, source, 0, math.inf) == \
                reference_search(graph, source, 0)
        assert graph._searches[(frozenset(), 0)][1] is rank
        assert 35 in rank and 5 in rank
        # every view derived from the graph shares its searches
        assert graph.without({(1, 0)})._searches is graph._searches

    def test_timeout_mid_resume_stores_no_route(self, monkeypatch):
        side, far = 40, 40 * 40 - 1
        network, kept = grid_network(side, {(1, 0)})
        constraints = sv.Constraints(removed={(1, 0)})
        for source in (1, side):  # a marker, then a state kept near 0
            sv.solve(constraints, network, {"v": (source, 0)})
        common = constraints.common_view(network)
        dist, rank, heap = common._searches[(common.removed, 0)]
        settled = len(rank)
        reads = []

        def clock():
            reads.append(None)
            return 0.0 if len(reads) <= 2 else 1000.0

        monkeypatch.setattr(sv, "_now", clock)
        with pytest.raises(sv.SolveError) as exc:
            sv.solve(constraints, network, {"v": (far, 0)})
        assert exc.value.kind == "timeout"
        assert (common.removed, far, 0) not in network.routes
        assert far not in rank and len(rank) > settled
        monkeypatch.setattr(sv, "_now", lambda: 0.0)
        solution = sv.solve(constraints, network, {"v": (far, 0)})
        expected = reference_search(common, far, 0)
        assert expected == path_heap_dijkstra(kept, far, 0)
        assert (solution.costs["v"], solution.paths["v"]) == expected
        assert network.routes[(common.removed, far, 0)] == expected
        assert constraints.common_view(network) is common
        assert common._searches[(common.removed, 0)][1] is rank


class TestSearchLifetime:
    def test_searches_die_with_their_record(self):
        cached = {name for name, value in vars(Network).items()
                  if isinstance(value, functools.cached_property)}

        def graphs():
            return sum(isinstance(o, sv.RoadGraph) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = graphs()
            network = default_network()
            fields = set(network.__dict__)
            constraints = sv.Constraints(removed={(6, 7)},
                                         removed_for={"B": {(5, 6)}})
            for source in (0, 4, 9):
                sv.solve(constraints, network,
                         {"A": (source, 19), "B": (source, 19)})
            view = constraints.common_view(network)
            assert view._searches[(view.removed, 19)]  # a kept state
            del view, constraints
            assert graphs() == before
            assert set(network.__dict__) - fields <= {"routes", "cuts"} | cached
            assert all(type(route[1]) is tuple
                       for route in network.routes.values())
        finally:
            gc.enable()

    def test_a_record_rebuilds_its_view_for_another_network(self):
        first, second = default_network(), default_network()
        constraints = sv.Constraints(removed={(6, 7)})
        sv.solve(constraints, first, {"v": (6, 7)})
        view = constraints.common_view(first)
        assert view._network is first
        assert sv.solve(constraints, second, {"v": (6, 7)}).objective == 30.0
        other = constraints.common_view(second)
        assert other is not view and other._network is second
        assert other._searches is not view._searches

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_generation_builds_one_common_view(self, monkeypatch, kind):
        built, views, searches = [], [], set()
        init, common_view = sv.RoadGraph.__init__, sv.Constraints.common_view
        solve_route = sv.solve_route

        def recorded(graph, network):
            init(graph, network)
            built.append(network)

        def common(constraints, network):
            view = common_view(constraints, network)
            views.append(view)
            return view

        def routed(graph, *rest):
            searches.add(id(graph._searches))
            return solve_route(graph, *rest)

        monkeypatch.setattr(sv.RoadGraph, "__init__", recorded)
        monkeypatch.setattr(sv.Constraints, "common_view", common)
        monkeypatch.setattr(sv, "solve_route", routed)
        generated = generate_instances(3, kind, 5)
        network = generated[0][0].network
        assert [id(n) for n in built] == [id(network)]
        assert len(views) >= 5 * 30  # one solve per draw
        assert {id(view) for view in views} == {id(views[0])}
        assert searches == {id(views[0]._searches)}


def cut_links(network, removed):
    """Per node a removed link touches, its out- and in-links that stay,
    by target and by source, read from `network.lengths()`."""
    kept = {e: w for e, w in network.lengths().items() if e not in removed}
    return ({u: sorted(v for (a, v) in kept if a == u) for u, _ in removed},
            {v: sorted(u for (u, b) in kept if b == v) for _, v in removed})


class TestCutMemo:
    def test_equal_removed_sets_share_one_filtered_table(self):
        network = default_network()
        view = sv.RoadGraph(network).without({(6, 7)})
        again = sv.RoadGraph(network).without([(6, 7), (6, 7), (0, 99)])
        assert again.removed == {(6, 7)}
        # one set object per removed set keeps route-memo keys identical
        for part in ("removed", "_cut_succ", "_cut_pred"):
            assert getattr(again, part) is getattr(view, part)
        both = view.without({(7, 6)})
        other = sv.RoadGraph(network).without({(7, 6), (6, 7)})
        assert other.removed is both.removed
        assert other._cut_succ is both._cut_succ
        assert both.without({(6, 7)}) is both and view.without(()) is view
        sv.shortest_path(view, 6, 7)
        assert sv.shortest_path(again, 6, 7) is \
            network.routes[(view.removed, 6, 7)]
        assert network.cuts == {
            view.removed: (view.removed, view._cut_succ, view._cut_pred),
            both.removed: (both.removed, both._cut_succ, both._cut_pred)}
        for removed, (_, succ, pred) in network.cuts.items():
            assert ({u: [e.target for e in links] for u, links in succ.items()},
                    {v: [e.source for e in links] for v, links in pred.items()}
                    ) == cut_links(network, removed)
        # an equal network keeps a memo of its own
        twin = default_network()
        assert sv.RoadGraph(twin).without({(6, 7)})._cut_succ \
            is not view._cut_succ
        assert twin.cuts.keys() == {frozenset({(6, 7)})}

    def test_repeated_transfers_filter_two_removed_sets(self):
        # a 10x10 yard, 30 vehicles, a two-way closure and one ban
        rng = random.Random(8)
        side = 10
        lengths = grid_edges(side)
        network = network_from(lengths, range(side * side))
        trips = [tuple(rng.sample(range(side * side), 2)) for _ in range(30)]
        env = env_for(network, [(f"AGV-{k}", f"T{k}", o, d)
                                for k, (o, d) in enumerate(trips)])
        program = PROGRAM.format(body='  remove_edge (44, 45)\n'
                                      '  remove_edge (45, 44)\n'
                                      '  forbid_edge vehicle "AGV-7" (3, 4)')
        ast = dsl.parse(program)
        closure = frozenset({(44, 45), (45, 44)})
        expected = sum(
            path_heap_dijkstra(
                {e: w for e, w in lengths.items()
                 if e not in closure and (k != 7 or e != (3, 4))}, o, d)[0]
            for k, (o, d) in enumerate(trips))
        for _ in range(100):
            solution = solved(sv.bind(ast, env), env)
            assert solution.objective == expected
        assert network.cuts.keys() == {closure, closure | {(3, 4)}}
        assert len(network.routes) == 30

    def test_golden_suite_filters_each_removed_set_once(self, monkeypatch):
        networks, filtered = [], []
        generate, without = bench.generate_instances, sv.RoadGraph.without

        def recorded(*args):
            generated = generate(*args)
            networks.append(generated[0][0].network)
            return generated

        def counted(graph, edges):
            fresh = len(graph._cuts)
            view = without(graph, edges)
            if len(graph._cuts) > fresh:
                filtered.append(view.removed)
            return view

        monkeypatch.setattr(bench, "generate_instances", recorded)
        monkeypatch.setattr(sv.RoadGraph, "without", counted)
        report = bench.run_benchmark(
            bench.SuiteConfig(seed=3), load_seed_kb(),
            bench.scripted_provider(inj.golden_script()))
        assert report["aggregates"]["overall"]["ssr"] == 1.0
        closure = frozenset({(6, 7), (7, 6)})
        ban = frozenset({(5, 6), (6, 5)})
        assert filtered == [closure, ban]
        assert [set(network.cuts) for network in networks] == \
            [{closure}, {ban}, set()]
        for network in networks:
            assert {key[0] for key in network.routes} <= \
                {frozenset(), *network.cuts}
        # the routes searched before the filtered tables were memoized
        assert [len(network.routes) for network in networks] == \
            [130, 122, 126]

    def test_dead_network_leaves_no_graph_behind(self):
        # with the collector off, only reference counts free memory: a
        # memo that held views would keep them, and the routes they
        # reach, alive in a cycle
        def graphs():
            return sum(isinstance(o, sv.RoadGraph) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = graphs()
            env = grid_env([("A", "T1", 0, 19), ("B", "T2", 5, 7)])
            constraints = sv.Constraints(removed={(6, 7)},
                                         removed_for={"B": {(5, 6)}})
            solved(constraints, env)
            network = weakref.ref(env.network)
            del env, constraints
            assert network() is None
            assert graphs() == before
        finally:
            gc.enable()


def single(network, od, requirement=None, vehicle="v"):
    """One vehicle routed by `solve` on `network`: its (cost, path)."""
    required = {} if requirement is None else {vehicle: requirement}
    solution = sv.solve(sv.Constraints(required=required), network,
                        {vehicle: od})
    return solution.costs[vehicle], solution.paths[vehicle]


class TestSolve:
    def test_closure_detour_fixture(self, grid_lengths):
        edges = {e: w for e, w in grid_lengths.items()
                 if e not in {(6, 7), (7, 6)}}
        # positive weights: min over edge-simple walks = min over simple paths
        assert min_simple_path(edges, 6, 7) == (Fraction(30), (6, 1, 2, 7))
        cost, path = single(network_from(edges, range(20)), (6, 7))
        assert (cost, path) == (30.0, (6, 1, 2, 7))

    def test_closure_through_the_record(self, grid_lengths, grid_net):
        closed = {(6, 7), (7, 6)}
        edges = {e: w for e, w in grid_lengths.items() if e not in closed}
        trips = {"a": (6, 7), "b": (7, 6), "c": (0, 4)}
        solution = sv.solve(sv.Constraints(removed=closed), grid_net, trips)
        for vehicle, (source, target) in trips.items():
            cost, path = min_simple_path(edges, source, target)
            assert (solution.costs[vehicle], solution.paths[vehicle]) == \
                (cost, path)

    def test_four_cycle_subpath_revisits_node(self):
        # forced (3, 0) from 0 to 2: out-and-back then around
        edges = four_cycle_edges()
        assert min_walk(edges, 0, 2, forced=(3, 0)) == \
            (Fraction(4), (0, 3, 0, 1, 2))
        cost, path = single(network_from(edges, range(4)), (0, 2),
                            sv.PathRequirement("subpath", (3, 0)))
        assert (cost, path) == (4.0, (0, 3, 0, 1, 2))

    def test_subpath_concatenation_cost(self, grid_net):
        cost, path = single(grid_net, (0, 14),
                            sv.PathRequirement("subpath", (6, 10, 11)))
        assert cost == 74.0
        assert path[0] == 0 and path[-1] == 14
        assert any(path[i:i + 3] == (6, 10, 11) for i in range(len(path) - 2))

    def test_subpath_missing_forced_edge(self):
        edges = triangle_edges()
        del edges[(0, 2)]
        with pytest.raises(sv.SolveError) as exc:
            single(network_from(edges, range(3)), (0, 2),
                   sv.PathRequirement("subpath", (0, 2)))
        assert exc.value.kind == "infeasible"

    def test_subpath_reuse_rejected(self):
        # line 0-1-2: travel 0 -> 2 but force (2, 1); returning to 2
        # must re-drive (1, 2), which binary edge variables cannot express
        edges = {(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 1): 1}
        with pytest.raises(sv.SolveError) as exc:
            single(network_from(edges, range(3)), (0, 2),
                   sv.PathRequirement("subpath", (2, 1)))
        assert exc.value.kind == "degenerate_edge_reuse"

    def test_exact_path_cost_and_validation(self, grid_lengths, grid_net):
        cost, path = single(grid_net, (0, 2),
                            sv.PathRequirement("exact", (0, 5, 6, 7, 2)))
        assert Fraction(cost) == path_cost(grid_lengths, (0, 5, 6, 7, 2))
        assert path == (0, 5, 6, 7, 2)

    def test_exact_path_endpoint_mismatch(self, grid_graph):
        with pytest.raises(sv.SolveError) as exc:
            sv.solve_route(grid_graph, (0, 2),
                           sv.PathRequirement("exact", (0, 1)), math.inf)
        assert exc.value.kind == "bind_conflict"

    def test_exact_path_missing_edge(self, grid_net):
        with pytest.raises(sv.SolveError) as exc:
            single(grid_net, (0, 2), sv.PathRequirement("exact", (0, 2)))
        assert exc.value.kind == "infeasible"

    def test_exact_path_edge_reuse(self):
        network = network_from({(0, 1): 1, (1, 0): 1}, range(2))
        with pytest.raises(sv.SolveError) as exc:
            single(network, (0, 1), sv.PathRequirement("exact", (0, 1, 0, 1)))
        assert exc.value.kind == "degenerate_edge_reuse"

    def test_error_names_vehicle(self):
        with pytest.raises(sv.SolveError) as exc:
            single(network_from({(1, 0): 1}, range(2)), (0, 1),
                   vehicle="AGV-17")
        assert exc.value.kind == "infeasible"
        assert exc.value.detail == "vehicle AGV-17: no path from 0 to 1"

    def test_idle_vehicle_costs_nothing(self):
        network = network_from(triangle_edges(), range(3))
        solution = sv.solve(sv.Constraints(), network,
                            {"idle": None, "busy": (0, 2)})
        assert solution.costs == {"idle": 0.0, "busy": 2.0}
        assert solution.paths["idle"] == ()
        assert solution.objective == 2.0
        assert sv.solve_route(sv.RoadGraph(network), None, None,
                              math.inf) == (0.0, ())

    def test_objective_sums_vehicles(self, grid_lengths, grid_net):
        trips = {f"v{i}": (i, i + 5) for i in range(5)}
        solution = sv.solve(sv.Constraints(), grid_net, trips)
        assert solution.objective == sum(solution.costs.values())
        assert solution.objective == sum(
            min_simple_path(grid_lengths, *od)[0] for od in trips.values())
        assert solution.objective == 50.0

    def test_timeout(self, monkeypatch, grid_net):
        clock = iter([0.0, 1000.0])
        monkeypatch.setattr(sv, "_now", lambda: next(clock))
        with pytest.raises(sv.SolveError) as exc:
            sv.solve(sv.Constraints(), grid_net, {"v": (0, 4)},
                     time_limit=300.0)
        assert exc.value.kind == "timeout"

    def test_timeout_between_vehicles(self, monkeypatch, grid_net):
        # reads: the deadline, before "a" (on time), before "b" (late);
        # a's search on 20 nodes pops too few nodes to read the clock
        reads = []

        def clock():
            reads.append(None)
            return 0.0 if len(reads) <= 2 else 1000.0

        monkeypatch.setattr(sv, "_now", clock)
        with pytest.raises(sv.SolveError) as exc:
            sv.solve(sv.Constraints(), grid_net,
                     {"a": (0, 19), "b": (19, 0)}, time_limit=300.0)
        assert exc.value.kind == "timeout"
        assert exc.value.detail == "time limit of 300.0s exceeded"
        assert len(reads) == 3
        assert list(grid_net.routes) == [(frozenset(), 0, 19)]

    def test_timeout_inside_one_search(self, monkeypatch):
        # the clock jumps after solve's own two reads, so only a check
        # inside the one vehicle's search can see it
        reads = []

        def clock():
            reads.append(None)
            return 0.0 if len(reads) <= 2 else 1000.0

        monkeypatch.setattr(sv, "_now", clock)
        with pytest.raises(sv.SolveError) as exc:
            single(network_from(grid_edges(40), range(40 * 40)),
                   (0, 40 * 40 - 1))
        assert exc.value.kind == "timeout"
        assert exc.value.detail == "vehicle v: deadline passed during search"
        assert len(reads) == 3

    @pytest.mark.parametrize("limit", (0.0, -1.0, math.nan))
    def test_bad_time_limit_rejected(self, grid_net, limit):
        with pytest.raises(ConfigError):
            sv.solve(sv.Constraints(), grid_net, {"v": (0, 4)}, limit)
        assert grid_net.routes == {}

    def test_infinite_time_limit_means_none(self, grid_net):
        trips = {"v": (0, 4)}
        assert sv.solve(sv.Constraints(), grid_net, trips, math.inf) == \
            sv.solve(sv.Constraints(), grid_net, trips)

    def test_subpath_relaxation_property(self, grid_lengths, grid_graph):
        rng = random.Random(3)
        nodes = sorted({u for u, _ in grid_lengths})
        for _ in range(40):
            source, target = rng.sample(nodes, 2)
            u, v = rng.choice(list(grid_lengths))
            free_cost, _ = sv.solve_route(grid_graph, (source, target),
                                          None, math.inf)
            try:
                forced_cost, _ = sv.solve_route(
                    grid_graph, (source, target),
                    sv.PathRequirement("subpath", (u, v)), math.inf)
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


def solved(constraints, env):
    return sv.solve(constraints, env.network, env.fleet.trips)


class TestBind:
    def test_remove_edge_is_global_and_directional(self, grid_lengths):
        env = grid_env([("A", "T1", 6, 7), ("B", "T2", 7, 6)])
        constraints = bound("  remove_edge (6, 7)", env)
        assert (constraints.removed, constraints.removed_for) == \
            ({(6, 7)}, {})
        edges = {e: w for e, w in grid_lengths.items() if e != (6, 7)}
        solution = solved(constraints, env)
        assert (solution.costs["A"], solution.paths["A"]) == \
            min_simple_path(edges, 6, 7) == (30, (6, 1, 2, 7))
        assert (solution.costs["B"], solution.paths["B"]) == (10.0, (7, 6))

    def test_forbid_edge_scopes_to_vehicle(self, grid_lengths):
        env = grid_env([("A", "T1", 5, 6), ("B", "T2", 5, 6)])
        constraints = bound('  forbid_edge vehicle "A" (5, 6)', env)
        assert (constraints.removed, constraints.removed_for) == \
            (set(), {"A": {(5, 6)}})
        edges = {e: w for e, w in grid_lengths.items() if e != (5, 6)}
        solution = solved(constraints, env)
        assert (solution.costs["A"], solution.paths["A"]) == \
            min_simple_path(edges, 5, 6)
        assert (solution.costs["B"], solution.paths["B"]) == (10.0, (5, 6))

    def test_forbid_edge_task_subject_resolves_to_agv(self):
        env = grid_env([("A", "T1", 5, 6), ("B", "T2", 5, 6)])
        constraints = bound('  forbid_edge task "T2" (5, 6)', env)
        assert constraints.removed_for == {"B": {(5, 6)}}
        solution = solved(constraints, env)
        assert solution.paths["A"] == (5, 6)
        assert (5, 6) not in zip(solution.paths["B"], solution.paths["B"][1:])

    def test_requirement_attached(self):
        env = grid_env([("A", "T1", 0, 14)])
        constraints = bound('  require_subpath task "T1" [6, 10, 11]', env)
        assert constraints.required == {
            "A": sv.PathRequirement("subpath", (6, 10, 11))}

    def test_unknown_vehicle(self):
        env = grid_env([("A", "T1", 0, 1)])
        with pytest.raises(sv.SolveError) as exc:
            bound('  forbid_edge vehicle "ghost" (0, 1)', env)
        assert exc.value.kind == "bind_unknown_vehicle"

    def test_task_id_is_no_vehicle(self):
        env = grid_env([("A", "T1", 0, 1)])
        with pytest.raises(sv.SolveError) as exc:
            bound('  forbid_edge vehicle "T1" (0, 1)', env)
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

    @pytest.mark.parametrize("body", (
        "  remove_edge (0, 6)", '  forbid_edge vehicle "A" (0, 12)',
        '  forbid_edge task "T1" (12, 0)'))
    def test_unknown_edge(self, body):
        # known nodes, no such link: binding it would be a silent no-op
        env = grid_env([("A", "T1", 0, 1)])
        with pytest.raises(sv.SolveError) as exc:
            bound(body, env)
        assert exc.value.kind == "bind_unknown_edge"

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

    def test_solution_keeps_fleet_order(self):
        env = env_for(default_network(), [("Z", "T1", 0, 4), ("A", "T2", 9, 5),
                                          ("M", "T3", 6, 7)])
        env = TerminalEnv(
            network=env.network,
            fleet=FleetConfig(agvs=(Agv("Z"), Agv("idle"), Agv("A"),
                                    Agv("M")),
                              tasks=env.fleet.tasks[::-1]),
            requirements=env.requirements)
        order = ["Z", "idle", "A", "M"]
        for solution in (solved(bound("  remove_edge (6, 7)", env), env),
                         sv.oracle_solve(env, None)):
            assert list(solution.paths) == list(solution.costs) == order
            assert list(solution.to_dict()["paths"]) == order

    def test_bind_then_solve_equals_oracle(self, closure_instance):
        env, spec = closure_instance
        program = ("model m\nobjective minimize total_travel_time\n"
                   "constraints {\n  flow_balance all\n"
                   "  remove_edge (6, 7)\n  remove_edge (7, 6)\n}")
        bound_solution = solved(sv.bind(dsl.parse(program), env), env)
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


def rejects(call, error):
    """Does `call()` raise `error`?"""
    try:
        call()
    except error:
        return True
    return False


def routed_on(constraints, env):
    """Per vehicle in fleet order: its OD pair, the links its view lacks
    and its path requirement, as `solve` would route it."""
    common = sv.RoadGraph(env.network).without(constraints.removed)
    return [(vehicle, od,
             common.without(constraints.removed_for.get(vehicle, ())).removed,
             constraints.required.get(vehicle))
            for vehicle, od in env.fleet.trips.items()]


class TestConstraints:
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    @pytest.mark.parametrize("seed", (3, 42))
    def test_bind_and_scenario_constraints_agree(self, kind, seed):
        """`correct_program(spec)` binds to `scenario_constraints(spec)`,
        for the fixed spec and for one no generated fleet was drawn for."""
        other = {"road_closure": ScenarioSpec("road_closure", edge=(2, 7)),
                 "forbidden_edge_vehicle": ScenarioSpec(
                     "forbidden_edge_vehicle", vehicle="AGV-9",
                     edge=(11, 12)),
                 "designated_route": ScenarioSpec(
                     "designated_route", task="T5", nodes=(1, 6, 7))}[kind]
        for spec in (fixed_scenario(kind), other):
            ast = dsl.parse(inj.correct_program(spec))
            for env, _ in generate_instances(seed, kind, 6):
                tasks = {t.id: t.agv for t in env.fleet.tasks}
                expected = sv.scenario_constraints(spec, tasks)
                bound_record = sv.bind(ast, env)
                assert routed_on(bound_record, env) == \
                    routed_on(expected, env)
                assert solved(bound_record, env) == solved(expected, env)

    def test_scenario_check_agrees_with_bind(self):
        """On random networks with one-way links, `validate_against`
        rejects a closure or ban exactly when `bind` rejects the program
        that states it, over known and unknown nodes and vehicles."""
        rng = random.Random(5)
        seen = set()
        for _ in range(300):
            ids, lengths, network = random_digraph(rng)
            env = env_for(network, [("A", "T1", ids[0], ids[1]),
                                    ("B", "T2", ids[1], ids[0])])
            nodes = [n.id for n in network.nodes] + [0, 1]  # 0, 1 unknown
            for _ in range(8):
                if lengths and rng.random() < 0.5:
                    edge = rng.choice(list(lengths))
                else:
                    edge = (rng.choice(nodes), rng.choice(nodes))
                vehicle = rng.choice(("A", "B", "Z"))
                spec = rng.choice((
                    ScenarioSpec("road_closure", edge=edge),
                    ScenarioSpec("forbidden_edge_vehicle", vehicle=vehicle,
                                 edge=edge)))
                ast = dsl.parse(inj.correct_program(spec))
                checked = rejects(lambda: spec.validate_against(env),
                                  CrossReferenceError)
                assert checked == rejects(lambda: sv.bind(ast, env),
                                          sv.SolveError), spec
                seen.add(checked)
        assert seen == {True, False}

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

    def test_solve_walks_the_fleet_from_the_record(self, grid_lengths):
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
        solution = solved(constraints, env)
        assert list(solution.paths) == list(solution.costs) == ["A", "B", "C"]
        closed = {e: w for e, w in grid_lengths.items() if e != (6, 7)}
        banned = {e: w for e, w in closed.items() if e != (5, 6)}
        head = min_simple_path(closed, 0, 6)
        tail = min_simple_path(closed, 11, 14)
        assert solution.costs["A"] == head[0] + 14 + 10 + tail[0] == 74
        assert solution.paths["A"] == head[1] + (10,) + tail[1]
        assert (solution.costs["B"], solution.paths["B"]) == \
            min_simple_path(banned, 5, 7)
        assert (solution.costs["C"], solution.paths["C"]) == (0.0, ())
        assert routed_on(constraints, env) == [
            ("A", (0, 14), {(6, 7)}, requirement),
            ("B", (5, 7), {(6, 7), (5, 6)}, None),
            ("C", None, {(6, 7)}, None)]

    def test_unbanned_vehicles_share_the_common_view(self, monkeypatch):
        env = grid_env([(f"V{k}", f"T{k}", k, 19 - k) for k in range(6)])
        constraints = sv.Constraints(removed={(6, 7)},
                                     removed_for={"V2": {(5, 6), (0, 99)}})
        views, graphs = [], {}
        without, solve_route = sv.RoadGraph.without, sv.solve_route

        def recorded(graph, edges):
            views.append(without(graph, edges))
            return views[-1]

        def routed(graph, od, *rest):
            graphs[od[0]] = graph
            return solve_route(graph, od, *rest)

        monkeypatch.setattr(sv.RoadGraph, "without", recorded)
        monkeypatch.setattr(sv, "solve_route", routed)
        solved(constraints, env)
        assert len(views) == 2  # the common view, then the banned vehicle's
        common, own = views
        assert common.removed == {(6, 7)}
        assert own.removed == {(6, 7), (5, 6)}
        for (u, v), w in env.network.lengths().items():
            assert own.length(u, v) == (
                None if (u, v) in {(6, 7), (5, 6)} else w)
        assert graphs == {k: own if k == 2 else common for k in range(6)}
