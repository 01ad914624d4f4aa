import json

import pytest

import helpers
from vdsagent.cli import (DEFAULT_CONFIG_FILE, DEFAULT_NETWORK_FILE,
                          DEFAULT_REQUIREMENTS_FILE)
from vdsagent.env import (EXPERTISE_LEVELS, SCENARIO_KINDS, Agv, Edge,
                          FleetConfig, Network, Node, Requirements,
                          ScenarioSpec, Task, TerminalEnv, default_network,
                          env_digest, parse_environment, parse_fleet_config,
                          parse_network, parse_requirements, scenario_prompt)
from vdsagent.errors import (CrossReferenceError, SchemaError,
                             UnknownCombination)
from vdsagent.instances import generate_instances, with_level
from vdsagent.solver import RoadGraph, shortest_path


def triangle():
    nodes = (Node(0), Node(1), Node(2))
    edges = (Edge(0, 1, 1), Edge(1, 0, 1), Edge(1, 2, 1),
             Edge(2, 1, 1), Edge(0, 2, 3), Edge(2, 0, 3))
    return Network(nodes=nodes, edges=edges)


class TestNetwork:
    def test_default_grid_shape(self):
        net = default_network()
        assert len(net.nodes) == 20
        assert len(net.edges) == 64
        assert sorted(n.id for n in net.nodes) == list(range(20))

    def test_default_grid_lengths(self):
        lengths = default_network().lengths()
        assert lengths[(0, 1)] == 10
        assert lengths[(0, 5)] == 10
        assert lengths[(6, 10)] == 14
        assert lengths[(10, 6)] == 14
        assert (0, 6) not in lengths
        assert (4, 9) in lengths and (9, 4) in lengths
        # grid edges are all symmetric
        for (u, v), w in lengths.items():
            assert lengths[(v, u)] == w

    def test_default_grid_is_parsed_once_into_fresh_networks(self):
        first, second = default_network(), default_network()
        assert first is not second and first == second
        assert first == parse_network(DEFAULT_NETWORK_FILE.read_text())
        # the parsed tuples are shared, every memo is the caller's own
        assert first.nodes is second.nodes and first.edges is second.edges
        for memo in ("routes", "cuts", "adjacency"):
            assert getattr(first, memo) is not getattr(second, memo)
        route = shortest_path(RoadGraph(first), 0, 19)
        assert list(first.routes.values()) == [route]
        assert second.routes == {} and default_network().routes == {}

    def test_row_major_adjacency(self):
        lengths = default_network().lengths()
        # node 7 = row 1, col 2: neighbors 2, 6, 8, 12
        neighbors = sorted(v for (u, v) in lengths if u == 7)
        assert neighbors == [2, 6, 8, 12]

    def test_duplicate_node_id_rejected(self):
        with pytest.raises(SchemaError):
            Network(nodes=(Node(0), Node(0)), edges=())

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(CrossReferenceError):
            Network(nodes=(Node(0), Node(1)), edges=(Edge(0, 7, 1),))

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            Network(nodes=(Node(0), Node(1)), edges=(Edge(0, 1, 0),))
        with pytest.raises(ValueError):
            Network(nodes=(Node(0), Node(1)), edges=(Edge(0, 1, -3),))

    def test_duplicate_directed_edge_rejected(self):
        with pytest.raises(SchemaError):
            Network(nodes=(Node(0), Node(1)),
                    edges=(Edge(0, 1, 1), Edge(0, 1, 2)))

    def test_antiparallel_edges_allowed(self):
        net = Network(nodes=(Node(0), Node(1)),
                      edges=(Edge(0, 1, 1), Edge(1, 0, 5)))
        assert net.lengths() == {(0, 1): 1, (1, 0): 5}
        assert (net.length(0, 1), net.length(1, 0), net.length(0, 2)) == \
            (1, 5, None)

    def test_node_ids_built_once_per_network(self):
        net = triangle()
        ids = net.node_ids
        assert ids == frozenset({0, 1, 2})
        assert net.node_ids is ids
        assert triangle().node_ids is not ids


class TestFleet:
    def test_duplicate_agv_rejected(self):
        with pytest.raises(SchemaError):
            FleetConfig(agvs=(Agv("A"), Agv("A")), tasks=())

    def test_task_unknown_agv_rejected(self):
        with pytest.raises(CrossReferenceError):
            FleetConfig(agvs=(Agv("A"),),
                        tasks=(Task("T1", "B", 0, 1),))

    def test_two_tasks_one_agv_rejected(self):
        with pytest.raises(SchemaError):
            FleetConfig(agvs=(Agv("A"),),
                        tasks=(Task("T1", "A", 0, 1), Task("T2", "A", 1, 2)))

    def test_lookups(self):
        fleet = FleetConfig(agvs=(Agv("A"), Agv("B")),
                            tasks=(Task("T1", "A", 0, 1),))
        assert fleet.task_vehicle["T1"] == "A"
        assert "T9" not in fleet.task_vehicle

    def test_trips_in_fleet_order(self):
        # tasks listed in another order than their vehicles; B has none
        fleet = FleetConfig(agvs=(Agv("C"), Agv("B"), Agv("A")),
                            tasks=(Task("T1", "A", 0, 1),
                                   Task("T2", "C", 2, 0)))
        assert list(fleet.trips.items()) == \
            [("C", (2, 0)), ("B", None), ("A", (0, 1))]
        assert fleet.trips is fleet.trips  # built once per fleet
        twin = FleetConfig(agvs=fleet.agvs, tasks=fleet.tasks)
        assert twin.trips == fleet.trips and twin.trips is not fleet.trips
        assert FleetConfig(agvs=(), tasks=()).trips == {}


class TestRequirements:
    def test_level_validated(self):
        with pytest.raises(SchemaError):
            Requirements(level="expert", texts=("x",))

    def test_env_cross_reference(self):
        net = triangle()
        fleet = FleetConfig(agvs=(Agv("A"),), tasks=(Task("T1", "A", 0, 9),))
        with pytest.raises(CrossReferenceError):
            TerminalEnv(network=net, fleet=fleet,
                        requirements=Requirements("engineer", ("x",)))


class TestScenarioSpec:
    def test_kind_field_requirements(self):
        with pytest.raises(SchemaError):
            ScenarioSpec("road_closure")
        with pytest.raises(SchemaError):
            ScenarioSpec("forbidden_edge_vehicle", edge=(1, 2))
        with pytest.raises(SchemaError):
            ScenarioSpec("designated_route", task="T1", nodes=(4,))
        with pytest.raises(SchemaError):
            ScenarioSpec("weather", edge=(1, 2))

    @pytest.mark.parametrize("kwargs", [
        {"kind": "forbidden_edge_vehicle", "vehicle": ["x"], "edge": (5, 6)},
        {"kind": "forbidden_edge_vehicle", "vehicle": 4, "edge": (5, 6)},
        {"kind": "designated_route", "task": {"id": "T3"}, "nodes": (6, 10)},
    ])
    def test_ids_must_be_strings(self, kwargs):
        with pytest.raises(SchemaError):
            ScenarioSpec(**kwargs)

    def test_from_dict_literal_documents(self):
        for doc, spec in (
            ({"kind": "road_closure", "params": {"edge": [6, 7]}},
             ScenarioSpec("road_closure", edge=(6, 7))),
            ({"kind": "forbidden_edge_vehicle",
              "params": {"vehicle": "AGV-4", "edge": [5, 6]}},
             ScenarioSpec("forbidden_edge_vehicle", vehicle="AGV-4",
                          edge=(5, 6))),
            ({"kind": "designated_route",
              "params": {"task": "T3", "nodes": [6, 10, 11]}},
             ScenarioSpec("designated_route", task="T3", nodes=(6, 10, 11))),
        ):
            assert ScenarioSpec.from_dict(doc) == spec

    def test_from_dict_validates_shapes(self):
        with pytest.raises(SchemaError):
            ScenarioSpec.from_dict({"kind": "road_closure",
                                    "params": {"edge": [1, 2, 3]}})
        with pytest.raises(SchemaError):
            ScenarioSpec.from_dict({"kind": "road_closure",
                                    "params": {"edge": [1, True]}})

    def test_validate_against(self, closure_instance):
        env, _ = closure_instance
        ScenarioSpec("road_closure", edge=(6, 7)).validate_against(env)
        with pytest.raises(CrossReferenceError):
            ScenarioSpec("road_closure", edge=(6, 99)).validate_against(env)
        with pytest.raises(CrossReferenceError):
            ScenarioSpec("forbidden_edge_vehicle", vehicle="AGV-99",
                         edge=(5, 6)).validate_against(env)
        with pytest.raises(CrossReferenceError):
            ScenarioSpec("designated_route", task="T99",
                         nodes=(6, 10, 11)).validate_against(env)
        # known nodes, no link between them
        for spec in (ScenarioSpec("road_closure", edge=(0, 6)),
                     ScenarioSpec("forbidden_edge_vehicle", vehicle="AGV-1",
                                  edge=(0, 6)),
                     ScenarioSpec("designated_route", task="T1",
                                  nodes=(0, 6, 7))):
            with pytest.raises(CrossReferenceError, match=r"\(0, 6\)"):
                spec.validate_against(env)


class TestParsing:
    def test_parse_network_round_trip(self):
        net = default_network()
        doc = {"nodes": [{"id": n.id} for n in net.nodes],
               "edges": [{"source": e.source, "target": e.target,
                          "length": e.length} for e in net.edges]}
        parsed = parse_network(json.dumps(doc))
        assert parsed.lengths() == net.lengths()

    def test_parse_network_float_length(self):
        doc = {"nodes": [{"id": 0}, {"id": 1}],
               "edges": [{"source": 0, "target": 1, "length": 2.5}]}
        parsed = parse_network(json.dumps(doc))
        assert parsed.lengths() == {(0, 1): 2.5}

    def test_parse_network_bad_json(self):
        with pytest.raises(SchemaError):
            parse_network("{nodes: []}")

    def test_parse_network_missing_field(self):
        with pytest.raises(SchemaError):
            parse_network('{"nodes": []}')
        with pytest.raises(SchemaError):
            parse_network('{"nodes": [{"id": 0}], '
                          '"edges": [{"source": 0, "target": 0}]}')

    @pytest.mark.parametrize("length", (0, -3, float("nan"), float("inf"),
                                        float("-inf")))
    def test_parse_network_rejects_bad_length(self, length):
        doc = {"nodes": [{"id": 0}, {"id": 1}],
               "edges": [{"source": 0, "target": 1, "length": 1},
                         {"source": 1, "target": 0, "length": length}]}
        with pytest.raises(SchemaError) as exc:
            parse_network(json.dumps(doc))
        assert "network.edges[1].length" in str(exc.value)

    @pytest.mark.parametrize("length", (float("nan"), float("inf")))
    def test_network_rejects_non_finite_length(self, length):
        with pytest.raises(ValueError):
            Network(nodes=(Node(0), Node(1)), edges=(Edge(0, 1, length),))

    def test_parse_network_rejects_bool_id(self):
        doc = {"nodes": [{"id": True}], "edges": []}
        with pytest.raises(SchemaError):
            parse_network(json.dumps(doc))

    def test_parse_fleet_and_requirements(self):
        fleet = parse_fleet_config(json.dumps({
            "agvs": [{"id": "A", "attributes": {"over_height": True}}],
            "tasks": [{"id": "T1", "agv": "A", "origin": 0, "destination": 2}],
        }))
        assert fleet.agvs[0].attributes == {"over_height": True}
        reqs = parse_requirements(json.dumps({
            "expertise_level": "technician",
            "requirements": ["keep off the closed road"],
        }))
        assert reqs.level == "technician"
        with pytest.raises(SchemaError):
            parse_requirements(json.dumps({
                "expertise_level": "technician", "requirements": [3]}))

    def test_parse_environment_cross_checks(self):
        net = json.dumps({"nodes": [{"id": 0}, {"id": 1}],
                          "edges": [{"source": 0, "target": 1, "length": 1}]})
        fleet = json.dumps({"agvs": [{"id": "A"}],
                            "tasks": [{"id": "T1", "agv": "A",
                                       "origin": 0, "destination": 5}]})
        reqs = json.dumps({"expertise_level": "engineer", "requirements": []})
        with pytest.raises(CrossReferenceError):
            parse_environment(net, fleet, reqs)


class TestDigest:
    def test_digest_shape_and_stability(self, closure_instance):
        env, _ = closure_instance
        digest = env_digest(env)
        lines = digest.split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("nodes (20):")
        assert lines[1].startswith("edges (64):")
        assert lines[2].startswith("agvs (30):")
        assert lines[3].startswith("tasks (30):")
        assert env_digest(env) == digest

    def test_digest_reflects_attributes(self, forbidden_instance):
        env, _ = forbidden_instance
        assert "AGV-4[over_height=True]" in env_digest(env)

    def test_default_grid_matches_rendering(self):
        env = parse_environment(
            *(path.read_text(encoding="utf-8") for path in (
                DEFAULT_NETWORK_FILE, DEFAULT_CONFIG_FILE,
                DEFAULT_REQUIREMENTS_FILE)))
        assert env_digest(env) == helpers.rendered_env_digest(env)

    @pytest.mark.parametrize("seed", [1, 3, 11, 42])
    def test_generated_instances_match_rendering(self, seed):
        for kind in SCENARIO_KINDS:
            for base, spec in generate_instances(seed, kind, 5):
                for level in EXPERTISE_LEVELS:
                    env = with_level(base, spec, level)
                    assert env_digest(env) == helpers.rendered_env_digest(env)

    def test_typed_nodes_floats_and_attributes_match_rendering(self):
        nodes = (Node(2, "quay"), Node(0), Node(1, "yard"))
        edges = (Edge(1, 0, 1e-7), Edge(0, 1, 10.5), Edge(2, 1, 3),
                 Edge(1, 2, 2.25e12))
        fleet = FleetConfig(
            agvs=(Agv("A2", {"over_height": True, "battery": 0.5}), Agv("A1")),
            tasks=(Task("T1", "A2", 0, 2, {"hazard": "class 3", "w": 1}),
                   Task("T0", "A1", 2, 0)))
        env = TerminalEnv(Network(nodes, edges), fleet,
                          Requirements("engineer", ()))
        digest = env_digest(env)
        assert digest == helpers.rendered_env_digest(env)
        assert "1->0:1e-07" in digest and "0->1:10.5" in digest
        assert "A2[battery=0.5,over_height=True]" in digest
        assert "T1:A2:0->2[hazard=class 3,w=1]" in digest

    def test_equal_networks_and_fleets_render_their_own(self):
        def fleet():
            return FleetConfig((Agv("A", {"k": 1}),), (Task("T", "A", 0, 2),))
        for first, second in ((triangle(), triangle()), (fleet(), fleet())):
            assert first == second and first is not second
            rendered = first.digest
            assert first.digest is rendered
            assert "digest" not in vars(second)
            assert second.digest == rendered
            assert "digest" in vars(second)


class TestScenarioPrompt:
    CLOSURE = ScenarioSpec("road_closure", edge=(6, 7))
    FORBID = ScenarioSpec("forbidden_edge_vehicle", vehicle="AGV-4", edge=(5, 6))
    ROUTE = ScenarioSpec("designated_route", task="T3", nodes=(6, 10, 11))

    def test_closure_levels(self):
        assert scenario_prompt(self.CLOSURE, "technician") == \
            "That road between node 6 and node 7 can't be used today."
        assert scenario_prompt(self.CLOSURE, "engineer") == \
            ("Attention: The bidirectional road segment connecting nodes "
             "(6, 7) is completely closed.")
        assert scenario_prompt(self.CLOSURE, "scientist") == \
            ("The model must satisfy a topology constraint: remove the edge "
             "subset E' = {(6,7), (7,6)} from the network graph.")

    def test_forbidden_levels(self):
        assert scenario_prompt(self.FORBID, "technician") == \
            ("AGV-4 in the fleet is one of those extra-tall ones; it can't "
             "get under the low bridge between node 5 and node 6.")
        assert scenario_prompt(self.FORBID, "engineer") == \
            ("Attention: AGV-4 in the fleet is an over-height vehicle and "
             "cannot pass through the bidirectional height-restricted "
             "gantry connecting (5, 6).")
        assert scenario_prompt(self.FORBID, "scientist") == \
            ("A vehicle-path compatibility constraint must be enforced: for "
             "v=4, the decision variable x_ve must be 0 for all e in "
             "{(5,6), (6,5)}.")

    def test_route_levels(self):
        assert scenario_prompt(self.ROUTE, "technician") == \
            ("The container for T3 has dangerous goods, so it has to "
             "stick to the safe route: go from 6 to 10, then from 10 to 11. "
             "No exceptions.")
        assert scenario_prompt(self.ROUTE, "engineer") == \
            ("Task T3 involves dangerous goods and must follow the "
             "designated one-way safety corridor (6->10->11).")
        assert scenario_prompt(self.ROUTE, "scientist") == \
            ("A mandatory subpath constraint must be applied to the AGV "
             "assigned to task T3, ensuring its solution path contains "
             "the subsequence (6, 10, 11).")

    def test_unknown_level_rejected(self):
        with pytest.raises(UnknownCombination):
            scenario_prompt(self.CLOSURE, "manager")
