import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from vdsagent import dsl
from vdsagent.cli import (DEFAULT_CONFIG_FILE, DEFAULT_NETWORK_FILE,
                          DEFAULT_REQUIREMENTS_FILE, main)
from vdsagent.env import (EXPERTISE_LEVELS, FULL_DIGEST_CHARS,
                          SCENARIO_KINDS, Agv, Edge, FleetConfig, Network,
                          Node, Requirements,
                          ScenarioSpec, Task, TerminalEnv, default_network,
                          env_digest, parse_environment, parse_fleet_config,
                          parse_network, parse_requirements, scenario_prompt)
from vdsagent.errors import CrossReferenceError, SchemaError
from vdsagent.injection import correct_program
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
        with pytest.raises(SchemaError, match="^duplicate node id 1$"):
            Network(nodes=(Node(0), Node(1), Node(2), Node(1), Node(0)),
                    edges=())

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
        with pytest.raises(SchemaError, match="^duplicate agv id A$"):
            FleetConfig(agvs=(Agv("A"), Agv("A")), tasks=())

    def test_duplicate_task_rejected(self):
        with pytest.raises(SchemaError, match="^duplicate task id T1$"):
            FleetConfig(agvs=(Agv("A"), Agv("B")),
                        tasks=(Task("T1", "A", 0, 1), Task("T1", "B", 1, 2)))

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


def _set(path, value):
    """A change to the JSON document at `path` (keys and indexes)."""
    def change(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return change


def _copy_first_task_id(doc):
    doc["tasks"][1]["id"] = doc["tasks"][0]["id"]


class TestRejectedEnvironmentFiles:
    """Each bad file raises its error class from the parser, and `oracle`
    reading it exits 2 with the same message."""

    FILES = {
        "--net": (DEFAULT_NETWORK_FILE, parse_network),
        "--config": (DEFAULT_CONFIG_FILE, parse_fleet_config),
        "--scenario": (DEFAULT_NETWORK_FILE.parent / "scenario.json",
                       lambda text: ScenarioSpec.from_dict(json.loads(text))),
    }

    @pytest.mark.parametrize("flag, change, error, prefix", [
        ("--net", _set(("nodes", 0), 5), SchemaError,
         "network.nodes[0]: expected an object, got int"),
        ("--net", _set(("nodes", 0, "type"), 7), SchemaError,
         "network.nodes[0].type: wrong type"),
        ("--net", _set(("edges", 0, "source"), 99), CrossReferenceError,
         "edge references unknown node 99"),
        ("--config", _set(("agvs", 0, "attributes"), [1]), SchemaError,
         "config.agvs[0].attributes: expected an object"),
        ("--net", _set(("nodes", 1, "id"), 0), SchemaError,
         "duplicate node id 0"),
        ("--config", _set(("agvs", 1, "id"), "AGV-1"), SchemaError,
         "duplicate agv id AGV-1"),
        ("--config", _copy_first_task_id, SchemaError,
         "duplicate task id T1"),
        ("--scenario", _set(("params",), [6, 7]), SchemaError,
         "scenario.params: expected an object"),
    ], ids=["node-int", "node-type-int", "unknown-source", "attributes-list",
            "node-id-repeated", "agv-id-repeated", "task-id-repeated",
            "params-list"])
    def test_parser_and_cli_reject(self, tmp_path, capsys, flag, change,
                                   error, prefix):
        default, parser = self.FILES[flag]
        doc = json.loads(default.read_text())
        change(doc)
        text = json.dumps(doc)
        with pytest.raises(error) as exc:
            parser(text)
        assert str(exc.value).startswith(prefix)
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["oracle", flag, str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {prefix}")


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

    def test_large_yard_is_excerpted(self):
        env = helpers.grid_yard(20, 100, ["Close the road from 21 to 22."])
        full = env.network.digest + "\n" + env.fleet.digest
        assert len(full) > FULL_DIGEST_CHARS
        assert full == helpers.rendered_env_digest(env)
        assert env_digest(env) != helpers.rendered_env_digest(env)
        assert env_digest(env) is env_digest(env)


def program_references(program):
    """The node ids, links, vehicle ids and task ids `program` names."""
    nodes, links, vehicles, tasks = set(), set(), set(), set()
    for stmt in dsl.parse(program).statements:
        if isinstance(stmt, (dsl.RemoveEdge, dsl.ForbidEdge)):
            links.add((stmt.source, stmt.target))
        elif isinstance(stmt, (dsl.RequireSubpath, dsl.RequireExactPath)):
            links.update(zip(stmt.nodes, stmt.nodes[1:]))
        subject = getattr(stmt, "subject", None)
        if subject is not None:
            (vehicles if subject.kind == "vehicle" else tasks).add(
                subject.ident)
    for link in links:
        nodes.update(link)
    return nodes, links, vehicles, tasks


def fleet_of(*agv_ids):
    return FleetConfig(tuple(Agv(a) for a in agv_ids), ())


class TestExcerpt:
    """Above `FULL_DIGEST_CHARS`, `env_digest` lists only what the
    requirements name and what carries attributes."""

    def test_size_rule_is_at_most(self):
        # a lone vehicle's id pads the full digest to the limit, then past it
        base = len(triangle().digest + "\n" + fleet_of("").digest)
        for size, excerpted in ((FULL_DIGEST_CHARS, False),
                                (FULL_DIGEST_CHARS + 1, True)):
            env = TerminalEnv(triangle(), fleet_of("A" * (size - base)),
                              Requirements("engineer", ()))
            full = helpers.rendered_env_digest(env)
            assert len(full) == size
            assert (env_digest(env) != full.rstrip()) == excerpted

    def test_exact_rendering(self):
        nodes = (Node(0, "quay"), Node(1), Node(2, "yard"))
        edges = (Edge(0, 1, 1), Edge(1, 0, 1.5), Edge(1, 2, 1), Edge(2, 1, 1))
        agvs = tuple(Agv(f"AGV-{k}") for k in range(1, 401))
        tasks = tuple(Task(f"T{k}", f"AGV-{k}", k % 3, (k + 1) % 3,
                           {"hazard": 1} if k == 300 else {})
                      for k in range(1, 401))
        env = TerminalEnv(Network(nodes, edges), FleetConfig(agvs, tasks),
                          Requirements("engineer", (
                              "AGV-7 must avoid 0->1;", "mind T12.")))
        assert env_digest(env) == (
            "excerpt of 3 nodes, 4 edges, 400 agvs and 400 tasks: the nodes "
            "the requirements name, with their links, and the agvs and tasks "
            "they name or that have attributes\n"
            "nodes (2): 0:quay 1\n"
            "edges (4): 0->1:1 1->0:1.5 1->2:1 2->1:1\n"
            "agvs (2): AGV-7 AGV-12\n"
            "tasks (3): T7:AGV-7:1->2 T12:AGV-12:0->1 "
            "T300:AGV-300:0->1[hazard=1]")

    def test_empty_requirements(self):
        env = helpers.grid_yard(20, 100)
        assert env_digest(env).split("\n")[1:] == [
            "nodes (0): ", "edges (0): ", "agvs (0): ", "tasks (0):"]

    def test_id_followed_by_punctuation(self):
        env = helpers.grid_yard(20, 100, ["Hold T3. Then release AGV-40,"])
        _, _, agvs, tasks = helpers.excerpt_names(env_digest(env))
        assert agvs == {"AGV-3", "AGV-40"}
        assert tasks == {"T3", "T40"}

    def test_ids_match_whole_words_only(self):
        env = helpers.grid_yard(20, 100, ["AGV-10 and T100x are named"])
        _, _, agvs, tasks = helpers.excerpt_names(env_digest(env))
        assert agvs == {"AGV-10"} and tasks == {"T10"}

    def test_long_digit_run_is_not_read(self):
        text = "1" * 5000 + " then 12 and -" + "9" * 5000
        env = helpers.grid_yard(20, 100, [text])
        nodes, _, _, _ = helpers.excerpt_names(env_digest(env))
        assert nodes == {12}

    def test_negative_node_ids(self):
        edges = {(u, v): 1 for u in range(-300, 299) for v in (u + 1,)}
        edges.update({(v, u): 1 for u, v in list(edges)})
        env = TerminalEnv(helpers.network_from(edges, range(-300, 300)),
                          fleet_of(), Requirements("engineer", (
                              "close (-5, -4)",)))
        nodes, links, _, _ = helpers.excerpt_names(env_digest(env))
        assert {-5, -4, 4, 5} == nodes
        assert {(-5, -4), (-4, -5), (-6, -5), (-4, -3)} <= links

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_names_everything_the_program_references(self, data):
        side = data.draw(st.integers(15, 22), "side")
        fleet = data.draw(st.integers(1, 60), "fleet")
        kind = data.draw(st.sampled_from(SCENARIO_KINDS), "kind")
        links = sorted(helpers.grid_edges(side))
        k = data.draw(st.integers(1, fleet), "vehicle")
        if kind == "designated_route":
            walk = [data.draw(st.integers(0, side * side - 1), "start")]
            for _ in range(data.draw(st.integers(1, 5), "hops")):
                steps = [v for u, v in links if u == walk[-1]
                         and v not in walk]
                if not steps:
                    break
                walk.append(data.draw(st.sampled_from(steps)))
            spec = ScenarioSpec(kind, task=f"T{k}", nodes=tuple(walk))
        else:
            edge = data.draw(st.sampled_from(links), "edge")
            spec = ScenarioSpec(kind, edge=edge, vehicle=(
                f"AGV-{k}" if kind == "forbidden_edge_vehicle" else None))
        base = helpers.grid_yard(side, fleet,
                                 seed=data.draw(st.integers(0, 99), "seed"))
        # attributes as generate_instances sets them
        agvs = tuple(dataclasses.replace(a, attributes={"over_height": True})
                     if a.id == spec.vehicle else a for a in base.fleet.agvs)
        tasks = tuple(
            dataclasses.replace(t, attributes={"dangerous_goods": True})
            if t.id == spec.task else t for t in base.fleet.tasks)
        want = program_references(correct_program(spec))
        assert want[1]  # every scenario's program names a link
        for level in EXPERTISE_LEVELS:
            env = TerminalEnv(base.network, FleetConfig(agvs, tasks),
                              Requirements(level, (
                                  scenario_prompt(spec, level),)))
            digest = env_digest(env)
            assert digest != helpers.rendered_env_digest(env)
            for got, needed in zip(helpers.excerpt_names(digest), want):
                assert needed <= got


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

    def test_unknown_level_rejected(self, closure_instance):
        env, spec = closure_instance
        message = "^unknown expertise level 'bogus'$"
        with pytest.raises(SchemaError, match=message):
            scenario_prompt(spec, "bogus")
        with pytest.raises(SchemaError, match=message):
            with_level(env, spec, "bogus")
        with pytest.raises(SchemaError, match=message):
            Requirements("bogus", ())
