import pytest

from vdsagent import instances as gen
from vdsagent import solver
from vdsagent.env import SCENARIO_KINDS, scenario_prompt
from vdsagent.errors import SchemaError


class TestDeterminism:
    def test_same_seed_same_instances(self):
        a = gen.generate_instances(7, "road_closure", 3)
        b = gen.generate_instances(7, "road_closure", 3)
        assert len(a) == len(b) == 3
        for (env_a, spec_a), (env_b, spec_b) in zip(a, b):
            assert env_a == env_b
            assert spec_a == spec_b

    def test_different_seeds_differ(self):
        a = gen.generate_instances(7, "road_closure", 1)[0][0]
        b = gen.generate_instances(8, "road_closure", 1)[0][0]
        assert a.fleet != b.fleet

    def test_instances_within_seed_differ(self):
        pair = gen.generate_instances(7, "road_closure", 2)
        assert pair[0][0].fleet != pair[1][0].fleet

    def test_prefix_stability(self):
        # instance i does not depend on how many instances were requested
        three = gen.generate_instances(7, "designated_route", 3)
        five = gen.generate_instances(7, "designated_route", 5)
        assert three == five[:3]


class TestShape:
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_fleet_size_and_ods(self, kind):
        env, spec = gen.generate_instances(11, kind, 1)[0]
        assert len(env.fleet.agvs) == gen.FLEET_SIZE
        assert len(env.fleet.tasks) == gen.FLEET_SIZE
        node_ids = env.network.node_ids
        for task in env.fleet.tasks:
            assert task.origin != task.destination
            assert task.origin in node_ids
            assert task.destination in node_ids
        assert spec == gen.fixed_scenario(kind)
        spec.validate_against(env)

    def test_fixed_scenario_params(self):
        assert gen.fixed_scenario("road_closure").edge == (6, 7)
        forbidden = gen.fixed_scenario("forbidden_edge_vehicle")
        assert (forbidden.vehicle, forbidden.edge) == ("AGV-4", (5, 6))
        route = gen.fixed_scenario("designated_route")
        assert (route.task, route.nodes) == ("T3", (6, 10, 11))

    def test_fixed_scenario_unknown_kind(self):
        with pytest.raises(SchemaError):
            gen.fixed_scenario("tsunami")

    def test_attribute_tagging(self):
        env, _ = gen.generate_instances(11, "forbidden_edge_vehicle", 1)[0]
        agvs = {a.id: a for a in env.fleet.agvs}
        assert agvs["AGV-4"].attributes["over_height"] is True
        assert "over_height" not in agvs["AGV-5"].attributes

        env, _ = gen.generate_instances(11, "designated_route", 1)[0]
        tasks = {t.id: t for t in env.fleet.tasks}
        assert tasks["T3"].attributes["dangerous_goods"] is True
        assert "dangerous_goods" not in tasks["T4"].attributes

    def test_requirements_default_level(self):
        env, spec = gen.generate_instances(11, "road_closure", 1)[0]
        assert env.requirements.level == "engineer"
        assert env.requirements.texts == \
            (scenario_prompt(spec, "engineer"),)


class TestFeasibility:
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_generated_instances_solve_under_scenario(self, kind):
        for env, spec in gen.generate_instances(3, kind, 2):
            solution = solver.oracle_solve(env, spec)
            assert solution.objective > 0


class TestWithLevel:
    def test_rephrases_only_requirements(self):
        env, spec = gen.generate_instances(11, "road_closure", 1)[0]
        scientist = gen.with_level(env, spec, "scientist")
        assert scientist.network == env.network
        assert scientist.fleet == env.fleet
        assert scientist.requirements.level == "scientist"
        assert scientist.requirements.texts == \
            (scenario_prompt(spec, "scientist"),)
        assert scientist.requirements != env.requirements


class TestArguments:
    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            gen.generate_instances(1, "road_closure", 0)
