import json
import math
import random
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

import helpers
from vdsagent import bench, dsl, injection as inj, llm, solver
from vdsagent import workflow as wf
from vdsagent.env import FleetConfig, Network
from vdsagent.errors import ConfigError
from vdsagent.instances import fixed_scenario, generate_instances
from vdsagent.knowledge import load_seed_kb


def stub_outcome(stages, solved_objective=None):
    """A synthetic transfer outcome whose attempts hit the given stages."""
    attempts = [wf.AttemptRecord(index=i + 1, stage_reached=s)
                for i, s in enumerate(stages)]
    outcome = wf.TransferOutcome(
        status="solved" if stages[-1] == "solved" else "exhausted",
        attempts=attempts)
    if solved_objective is not None:
        outcome.solution = solver.Solution(
            paths={"AGV-1": (0, 1)}, costs={"AGV-1": solved_objective},
            objective=solved_objective)
    return outcome


def evaluate(stages, objective=None, oracle=100.0, tolerance=1e-4,
             max_iterations=3):
    return bench.evaluate_instance(
        "x-00-engineer", "road_closure", "engineer",
        stub_outcome(stages, objective), oracle, tolerance, max_iterations)


class TestEvaluateInstance:
    def test_exact_match_solves(self):
        r = evaluate(["solved"], objective=100.0)
        assert r.executed and r.solved
        assert r.failure_category is None
        assert r.iterations == 1

    def test_tolerance_boundary_is_inclusive(self):
        r = evaluate(["solved"], objective=1e-4, oracle=0.0)
        assert abs(r.objective - r.oracle_objective) == 1e-4
        assert r.solved

    def test_just_outside_tolerance(self):
        r = evaluate(["solved"], objective=2e-4, oracle=0.0)
        assert r.executed and not r.solved
        assert r.failure_category == "misinterpretation"

    def test_not_executed_has_no_objective(self):
        r = evaluate(["parse"])
        assert not r.executed and not r.solved
        assert r.objective is None


class TestFailureCategory:
    def category(self, stages, max_iterations=3):
        outcome = stub_outcome(stages)
        return bench.failure_category(outcome, executed=False, solved=False,
                                      max_iterations=max_iterations)

    def test_exhausted_needs_budget_and_stage_variety(self):
        assert self.category(["extract", "parse", "bind"]) == "exhausted"

    def test_repeated_single_stage_is_not_exhausted(self):
        assert self.category(["parse", "parse", "parse"]) == "syntax"

    def test_under_budget_uses_final_stage(self):
        assert self.category(["extract", "bind"], max_iterations=3) == "runtime"

    @pytest.mark.parametrize("stage,expected", [
        ("extract", "syntax"), ("parse", "syntax"), ("static", "syntax"),
        ("bind", "runtime"), ("solve", "runtime"),
    ])
    def test_single_attempt_stages(self, stage, expected):
        assert self.category([stage]) == expected

    def test_misinterpretation_overrides_stages(self):
        outcome = stub_outcome(["solved"], solved_objective=50.0)
        assert bench.failure_category(outcome, executed=True, solved=False,
                                      max_iterations=3) == "misinterpretation"

    def test_solved_is_uncategorized(self):
        outcome = stub_outcome(["solved"], solved_objective=50.0)
        assert bench.failure_category(outcome, executed=True, solved=True,
                                      max_iterations=3) is None


def make_results(n_total, n_solved, n_executed=None):
    if n_executed is None:
        n_executed = n_total
    results = []
    for i in range(n_total):
        solved = i < n_solved
        executed = i < n_executed
        results.append(bench.InstanceResult(
            instance_id=f"i{i}", scenario="road_closure", level="engineer",
            executed=executed, solved=solved,
            objective=100.0 if executed else None, oracle_objective=100.0,
            iterations=1, wall_time=0.5,
            failure_category=None if solved else "misinterpretation"))
    return results


class TestComputeMetrics:
    def test_all_solved(self):
        m = bench.compute_metrics(make_results(45, 45))
        assert m.cer == 1.0 and m.ssr == 1.0
        assert m.n_total == 45 and m.n_solved == 45

    def test_three_failures(self):
        m = bench.compute_metrics(make_results(45, 42))
        assert m.cer == 1.0
        assert m.ssr == pytest.approx(42 / 45, abs=1e-9)
        assert m.ssr == pytest.approx(0.9333333333333333, abs=1e-9)

    def test_empty_input(self):
        with pytest.raises(bench.EmptyInputError):
            bench.compute_metrics([])

    def test_permutation_invariance(self):
        results = make_results(20, 13, n_executed=17)
        shuffled = results[:]
        random.Random(3).shuffle(shuffled)
        assert bench.compute_metrics(results) == \
            bench.compute_metrics(shuffled)

    def test_ssr_never_exceeds_cer(self):
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randint(1, 30)
            executed = rng.randint(0, n)
            solved = rng.randint(0, executed)
            m = bench.compute_metrics(make_results(n, solved, executed))
            assert 0.0 <= m.ssr <= m.cer <= 1.0

    def test_means(self):
        results = make_results(4, 4)
        m = bench.compute_metrics(results)
        assert m.mean_iterations == 1.0
        assert m.mean_wall_time == pytest.approx(0.5)


class TestSuiteConfig:
    @pytest.mark.parametrize("kwargs", [
        {"ablation": "no-debugger"},
        {"accumulate_policy": "hoard"},
        {"instances_per_scenario": 0},
        {"scenarios": ("road_closure", "meteor_strike")},
        {"levels": ("engineer", "manager")},
        {"k_shot": "three"},
        {"k_shot": -1},
        {"max_iterations": 0},
        {"seed": 1.5},
        {"tolerance": -1e-4},
        {"solve_time_limit": 0},
        {"tolerance": math.nan},
        {"solve_time_limit": math.nan},
        # a repeat would run one instance id twice under one trace file
        {"levels": ("engineer", "engineer", "scientist")},
        {"scenarios": ("road_closure", "designated_route", "road_closure")},
        # an empty suite would generate and solve oracles, then find no rows
        {"levels": ()},
        {"scenarios": ()},
        # a truthy string or number would switch learning on
        {"learn_during_run": "no"},
        {"learn_during_run": 0},
    ])
    def test_validate_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            bench.SuiteConfig(**kwargs).validate()

    def test_labels(self):
        assert bench.SuiteConfig().label() == "full"
        assert bench.SuiteConfig(ablation="no-rag").label() == "w/o RAG"
        assert bench.SuiteConfig(
            ablation="no-self-correction").label() == "w/o self-correction"

    def test_workflow_config_mirrors_ablation(self):
        full = bench.SuiteConfig().workflow_config()
        assert full.use_rag and full.max_iterations == 3
        assert not full.accumulate_on_success
        assert not bench.SuiteConfig(
            ablation="no-rag").workflow_config().use_rag
        assert bench.SuiteConfig(
            ablation="no-self-correction").workflow_config().max_iterations == 1


class TestProviders:
    def test_scripted_provider_fresh_backend_per_call(self, closure_instance):
        env, spec = closure_instance
        provider = bench.scripted_provider(inj.golden_script())
        a = provider("road_closure-00-engineer", env, spec)
        b = provider("road_closure-00-engineer", env, spec)
        assert a is not b
        bundle = llm.PromptBundle(role="modeler", system="s", user="u")
        assert a.complete(bundle) == b.complete(bundle)

    def test_shared_provider_returns_same_object(self, closure_instance):
        env, spec = closure_instance
        backend = object()
        provider = bench.shared_provider(backend)
        assert provider("a", env, spec) is backend
        assert provider("b", env, spec) is backend


class TestResolveRunScript:
    """`scripted_provider` resolves each instance's run script."""

    @staticmethod
    def modeler_reply(provider, instance, env, kind):
        backend = provider(instance, env, fixed_scenario(kind))
        return backend.complete(
            llm.PromptBundle(role="modeler", system="s", user="u"))

    def test_flat_script_is_its_own_default(self, closure_instance):
        env, _ = closure_instance
        provider = bench.scripted_provider({"modeler": ["m"], "coder": ["c"]})
        for instance, kind in (("any-id", "road_closure"),
                               ("designated_route-00-engineer",
                                "designated_route")):
            assert self.modeler_reply(provider, instance, env, kind) == "m"

    def test_precedence_instance_over_scenario_over_default(
            self, closure_instance):
        env, _ = closure_instance
        provider = bench.scripted_provider({
            "default": {"modeler": ["d"]},
            "scenarios": {"road_closure": {"modeler": ["s"]}},
            "instances": {"road_closure-01-engineer": {"modeler": ["i"]}},
        })
        assert self.modeler_reply(provider, "road_closure-01-engineer", env,
                                  "road_closure") == "i"
        assert self.modeler_reply(provider, "road_closure-00-engineer", env,
                                  "road_closure") == "s"
        assert self.modeler_reply(provider, "designated_route-00-engineer",
                                  env, "designated_route") == "d"

    @pytest.mark.parametrize("doc, entry", [
        ({"instances": {"road_closure-00-scientist": 5}},
         "instances.road_closure-00-scientist: expected an object"),
        ({"scenarios": {"designated_route": {"coder": ["c"], "critic": []}}},
         "scenarios.designated_route has unknown roles: ['critic']"),
        ({"default": {"debugger": [None]}}, "default debugger[0]: "),
    ], ids=["instances", "scenarios", "default"])
    def test_bad_entry_named_when_provider_is_made(self, doc, entry):
        with pytest.raises(ConfigError) as exc:
            bench.scripted_provider(doc)
        assert str(exc.value).startswith(f"mock script {entry}")

    @pytest.mark.parametrize("doc, missing", [
        ({"modeler": ["m"]}, None),
        ({"default": {}}, None),
        ({"scenarios": {"road_closure": {}, "designated_route": {}}},
         "forbidden_edge_vehicle-00-technician"),
        ({"instances": {"road_closure-00-technician": {}}},
         "road_closure-00-engineer"),
    ], ids=["flat", "default", "scenario-missing", "instances-only"])
    def test_run_benchmark_names_first_uncovered_instance(
            self, doc, missing, monkeypatch, tmp_path):
        # the suite is set up whole, so a gap fails before any transfer
        class FirstTransfer(Exception):
            pass

        def first_transfer(*args):
            raise FirstTransfer
        monkeypatch.setattr(bench, "run_transfer", first_transfer)
        traces = tmp_path / "traces"
        expected = (pytest.raises(FirstTransfer) if missing is None else
                    pytest.raises(ConfigError,
                                  match=f"for instance {missing}$"))
        with expected:
            bench.run_benchmark(bench.SuiteConfig(), load_seed_kb(),
                                bench.scripted_provider(doc),
                                trace_dir=traces)
        assert traces.exists() == (missing is None)

    def test_no_entry_raises(self, closure_instance):
        env, spec = closure_instance
        provider = bench.scripted_provider({"scenarios": {}})
        with pytest.raises(ConfigError, match="for instance x$"):
            provider("x", env, spec)


def small_suite(**kwargs):
    base = dict(instances_per_scenario=1)
    base.update(kwargs)
    return bench.SuiteConfig(**base)


class TestRunBenchmark:
    def test_golden_report_shape(self):
        report = bench.run_benchmark(
            small_suite(), load_seed_kb(),
            bench.scripted_provider(inj.golden_script()))
        overall = report["aggregates"]["overall"]
        assert overall["n_total"] == 9
        assert overall["cer"] == 1.0 and overall["ssr"] == 1.0
        assert overall["mean_iterations"] == 1.0
        assert report["failure_categories"] == {}
        assert report["config"]["label"] == "full"
        assert list(report["aggregates"]["by_scenario"]) == \
            list(bench.SuiteConfig().scenarios)
        assert list(report["aggregates"]["by_level"]) == \
            list(bench.SuiteConfig().levels)
        assert report["stats"]["ssr_exact"] == {"p_value": 1.0,
                                                "significant": False}
        assert report["stats"]["iterations_exact"] == {"p_value": 1.0,
                                                       "significant": False}
        assert [row["trace"] for row in report["instances"]] == [None] * 9
        ids = [row["instance_id"] for row in report["instances"]]
        assert ids[0] == "road_closure-00-technician"
        assert len(set(ids)) == 9
        json.dumps(report)  # report must be a plain JSON document

    def test_golden_suite_parses_three_distinct_programs(self, seed_kb):
        # 45 transfers and 45 stored exemplars parse one program per kind
        before = dsl._parse.cache_info()
        bench.run_benchmark(bench.SuiteConfig(seed=3), seed_kb,
                            bench.scripted_provider(inj.golden_script()))
        after = dsl._parse.cache_info()
        assert after.misses - before.misses == 3
        assert after.hits - before.hits == 87

    def test_traces_written_and_referenced(self, tmp_path):
        report = bench.run_benchmark(
            small_suite(scenarios=("road_closure",)), load_seed_kb(),
            bench.scripted_provider(inj.golden_script()),
            trace_dir=tmp_path / "traces")
        rows = report["instances"]
        assert len(rows) == 3
        for row in rows:
            assert row["trace"].endswith(f"{row['instance_id']}.trace.json")
            data = json.loads(Path(row["trace"]).read_text())
            assert data["status"] == "solved"
        assert len(list((tmp_path / "traces").glob("*.trace.json"))) == 3
        # one run per level still gives a levels x iterations table
        assert "ssr_exact" in report["stats"]
        assert report["stats"]["iterations_exact"] == {"p_value": 1.0,
                                                       "significant": False}

    def test_reports_identical_modulo_clock(self):
        suite = small_suite()
        provider = bench.scripted_provider(inj.golden_script())
        a = bench.run_benchmark(suite, load_seed_kb(), provider)
        b = bench.run_benchmark(suite, load_seed_kb(), provider)
        assert helpers.unclocked(a) == helpers.unclocked(b)

    def test_oracle_and_transfers_reuse_generated_routes(self, monkeypatch):
        # generation searches every route of a scenario's network; the
        # oracle and all three levels' transfers on it only look them up
        fresh = Counter()
        stage = ["other"]
        search = solver._search

        def counted(*args):
            fresh[stage[0]] += 1
            return search(*args)

        def staged(name, fn):
            def wrapper(*args, **kwargs):
                stage[0] = name
                try:
                    return fn(*args, **kwargs)
                finally:
                    stage[0] = "other"
            return wrapper

        monkeypatch.setattr(solver, "_search", counted)
        monkeypatch.setattr(bench, "oracle_solve",
                            staged("oracle", bench.oracle_solve))
        monkeypatch.setattr(bench, "run_transfer",
                            staged("transfer", bench.run_transfer))
        report = bench.run_benchmark(
            bench.SuiteConfig(seed=3), load_seed_kb(),
            bench.scripted_provider(inj.golden_script()))
        assert report["aggregates"]["overall"]["ssr"] == 1.0
        assert fresh["other"] > 0
        assert fresh["oracle"] == 0
        assert fresh["transfer"] == 0

    def test_digests_render_once_per_network_and_fleet(self, monkeypatch):
        # a golden suite holds 3 networks and 15 fleets; every level's
        # transfer and accumulation joins their cached digests
        renders = Counter()
        for owner in (Network, FleetConfig):
            def counted(obj, render=owner.digest.func, name=owner.__name__):
                renders[name] += 1
                return render(obj)
            digest = cached_property(counted)
            digest.__set_name__(owner, "digest")
            monkeypatch.setattr(owner, "digest", digest)
        report = bench.run_benchmark(
            bench.SuiteConfig(seed=3), load_seed_kb(),
            bench.scripted_provider(inj.golden_script()))
        assert report["aggregates"]["overall"]["ssr"] == 1.0
        assert renders == {"Network": 3, "FleetConfig": 15}

    def test_empty_levels_rejected_by_stats_absence(self):
        report = bench.run_benchmark(
            small_suite(levels=("engineer",)), load_seed_kb(),
            bench.scripted_provider(inj.golden_script()))
        assert report["stats"] == {}

    def test_single_attempt_omits_iterations_entry(self):
        # max_iterations 1 gives a levels x 1 table, which tests nothing
        report = bench.run_benchmark(
            small_suite(ablation="no-self-correction"), load_seed_kb(),
            bench.scripted_provider(inj.golden_script()))
        assert sorted(report["stats"]) == ["cer_exact", "ssr_exact"]


class TestAccumulation:
    def one_way_mismatch_count(self, n=5):
        ast = dsl.parse(inj.ONE_WAY_CLOSURE_PROGRAM)
        count = 0
        for env, spec in generate_instances(42, "road_closure", n):
            full = solver.oracle_solve(env, spec).objective
            one_way = solver.solve(solver.bind(ast, env), env.network,
                                   env.fleet.trips).objective
            if abs(full - one_way) > 1e-9:
                count += 1
        return count

    def suite(self, policy):
        return bench.SuiteConfig(scenarios=("road_closure",),
                                 levels=("technician",),
                                 instances_per_scenario=5,
                                 accumulate_policy=policy)

    def one_way_provider(self):
        flat = {
            "modeler": [inj.MODELER_SCHEMES["road_closure"]],
            "coder": [inj.fenced(inj.ONE_WAY_CLOSURE_PROGRAM)],
            "debugger": [],
        }
        return bench.scripted_provider(flat)

    def test_agent_policy_stores_every_agent_solve(self):
        kb = load_seed_kb()
        before = len(kb.exemplars)
        bench.run_benchmark(self.suite("agent"), kb, self.one_way_provider())
        assert len(kb.exemplars) == before + 5

    def test_oracle_policy_stores_only_true_solves(self):
        mismatches = self.one_way_mismatch_count()
        assert mismatches >= 2  # the fault suite depends on this
        kb = load_seed_kb()
        before = len(kb.exemplars)
        bench.run_benchmark(self.suite("oracle"), kb, self.one_way_provider())
        assert len(kb.exemplars) == before + (5 - mismatches)

    def test_none_policy_stores_nothing(self):
        kb = load_seed_kb()
        before = len(kb.exemplars)
        bench.run_benchmark(self.suite("none"), kb, self.one_way_provider())
        assert len(kb.exemplars) == before

    def retrieved_ids(self, trace_dir):
        ids = {}
        for path in sorted(trace_dir.glob("*.trace.json")):
            data = json.loads(path.read_text())
            ids[path.name] = data["retrieved"]["exemplars"]
        return ids

    def test_snapshot_blocks_mid_run_leakage(self, tmp_path):
        suite = bench.SuiteConfig(scenarios=("road_closure",),
                                  levels=("engineer",),
                                  instances_per_scenario=2)
        bench.run_benchmark(suite, load_seed_kb(),
                            bench.scripted_provider(inj.golden_script()),
                            trace_dir=tmp_path)
        for exemplar_ids in self.retrieved_ids(tmp_path).values():
            assert not any(e.startswith("acc-") for e in exemplar_ids)

    def test_learn_during_run_feeds_later_instances(self, tmp_path):
        suite = bench.SuiteConfig(scenarios=("road_closure",),
                                  levels=("engineer",),
                                  instances_per_scenario=2,
                                  learn_during_run=True)
        bench.run_benchmark(suite, load_seed_kb(),
                            bench.scripted_provider(inj.golden_script()),
                            trace_dir=tmp_path)
        ids = self.retrieved_ids(tmp_path)
        first = ids["road_closure-00-engineer.trace.json"]
        second = ids["road_closure-01-engineer.trace.json"]
        assert not any(e.startswith("acc-") for e in first)
        assert any(e.startswith("acc-") for e in second)


class TestCsv:
    def test_header_and_rows(self):
        report = bench.run_benchmark(
            small_suite(scenarios=("road_closure",), levels=("engineer",)),
            load_seed_kb(), bench.scripted_provider(inj.golden_script()))
        text = bench.report_to_csv(report)
        lines = text.splitlines()
        assert lines[0] == ",".join(bench.CSV_COLUMNS)
        assert len(lines) == 1 + len(report["instances"])
        first = lines[1].split(",")
        assert first[0] == "road_closure-00-engineer"
        assert first[3] == "True" and first[4] == "True"
