import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from vdsagent import injection as inj
from vdsagent import llm, solver, workflow as wf
from vdsagent.env import (FULL_DIGEST_CHARS, FleetConfig, ScenarioSpec,
                          env_digest, scenario_prompt)
from vdsagent.errors import ConfigError

GOLDEN_CLOSURE = inj.golden_script()["scenarios"]["road_closure"]


def run(env, kb, script, **config_kwargs):
    config = wf.WorkflowConfig(accumulate_on_success=False, **config_kwargs)
    return run_with_config(env, kb, script, config)


def run_with_config(env, kb, script, config):
    return wf.run_transfer(env, kb, config, llm.MockBackend(script))


class TestGoldenRun:
    def test_solves_first_attempt(self, closure_instance, seed_kb):
        env, spec = closure_instance
        outcome = run(env, seed_kb, GOLDEN_CLOSURE)
        assert outcome.status == "solved"
        assert outcome.iterations == 1
        assert outcome.attempts[-1].stage_reached == "solved"
        # extraction keeps the newline before the closing fence
        assert outcome.final_program == \
            inj.CORRECT_PROGRAMS["road_closure"] + "\n"
        oracle = solver.oracle_solve(env, spec)
        assert outcome.solution.objective == oracle.objective
        attempt = outcome.attempts[0]
        assert attempt.stage_reached == "solved"
        assert attempt.error is None
        assert attempt.wall_time >= 0.0
        assert outcome.retrieved is not None

    def test_kshot_zero_keeps_primitive_section(self, closure_instance,
                                                 seed_kb):
        env, _ = closure_instance
        outcome = run(env, seed_kb, GOLDEN_CLOSURE, k_shot=0)
        user = outcome.attempts[0].modeler_prompt.user
        assert "## Modeling primitives" in user
        assert "## Worked exemplars\n(none)" in user


class TestRecovery:
    def test_second_attempt_solves(self, closure_instance, seed_kb):
        env, _ = closure_instance
        outcome = run(env, seed_kb, inj.recovery_script())
        assert outcome.status == "solved"
        assert outcome.iterations == 2
        first, second = outcome.attempts
        assert first.stage_reached == "parse"
        assert first.error
        assert first.reflection is not None
        correction = first.reflection.correction
        assert correction.startswith("Re-emit the complete program")
        # the reflection is forwarded verbatim into the next attempt
        assert correction in second.modeler_prompt.user
        assert correction in second.coder_prompt.user
        assert second.stage_reached == "solved"
        assert second.debugger_prompt is None

    def test_debugger_sees_failed_program(self, closure_instance, seed_kb):
        env, _ = closure_instance
        outcome = run(env, seed_kb, inj.recovery_script())
        debug_user = outcome.attempts[0].debugger_prompt.user
        assert inj.BROKEN_PROGRAM in debug_user
        assert "## Error message" in debug_user

    def test_extraction_failure_falls_back_to_raw_output(
            self, closure_instance, seed_kb):
        env, _ = closure_instance
        script = {
            "modeler": [inj.MODELER_SCHEMES["road_closure"]] * 2,
            "coder": ["no fenced block here",
                      inj.fenced(inj.CORRECT_PROGRAMS["road_closure"])],
            "debugger": [inj.RECOVERY_REFLECTION],
        }
        outcome = run(env, seed_kb, script)
        assert outcome.attempts[0].stage_reached == "extract"
        assert "no fenced block here" in outcome.attempts[0].debugger_prompt.user


class TestExhaustion:
    def test_stubborn_run_exhausts(self, closure_instance, seed_kb):
        env, _ = closure_instance
        outcome = run(env, seed_kb, helpers.stubborn_script())
        assert outcome.status == "exhausted"
        assert outcome.iterations == 3
        assert outcome.attempts[-1].stage_reached != "solved"
        assert outcome.solution is None
        assert outcome.final_program is None
        # debugger runs after every failure except the last
        assert outcome.attempts[0].debugger_output is not None
        assert outcome.attempts[1].debugger_output is not None
        assert outcome.attempts[2].debugger_output is None

    def test_no_self_correction_single_attempt(self, closure_instance,
                                               seed_kb):
        env, _ = closure_instance
        script = helpers.stubborn_script(attempts=1)
        outcome = run(env, seed_kb, script, max_iterations=1)
        assert outcome.status == "exhausted"
        assert outcome.iterations == 1
        assert outcome.attempts[0].debugger_prompt is None

    def test_no_rag_prompts_carry_no_knowledge(self, closure_instance,
                                               seed_kb):
        env, _ = closure_instance
        outcome = run(env, seed_kb, GOLDEN_CLOSURE, use_rag=False)
        assert outcome.retrieved is None
        user = outcome.attempts[0].modeler_prompt.user
        assert "## Modeling primitives" not in user
        assert "## Worked exemplars" not in user


class TestModelerReuse:
    def test_rerun_modeler_true_consumes_per_attempt(self, closure_instance,
                                                     seed_kb):
        # the modeler runs on every attempt, so one scheme cannot cover two
        env, _ = closure_instance
        script = dict(inj.recovery_script())
        script["modeler"] = script["modeler"][:1]
        with pytest.raises(llm.BackendExhausted):
            run(env, seed_kb, script)


class TestAccumulation:
    def test_success_appends_exemplar(self, closure_instance, seed_kb):
        env, _ = closure_instance
        before = len(seed_kb.exemplars)
        config = wf.WorkflowConfig(accumulate_on_success=True)
        outcome = run_with_config(env, seed_kb, GOLDEN_CLOSURE, config)
        assert outcome.accumulated
        assert len(seed_kb.exemplars) == before + 1
        stored = seed_kb.exemplars[-1]
        assert stored.program == outcome.final_program
        assert stored.description == " ".join(env.requirements.texts)

    def test_disabled_accumulation(self, closure_instance, seed_kb):
        env, _ = closure_instance
        before = len(seed_kb.exemplars)
        outcome = run(env, seed_kb, GOLDEN_CLOSURE)
        assert not outcome.accumulated
        assert len(seed_kb.exemplars) == before

    @pytest.mark.parametrize("texts", [(), ("  ", "")])
    def test_blank_requirements_solve_without_accumulating(
            self, closure_instance, seed_kb, texts):
        env, _ = closure_instance
        env = dataclasses.replace(env, requirements=dataclasses.replace(
            env.requirements, texts=texts))
        before = len(seed_kb.exemplars)
        config = wf.WorkflowConfig(accumulate_on_success=True)
        outcome = run_with_config(env, seed_kb, GOLDEN_CLOSURE, config)
        assert outcome.status == "solved"
        assert not outcome.accumulated
        assert len(seed_kb.exemplars) == before

    def test_stored_digest_of_empty_fleet_is_the_prompt_environment(
            self, closure_instance, seed_kb):
        env, _ = closure_instance
        env = dataclasses.replace(env, fleet=FleetConfig((), ()))
        config = wf.WorkflowConfig(accumulate_on_success=True)
        outcome = run_with_config(env, seed_kb, GOLDEN_CLOSURE, config)
        assert outcome.accumulated
        assert seed_kb.exemplars[-1].env_digest == environment_section(
            outcome.attempts[-1].modeler_prompt)

    def test_failure_never_accumulates(self, closure_instance, seed_kb):
        env, _ = closure_instance
        before = len(seed_kb.exemplars)
        config = wf.WorkflowConfig(accumulate_on_success=True)
        outcome = run_with_config(env, seed_kb, helpers.stubborn_script(), config)
        assert not outcome.accumulated
        assert len(seed_kb.exemplars) == before


class TestStageClassification:
    def one_shot(self, env, kb, coder_text):
        script = {
            "modeler": [inj.MODELER_SCHEMES["road_closure"]],
            "coder": [coder_text],
            "debugger": [],
        }
        return run(env, kb, script, max_iterations=1)

    def test_extract_stage(self, closure_instance, seed_kb):
        env, _ = closure_instance
        outcome = self.one_shot(env, seed_kb, "just prose, no code")
        assert outcome.attempts[0].stage_reached == "extract"
        assert outcome.attempts[0].extracted_program is None

    def test_parse_stage(self, closure_instance, seed_kb):
        env, _ = closure_instance
        outcome = self.one_shot(env, seed_kb, inj.fenced("model broken"))
        assert outcome.attempts[0].stage_reached == "parse"

    def test_static_stage(self, closure_instance, seed_kb):
        env, _ = closure_instance
        outcome = self.one_shot(env, seed_kb,
                                inj.fenced(inj.UNGROUNDED_PROGRAM))
        assert outcome.attempts[0].stage_reached == "static"
        assert "flow_balance" in outcome.attempts[0].error

    def test_oversized_integer_stops_at_parse(self, closure_instance):
        env, _ = closure_instance
        program = ("model m\nobjective minimize total_travel_time\n"
                   "constraints {\n  flow_balance all\n"
                   "  remove_edge (" + "9" * 5000 + ", 7)\n}")
        record = wf.AttemptRecord(index=1, stage_reached="extract")
        solution = wf._attempt_pipeline(inj.fenced(program), env,
                                        wf.WorkflowConfig(), record)
        assert solution is None
        assert record.stage_reached == "parse"
        assert "too long" in record.error

    def test_bind_stage(self, closure_instance, seed_kb):
        env, _ = closure_instance
        program = ("model m\nobjective minimize total_travel_time\n"
                   "constraints {\n  flow_balance all\n"
                   "  remove_edge (0, 999)\n}")
        outcome = self.one_shot(env, seed_kb, inj.fenced(program))
        assert outcome.attempts[0].stage_reached == "bind"

    def test_solve_stage(self, closure_instance, seed_kb):
        env, _ = closure_instance
        task = env.fleet.tasks[0]
        exits = sorted(v for (u, v) in env.network.lengths()
                       if u == task.origin)
        removals = "\n".join(f"  remove_edge ({task.origin}, {v})"
                             for v in exits)
        program = ("model m\nobjective minimize total_travel_time\n"
                   "constraints {\n  flow_balance all\n" + removals + "\n}")
        outcome = self.one_shot(env, seed_kb, inj.fenced(program))
        assert outcome.attempts[0].stage_reached == "solve"
        assert "infeasible" in outcome.attempts[0].error


class TestIterationBound:
    @settings(max_examples=20, deadline=None)
    @given(max_iter=st.integers(min_value=1, max_value=4))
    def test_attempts_never_exceed_budget(self, max_iter):
        from vdsagent.instances import generate_instances
        from vdsagent.knowledge import load_seed_kb

        env, _ = generate_instances(42, "road_closure", 1)[0]
        script = helpers.stubborn_script(attempts=4)
        outcome = run(env, load_seed_kb(), script, max_iterations=max_iter)
        assert outcome.status == "exhausted"
        assert outcome.iterations == max_iter


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_iterations": 0},
        {"k_shot": -1},
        {"solve_time_limit": 0.0},
        {"token_budget": 0},
        {"solve_time_limit": float("nan")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            wf.WorkflowConfig(**kwargs).validate()


class TestTrace:
    def test_round_trip(self, closure_instance, seed_kb, tmp_path):
        env, _ = closure_instance
        outcome = run(env, seed_kb, inj.recovery_script())
        path = tmp_path / "run.trace.json"
        outcome.write_trace(path)
        assert not (tmp_path / "run.trace.json.tmp").exists()
        data = json.loads(path.read_text())
        assert data["status"] == "solved"
        assert data["iterations"] == 2
        assert len(data["attempts"]) == 2
        assert data["attempts"][0]["reflection"]["correction"]
        assert data["solution"]["objective"] == outcome.solution.objective
        assert data["retrieved"]["exemplars"]

    def test_to_dict_is_json_serializable(self, closure_instance, seed_kb):
        env, _ = closure_instance
        outcome = run(env, seed_kb, helpers.stubborn_script())
        json.dumps(outcome.to_dict())


def closed_yard(side, fleet, u, v, seed=0):
    """A grid yard with the two-way road (u, v) closed, and the script
    that answers it correctly on the first attempt."""
    spec = ScenarioSpec("road_closure", edge=(u, v))
    env = helpers.grid_yard(side, fleet, [scenario_prompt(spec, "engineer")],
                            seed)
    script = {"modeler": [inj.modeler_scheme(spec)],
              "coder": [inj.fenced(inj.correct_program(spec))],
              "debugger": []}
    return env, spec, script


def environment_section(bundle):
    return bundle.user.split("## Terminal environment\n", 1)[1].split(
        "\n\n## Operational requirements\n", 1)[0]


class TestLargeYard:
    """Prompts show an excerpt of a yard too large to show whole."""

    def test_1600_node_yard_solves_under_default_budget(self, seed_kb):
        env, spec, script = closed_yard(40, 30, 820, 821)
        assert len(helpers.rendered_env_digest(env)) / 4 > \
            llm.DEFAULT_TOKEN_BUDGET
        outcome = run(env, seed_kb, script)
        assert outcome.status == "solved" and outcome.iterations == 1
        assert outcome.solution.objective == \
            solver.oracle_solve(env, spec).objective

    def test_kshot_three_from_accumulated_yards(self, seed_kb):
        for seed, (u, v) in enumerate(((21, 22), (105, 125), (377, 378))):
            env, _, script = closed_yard(20, 100, u, v, seed)
            config = wf.WorkflowConfig(k_shot=0)  # accumulates when solved
            assert run_with_config(env, seed_kb, script, config).accumulated
        env, _, script = closed_yard(20, 100, 250, 251, seed=3)
        outcome = run(env, seed_kb, script, k_shot=3)
        assert outcome.status == "solved"
        assert {e.id for e in outcome.retrieved.exemplars} == \
            {e.id for e in seed_kb.exemplars[-3:]}
        user = outcome.attempts[0].modeler_prompt.user
        assert user.count("\nEnvironment:\nexcerpt of 400 nodes") == 3

    def test_stored_digest_is_the_prompt_environment(self, seed_kb):
        env, _, script = closed_yard(20, 100, 21, 22)
        config = wf.WorkflowConfig()
        outcome = run_with_config(env, seed_kb, script, config)
        assert outcome.accumulated
        stored = seed_kb.exemplars[-1].env_digest
        assert stored == environment_section(
            outcome.attempts[-1].modeler_prompt)
        assert stored == env_digest(env)
        assert len(stored) < FULL_DIGEST_CHARS < len(
            env.network.digest + "\n" + env.fleet.digest)
