import json

import pytest

import helpers
from vdsagent import injection as inj
from vdsagent.cli import (DEFAULT_CONFIG_FILE, DEFAULT_NETWORK_FILE,
                          DEFAULT_REQUIREMENTS_FILE, main)
from vdsagent.env import parse_environment


@pytest.fixture
def script_path(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


def golden_flat():
    return inj.golden_script()["scenarios"]["road_closure"]


def default_env():
    return parse_environment(DEFAULT_NETWORK_FILE.read_text(),
                             DEFAULT_CONFIG_FILE.read_text(),
                             DEFAULT_REQUIREMENTS_FILE.read_text())


class TestRun:
    def test_golden_run_solves(self, tmp_path, script_path, capsys):
        script = script_path("golden.json", golden_flat())
        trace = tmp_path / "run.trace.json"
        out = tmp_path / "solution.json"
        code = main(["run", "--llm", f"mock:{script}",
                     "--trace", str(trace), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "status: solved" in stdout
        assert "iterations: 1" in stdout
        assert "objective:" in stdout
        assert json.loads(trace.read_text())["status"] == "solved"
        payload = json.loads(out.read_text())
        assert set(payload) == {"objective", "paths", "costs"}
        assert len(payload["paths"]) == 30

    def test_exhausted_run_exits_one(self, tmp_path, script_path, capsys):
        script = script_path("stubborn.json", helpers.stubborn_script())
        trace = tmp_path / "run.trace.json"
        code = main(["run", "--llm", f"mock:{script}", "--trace", str(trace)])
        assert code == 1
        stdout = capsys.readouterr().out
        assert "status: exhausted" in stdout
        assert "failed at stage: extract" in stdout
        assert len(json.loads(trace.read_text())["attempts"]) == 3

    @pytest.mark.parametrize("responses", ("hello", 5))
    def test_script_role_not_a_list_exits_two(self, script_path, capsys,
                                              responses):
        script = script_path("bad.json", {"coder": responses})
        assert main(["run", "--llm", f"mock:{script}"]) == 2
        assert "must map to lists" in capsys.readouterr().err

    def test_no_self_correction_flag(self, script_path, capsys):
        script = script_path("stubborn.json", helpers.stubborn_script())
        code = main(["run", "--llm", f"mock:{script}", "--no-self-correction"])
        assert code == 1
        assert "iterations: 1" in capsys.readouterr().out

    @pytest.mark.parametrize("max_iter", ("0", "-2"))
    def test_no_self_correction_keeps_budget_check(self, script_path, capsys,
                                                   max_iter):
        script = script_path("stubborn.json", helpers.stubborn_script())
        code = main(["run", "--llm", f"mock:{script}", "--max-iter", max_iter,
                     "--no-self-correction"])
        assert code == 2
        assert "max_iterations must be >= 1" in capsys.readouterr().err

    def test_missing_requirements_file(self, tmp_path, script_path, capsys):
        script = script_path("golden.json", golden_flat())
        code = main(["run", "--llm", f"mock:{script}",
                     "--reqs", str(tmp_path / "missing.json")])
        assert code == 2
        assert "missing.json" in capsys.readouterr().err

    def test_unknown_backend(self, capsys):
        code = main(["run", "--llm", "carrier-pigeon"])
        assert code == 2
        assert "carrier-pigeon" in capsys.readouterr().err

    def test_bad_mock_script_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{...")
        assert main(["run", "--llm", f"mock:{bad}"]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_mock_script_not_object(self, script_path, capsys):
        script = script_path("list.json", [1, 2])
        assert main(["run", "--llm", f"mock:{script}"]) == 2
        assert "expected an object" in capsys.readouterr().err

    def test_blank_requirements_solve(self, tmp_path, script_path, capsys):
        script = script_path("golden.json", golden_flat())
        reqs = script_path("reqs.json", {"expertise_level": "engineer",
                                         "requirements": []})
        trace = tmp_path / "run.trace.json"
        code = main(["run", "--llm", f"mock:{script}", "--reqs", reqs,
                     "--trace", str(trace)])
        assert code == 0
        assert "status: solved" in capsys.readouterr().out
        assert json.loads(trace.read_text())["accumulated"] is False

    def test_nan_time_limit_exits_two(self, script_path, capsys):
        script = script_path("golden.json", golden_flat())
        code = main(["run", "--llm", f"mock:{script}", "--time-limit", "nan"])
        assert code == 2
        assert "time limit" in capsys.readouterr().err


class TestBench:
    def test_fault_suite_artifacts(self, tmp_path, script_path, capsys):
        script = script_path("fault.json", inj.fault_injection_script())
        out = tmp_path / "out"
        code = main(["bench", "--llm", f"mock:{script}", "--out", str(out)])
        assert code == 0  # imperfect SSR is still a completed benchmark
        stdout = capsys.readouterr().out
        assert "CER: 1.0000" in stdout
        assert "SSR: 0.9333" in stdout
        report = json.loads((out / "report.json").read_text())
        assert len(report["instances"]) == 45
        assert report["failure_categories"] == {"misinterpretation": 3}
        csv_lines = (out / "report.csv").read_text().splitlines()
        assert len(csv_lines) == 46
        traces = list((out / "traces").glob("*.trace.json"))
        assert len(traces) == 45
        for row in report["instances"]:
            assert row["trace"] and row["trace"].endswith(".trace.json")

    def test_suite_file_and_overrides(self, tmp_path, script_path, capsys):
        suite = script_path("suite.json", {
            "scenarios": ["road_closure"],
            "levels": ["engineer"],
            "instances_per_scenario": 2,
        })
        script = script_path("golden.json", inj.golden_script())
        out = tmp_path / "out"
        code = main(["bench", "--suite", suite, "--seed", "7",
                     "--ablation", "no-rag", "--llm", f"mock:{script}",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["label"] == "w/o RAG"
        assert report["config"]["seed"] == 7
        assert report["config"]["scenarios"] == ["road_closure"]
        assert len(report["instances"]) == 2
        for path in (out / "traces").glob("*.trace.json"):
            trace = json.loads(path.read_text())
            assert trace["retrieved"] is None
            user = trace["attempts"][0]["modeler_prompt"]["user"]
            assert "## Modeling primitives" not in user

    def test_kshot_zero_prompts(self, tmp_path, script_path):
        suite = script_path("suite.json", {
            "scenarios": ["road_closure"],
            "levels": ["engineer"],
            "instances_per_scenario": 1,
        })
        script = script_path("golden.json", inj.golden_script())
        out = tmp_path / "out"
        code = main(["bench", "--suite", suite, "--kshot", "0",
                     "--llm", f"mock:{script}", "--out", str(out)])
        assert code == 0
        trace_files = list((out / "traces").glob("*.trace.json"))
        assert trace_files
        trace = json.loads(trace_files[0].read_text())
        user = trace["attempts"][0]["modeler_prompt"]["user"]
        assert "## Modeling primitives" in user
        assert "## Worked exemplars\n(none)" in user

    def test_suite_file_unknown_key(self, tmp_path, script_path, capsys):
        suite = script_path("suite.json", {"scenarois": ["road_closure"]})
        script = script_path("golden.json", inj.golden_script())
        code = main(["bench", "--suite", suite, "--llm", f"mock:{script}",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "scenarois" in capsys.readouterr().err

    def test_suite_file_bad_type(self, tmp_path, script_path, capsys):
        suite = script_path("suite.json", {"k_shot": "three"})
        script = script_path("golden.json", inj.golden_script())
        code = main(["bench", "--suite", suite, "--llm", f"mock:{script}",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "k_shot" in capsys.readouterr().err

    def test_suite_file_scalar_scenarios(self, tmp_path, script_path, capsys):
        suite = script_path("suite.json", {"scenarios": "road_closure"})
        script = script_path("golden.json", inj.golden_script())
        code = main(["bench", "--suite", suite, "--llm", f"mock:{script}",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "expected a list" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["levels", "scenarios"])
    def test_suite_file_empty_list_exits_two(self, tmp_path, script_path,
                                             capsys, field):
        suite = script_path("suite.json", {field: []})
        script = script_path("golden.json", inj.golden_script())
        out = tmp_path / "out"
        code = main(["bench", "--suite", suite, "--llm", f"mock:{script}",
                     "--out", str(out)])
        assert code == 2
        assert f"{field} must not be empty" in capsys.readouterr().err
        assert not out.exists()

    def test_suite_file_repeated_level_exits_two(self, tmp_path, script_path,
                                                 capsys):
        suite = script_path("suite.json", {
            "levels": ["engineer", "engineer", "scientist"],
            "instances_per_scenario": 1,
        })
        script = script_path("golden.json", inj.golden_script())
        out = tmp_path / "out"
        code = main(["bench", "--suite", suite, "--llm", f"mock:{script}",
                     "--out", str(out)])
        assert code == 2
        assert "levels repeats an entry" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_suite_file_string_learn_during_run_exits_two(
            self, tmp_path, script_path, capsys):
        suite = script_path("suite.json", {"learn_during_run": "no",
                                           "instances_per_scenario": 1})
        script = script_path("golden.json", inj.golden_script())
        out = tmp_path / "out"
        code = main(["bench", "--suite", suite, "--llm", f"mock:{script}",
                     "--out", str(out)])
        assert code == 2
        assert "learn_during_run" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("key", ("tolerance", "solve_time_limit"))
    def test_suite_file_nan_exits_two(self, tmp_path, capsys, key):
        suite = tmp_path / "suite.json"
        suite.write_text('{"instances_per_scenario": 1, "%s": NaN}' % key)
        script = tmp_path / "golden.json"
        script.write_text(json.dumps(inj.golden_script()))
        code = main(["bench", "--suite", str(suite), "--llm", f"mock:{script}",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out" / "report.json").exists()


class TestOracle:
    def test_unconstrained_objective(self, capsys):
        code = main(["oracle"])
        assert code == 0
        stdout = capsys.readouterr().out
        env = default_env()
        lengths = env.network.lengths()
        expected = 0.0
        for task in env.fleet.tasks:
            cost, _ = helpers.path_heap_dijkstra(lengths, task.origin,
                                                 task.destination)
            expected += float(cost)
        assert f"objective: {expected:g}" in stdout
        assert "AGV-1:" in stdout and "->" in stdout

    def test_scenario_objective_and_out(self, tmp_path, capsys):
        scenario = str(DEFAULT_NETWORK_FILE.parent / "scenario.json")
        out = tmp_path / "oracle.json"
        code = main(["oracle", "--scenario", scenario, "--out", str(out)])
        assert code == 0
        assert "objective: 802" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["objective"] == 802.0
        # no solution path may use the closed road in either direction
        for path in payload["paths"].values():
            hops = set(zip(path, path[1:]))
            assert (6, 7) not in hops and (7, 6) not in hops

    def test_empty_scenario_object_is_unconstrained(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text("{}")
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["oracle", "--out", str(out_a)]) == 0
        assert main(["oracle", "--scenario", str(scenario),
                     "--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()

    def test_infeasible_names_vehicle(self, tmp_path, capsys):
        (tmp_path / "net.json").write_text(json.dumps({
            "nodes": [{"id": 0}, {"id": 1}, {"id": 2}],
            "edges": [{"source": 0, "target": 1, "length": 5}],
        }))
        (tmp_path / "fleet.json").write_text(json.dumps({
            "agvs": [{"id": "AGV-1"}],
            "tasks": [{"id": "T1", "agv": "AGV-1",
                       "origin": 0, "destination": 2}],
        }))
        (tmp_path / "reqs.json").write_text(json.dumps({
            "expertise_level": "engineer",
            "requirements": ["no special requirements"],
        }))
        code = main(["oracle", "--net", str(tmp_path / "net.json"),
                     "--config", str(tmp_path / "fleet.json"),
                     "--reqs", str(tmp_path / "reqs.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "AGV-1" in err and "infeasible" in err

    @pytest.mark.parametrize("length", ("0", "NaN", "Infinity"))
    def test_bad_edge_length_exits_two(self, tmp_path, capsys, length):
        net = tmp_path / "net.json"
        net.write_text('{"nodes": [{"id": 0}, {"id": 1}], "edges": '
                       '[{"source": 0, "target": 1, "length": %s}]}' % length)
        assert main(["oracle", "--net", str(net)]) == 2
        assert "network.edges[0].length" in capsys.readouterr().err

    def test_scenario_unknown_node(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(
            {"kind": "road_closure", "params": {"edge": [6, 99]}}))
        code = main(["oracle", "--scenario", str(scenario)])
        assert code == 2
        assert "99" in capsys.readouterr().err

    def test_scenario_vehicle_not_string(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(
            {"kind": "forbidden_edge_vehicle",
             "params": {"vehicle": ["x"], "edge": [5, 6]}}))
        assert main(["oracle", "--scenario", str(scenario)]) == 2
        assert "scenario vehicle: expected a string id" in \
            capsys.readouterr().err

    def test_scenario_not_object(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text("[1, 2]")
        assert main(["oracle", "--scenario", str(scenario)]) == 2

    @pytest.mark.parametrize("limit", ("-1", "0", "nan"))
    def test_bad_time_limit_exits_two(self, capsys, limit):
        assert main(["oracle", "--time-limit", limit]) == 2
        err = capsys.readouterr().err
        assert "time limit must be > 0" in err and "timeout" not in err


class TestKb:
    def test_list_seed(self, capsys):
        assert main(["kb", "list"]) == 0
        stdout = capsys.readouterr().out
        assert "primitive route-variables [variable_definition]" in stdout
        assert "exemplar classic-dispatch:" in stdout
        assert "total: 5 primitives, 1 exemplars" in stdout

    def test_list_non_object_exemplar_exits_two(self, tmp_path, capsys):
        root = self.make_kb_dir(tmp_path)
        (root / "exemplars" / "bad.json").write_text("[1]")
        assert main(["kb", "list", "--kb", str(root)]) == 2
        assert "bad.json" in capsys.readouterr().err

    def make_kb_dir(self, tmp_path):
        root = tmp_path / "kb"
        (root / "primitives").mkdir(parents=True)
        (root / "exemplars").mkdir()
        return root

    def test_add_persists(self, tmp_path, script_path, capsys):
        root = self.make_kb_dir(tmp_path)
        exemplar = script_path("ex.json", {
            "description": "a valid closure transfer",
            "program": inj.CORRECT_PROGRAMS["road_closure"],
        })
        code = main(["kb", "add", "--kb", str(root), "--exemplar", exemplar])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "added exemplar acc-0001" in stdout
        assert "total: 0 primitives, 1 exemplars" in stdout
        assert (root / "exemplars" / "acc-0001.json").is_file()

        assert main(["kb", "list", "--kb", str(root)]) == 0
        assert "acc-0001" in capsys.readouterr().out

        code = main(["kb", "add", "--kb", str(root), "--exemplar", exemplar])
        assert code == 0
        assert "acc-0002" in capsys.readouterr().out

    def test_add_rejects_bad_program(self, tmp_path, script_path, capsys):
        root = self.make_kb_dir(tmp_path)
        exemplar = script_path("ex.json", {
            "description": "no flow balance",
            "program": inj.UNGROUNDED_PROGRAM,
        })
        code = main(["kb", "add", "--kb", str(root), "--exemplar", exemplar])
        assert code == 2
        assert "flow_balance" in capsys.readouterr().err
        assert not list((root / "exemplars").glob("*.json"))

    def test_add_requires_description(self, tmp_path, script_path, capsys):
        root = self.make_kb_dir(tmp_path)
        exemplar = script_path("ex.json", {
            "program": inj.CORRECT_PROGRAMS["road_closure"]})
        code = main(["kb", "add", "--kb", str(root), "--exemplar", exemplar])
        assert code == 2
        assert "description" in capsys.readouterr().err

    def test_add_rejects_non_string_env_digest(self, tmp_path, script_path,
                                               capsys):
        root = self.make_kb_dir(tmp_path)
        exemplar = script_path("ex.json", {
            "description": "a valid closure transfer",
            "env_digest": 5,
            "program": inj.CORRECT_PROGRAMS["road_closure"],
        })
        code = main(["kb", "add", "--kb", str(root), "--exemplar", exemplar])
        assert code == 2
        assert "env_digest" in capsys.readouterr().err
        assert not list((root / "exemplars").glob("*.json"))
        assert main(["kb", "list", "--kb", str(root)]) == 0

    @pytest.mark.parametrize("ident", [7, "sub/dir-x", "../escape"])
    def test_add_rejects_unsafe_id(self, tmp_path, script_path, capsys,
                                   ident):
        root = self.make_kb_dir(tmp_path)
        exemplar = script_path("ex.json", {
            "id": ident,
            "description": "a valid closure transfer",
            "program": inj.CORRECT_PROGRAMS["road_closure"],
        })
        before = sorted(tmp_path.rglob("*"))
        code = main(["kb", "add", "--kb", str(root), "--exemplar", exemplar])
        assert code == 2
        assert "exemplar id" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        assert main(["kb", "list", "--kb", str(root)]) == 0

    def test_list_missing_kb_dir(self, tmp_path, capsys):
        code = main(["kb", "list", "--kb", str(tmp_path / "nope")])
        assert code == 2


class TestConsoleScript:
    def test_installed_entry_point(self):
        import shutil
        import subprocess
        exe = shutil.which("vdsagent")
        if exe is None:
            pytest.skip("package not installed with scripts")
        proc = subprocess.run([exe, "kb", "list"], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0
        assert "classic-dispatch" in proc.stdout


class TestArgparse:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_run_requires_llm(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2

    def test_bench_kshot_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--llm", "mock:x", "--kshot", "2", "--out", "o"])
        assert exc.value.code == 2
