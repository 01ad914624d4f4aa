"""Tests for the benchmark's own code.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import types
from pathlib import Path

import pytest

import driver
import workloads
from harness import (GAUGE_EVERY, GAUGE_WINDOW, InsufficientSamples,
                     SpeedGauge, Tracer, min_samples, patched, percentile,
                     samples_beyond, tail_percentile, traced)
from vdsagent import solver, workflow

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


# -- percentiles ----------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]  # order must not matter
    assert percentile(values, 50) == 5.0
    assert percentile(values, 90) == 9.0
    assert percentile(values, 100) == 10.0
    assert percentile([7.0], 90) == 7.0


def test_percentile_rank_is_exact_for_round_counts():
    # 0.9 * 100 rounds up to 91 in floating point; the rank must be 90
    assert percentile([float(v) for v in range(1, 101)], 90) == 90.0


def test_p90_needs_ten_samples_above_it():
    assert min_samples(90) == 100
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert tail_percentile([float(v) for v in range(100)], 90) == 89.0
    with pytest.raises(InsufficientSamples):
        tail_percentile([float(v) for v in range(99)], 90)


def test_percentile_rejects_empty_and_bad_rank():
    with pytest.raises(InsufficientSamples):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


# -- spans ------------------------------------------------------------------------

class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 7]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
    tracer.begin()          # outer at 0
    tracer.begin()          # a at 1
    tracer.begin()          # g at 2
    tracer.end("g")         # 3
    tracer.end("a")         # 4
    tracer.begin()          # b at 5
    tracer.end("b")         # 7
    tracer.end("outer")     # 10
    assert tracer.spans["outer"] == [1, 10, 5]
    assert tracer.spans["a"] == [1, 3, 2]
    assert tracer.spans["g"] == [1, 1, 1]
    assert tracer.spans["b"] == [1, 2, 2]


def test_traced_closes_span_and_counts_errors():
    tracer = Tracer()

    def fail(x):
        raise ValueError(x)

    wrapped = traced(tracer, "layer", fail, label=lambda x: x)
    with pytest.raises(ValueError):
        wrapped("coder")
    assert tracer.spans["layer.coder"][0] == 1
    assert tracer.calls()["layer.coder.errors"] == 1
    assert not tracer._open


def test_patched_restores_on_error():
    class Owner:
        f = staticmethod(lambda: "original")

    with pytest.raises(RuntimeError):
        with patched([(Owner, "f", lambda: "patched")]):
            assert Owner.f() == "patched"
            raise RuntimeError
    assert Owner.f() == "original"


class FakeMachine:
    """A clock that only the reference loop moves."""

    def __init__(self):
        self.now = 0.0
        self.loop_s = 0.001

    def clock(self):
        return self.now

    def loop(self):
        self.now += self.loop_s


def test_speed_gauge_scales_by_nearby_loop_times():
    machine = FakeMachine()
    gauge = SpeedGauge(nominal=0.001, clock=machine.clock, loop=machine.loop)
    gauge.tick()                      # at 0: the loop takes 1 ms
    machine.now, machine.loop_s = 10.0, 0.002
    gauge.tick()                      # at 10: twice as slow
    gauge.tick()                      # within GAUGE_EVERY: skipped
    assert gauge.times == [0.0, 10.0]
    assert gauge.loop_s == pytest.approx([0.001, 0.002])
    assert gauge.spent == pytest.approx(0.009)
    assert gauge.scale(GAUGE_WINDOW) == pytest.approx(1.0)
    # 2 ms of wall time count as 1
    assert gauge.scale(10 + GAUGE_WINDOW) == pytest.approx(0.5)
    # nothing within GAUGE_WINDOW: the samples on either side of t
    assert gauge.scale(5.0) == pytest.approx(0.001 / 0.0015)
    # a span holding both samples: the mean of their factors
    assert gauge.scale(0.0, 10.0) == pytest.approx(0.75)
    # a span holding one sample: the factor at its midpoint
    assert gauge.scale(9.8, 10.2) == pytest.approx(0.5)


# -- correctness gates ------------------------------------------------------------

def outcome(stages, objective=None):
    attempts = [workflow.AttemptRecord(index=i + 1, stage_reached=s)
                for i, s in enumerate(stages)]
    result = workflow.TransferOutcome(
        status="solved" if stages[-1] == "solved" else "exhausted",
        attempts=attempts)
    if objective is not None:
        result.solution = solver.Solution({}, {}, objective)
    return result


def golden_rows(n, objective=100.0):
    return [{"instance_id": f"road_closure-{i:02d}-engineer", "solved": True,
             "objective": objective, "oracle_objective": objective}
            for i in range(n)]


def first_try(_iid):
    return workloads.FIRST_TRY


def test_suite_gate_passes_golden_outcomes():
    rows = golden_rows(3)
    verdict = workloads.check_suite(
        rows, [outcome(["solved"], 100.0)] * 3, first_try, 3)
    assert verdict == workloads.Verdict(attempted=3, failed=0, solved=3)


def test_suite_gate_counts_a_wrong_objective_as_failed():
    rows = golden_rows(3)
    # the report judged it solved within tolerance, but it is not exact
    rows[1] = dict(rows[1], objective=100.00005)
    verdict = workloads.check_suite(
        rows, [outcome(["solved"], 100.0)] * 3, first_try, 3)
    assert verdict == workloads.Verdict(attempted=3, failed=1, solved=2)


def test_suite_gate_counts_extra_attempts_and_missing_ops():
    rows = golden_rows(2)
    late = outcome(["parse", "solved"], 100.0)
    verdict = workloads.check_suite(
        rows, [outcome(["solved"], 100.0), late], first_try, 2)
    assert (verdict.failed, verdict.solved) == (1, 2)
    short = workloads.check_suite(rows, [late], first_try, 2)
    assert short == workloads.Verdict(attempted=2, failed=2, solved=0)


def test_repair_expectation_flags_an_unexpected_success():
    rows = [{"instance_id": "road_closure-01-engineer", "solved": True,
             "objective": 5.0, "oracle_objective": 5.0}]
    verdict = workloads.check_suite(
        rows, [outcome(["solved"], 5.0)], lambda _: workloads.STUCK, 1)
    assert verdict.failed == 1
    stuck_row = [dict(rows[0], solved=False, objective=None)]
    verdict = workloads.check_suite(
        stuck_row, [outcome(["static"] * 3)], lambda _: workloads.STUCK, 1)
    assert verdict == workloads.Verdict(attempted=1, failed=0, solved=0)


@pytest.fixture(scope="module")
def yard_run():
    case = workloads.yard_case(seed=3, index=0)
    kb = workloads.knowledge.load_seed_kb()
    config = workflow.WorkflowConfig(accumulate_on_success=False)
    result = workflow.run_transfer(case.env, kb, config,
                                   workloads.llm.MockBackend(case.script))
    return case, result


def test_yard_gate_accepts_the_solver_and_rejects_tampering(yard_run):
    case, result = yard_run
    assert workloads.check_yard(result, case).failed == 0
    wrong = dataclasses.replace(
        result, solution=dataclasses.replace(
            result.solution, objective=result.solution.objective + 10))
    assert workloads.check_yard(wrong, case).failed == 1
    # the banned vehicle's route if the ban were ignored
    agv, links = next(iter(case.banned.items()))
    task = next(t for t in case.env.fleet.tasks if t.agv == agv)
    cost, path = workloads.dijkstra(case.env.network.lengths(), case.closed,
                                    task.origin, task.destination)
    assert (path[0], path[1]) in links
    solution = dataclasses.replace(
        result.solution,
        paths=dict(result.solution.paths, **{agv: tuple(path)}),
        costs=dict(result.solution.costs, **{agv: cost}))
    cheater = dataclasses.replace(result, solution=solution)
    assert workloads.check_yard(cheater, case).failed == 1


def test_reference_dijkstra_honours_removed_links():
    lengths = workloads.grid_network(3).lengths()
    assert workloads.dijkstra(lengths, frozenset(), 0, 2) == (20, [0, 1, 2])
    cost, path = workloads.dijkstra(lengths, frozenset({(0, 1)}), 0, 2)
    assert cost == 40 and (0, 1) not in set(zip(path, path[1:]))


# -- smoke runs ---------------------------------------------------------------------

def names_and_units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.fixture()
def small_kb_growth(monkeypatch):
    monkeypatch.setitem(
        driver.WORKLOADS, "kb-growth",
        workloads.SuiteWorkload(learn=True, base_size=18,
                                warmup_per_scenario=1))


@pytest.mark.parametrize("name", ["suite-golden", "suite-repair",
                                  "kb-growth"])
def test_smoke_end_to_end(name, small_kb_growth):
    result, report = driver.run(name, seed=5, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        names_and_units("end_to_end")
    expected_ssr = 3 / 45 if name == "suite-repair" else 1.0
    assert metrics["ssr"]["value"] == pytest.approx(expected_ssr)
    assert all(v["value"] > 0 for v in metrics.values())
    assert any("failed_share" in line for line in report)


@pytest.mark.parametrize("name", sorted(driver.WORKLOADS))
def test_smoke_traced(name, small_kb_growth):
    result, _ = driver.run(name, seed=5, seconds=0, trace=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        names_and_units("per_layer")
    assert metrics["workflow.run_transfer.calls"]["value"] == 1.0
    retrieves = metrics["knowledge.retrieve.calls"]["value"]
    assert (retrieves == 0) == (name == "suite-repair")


def test_traced_run_fails_loudly_when_a_layer_goes_unseen(monkeypatch,
                                                          tmp_path):
    counts = json.loads(driver.EXPECTED_COUNTS.read_text())
    counts["suite-golden"]["solver.bind"] += 1
    (tmp_path / "counts.json").write_text(json.dumps(counts))
    monkeypatch.setattr(driver, "EXPECTED_COUNTS", tmp_path / "counts.json")
    with pytest.raises(driver.CoverageMismatch, match="solver.bind"):
        driver.run("suite-golden", seed=5, seconds=0, trace=True)


def test_traced_run_fails_when_a_seeded_layer_goes_unseen(monkeypatch):
    sites = tuple(site for site in workloads._SITES
                  if site[2] != "instances.solve")
    monkeypatch.setattr(workloads, "_SITES", sites)
    with pytest.raises(driver.CoverageMismatch, match="instances.solve"):
        driver.run("suite-golden", seed=5, seconds=0, trace=True)


class FlakyWorkload:
    """Three ops per repetition; the second repetition raises mid-way."""

    ops = 3

    def __init__(self):
        self.transfer_owner = types.SimpleNamespace(run_transfer=lambda: (
            workflow.TransferOutcome(status="solved", attempts=[
                workflow.AttemptRecord(index=1, stage_reached="solved")])))
        self.reps = 0

    def repetition(self, state, log, tally):
        self.reps += 1
        for i in range(self.ops):
            if self.reps == 2 and i == 2:
                raise RuntimeError("op failed")
            self.transfer_owner.run_transfer()
        return workloads.Verdict(attempted=3, solved=3), 1.0


def test_a_raising_op_fails_its_whole_repetition():
    gauge = SpeedGauge(driver.NOMINAL_LOOP_S)
    phase = driver.measure(FlakyWorkload(), None, seconds=0, min_ops=6,
                           gauge=gauge)
    assert phase.verdict == workloads.Verdict(attempted=9, failed=3, solved=6)
    assert phase.ops == 6  # the raising repetition's ops are not measured
    assert (phase.log.attempts, phase.log.solved) == (6, 6)
    assert len(phase.reps) == 3 and phase.reps[1][0] == 0.0


def test_benchmark_file_matches_the_contract_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(driver.WORKLOADS)
    assert set(json.loads(driver.EXPECTED_COUNTS.read_text())) == \
        set(driver.WORKLOADS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
