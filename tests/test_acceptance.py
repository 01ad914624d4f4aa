"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single PASS line with its
measured evidence, so a full run reads as a checklist.  Oracles are
computed independently (brute force, closed forms) before the package's
own results are admitted.
"""

import json
import math
import os
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from vdsagent import bench, dsl, injection as inj, llm, solver, stats
from vdsagent import workflow as wf
from vdsagent.env import (Agv, FleetConfig, Requirements, ScenarioSpec,
                          Task, TerminalEnv, default_network)
from vdsagent.instances import generate_instances
from vdsagent.knowledge import load_seed_kb


def test_criterion_1_solver_exactness():
    rng = random.Random(20260814)
    deadline = 60.0
    start = time.monotonic()
    compared = 0
    cost_checks = 0
    skipped_degenerate = 0
    while cost_checks < 1000:
        n = rng.randint(2, 8)
        possible = [(u, v) for u in range(n) for v in range(n) if u != v]
        rng.shuffle(possible)
        if rng.random() < 0.5:
            # free routing over a random graph with random closures
            m = rng.randint(1, len(possible))
            edges = {e: rng.randint(1, 20) for e in possible[:m]}
            for e in list(edges):
                if rng.random() < 0.15:
                    del edges[e]
            if not edges:
                continue
            s, t = rng.randrange(n), rng.randrange(n)
            if s == t:
                continue
            brute = helpers.min_simple_path(edges, s, t)
            requirement = None
        else:
            # forced subpath or pinned path on a sparse graph, where
            # enumerating every edge-simple walk is tractable
            m = rng.randint(2, 12)
            edges = {e: rng.randint(1, 20) for e in possible[:m]}
            s, t = rng.randrange(n), rng.randrange(n)
            if s == t:
                continue
            if rng.random() < 0.6:
                k = rng.randint(2, min(3, n))
                nodes = tuple(rng.sample(range(n), k))
                requirement = solver.PathRequirement("subpath", nodes)
                brute = helpers.min_walk(edges, s, t, forced=nodes)
            else:
                mid_max = max(0, min(2, n - 2))
                middle = rng.sample([x for x in range(n) if x not in (s, t)],
                                    rng.randint(0, mid_max))
                nodes = tuple([s] + middle + [t])
                requirement = solver.PathRequirement("exact", nodes)
                cost = helpers.path_cost(edges, nodes)
                brute = None if cost is None else (cost, nodes)
        graph = solver.RoadGraph(helpers.network_from(edges, range(n)))
        problem = solver.VehicleProblem(vehicle="V", od=(s, t), graph=graph,
                                        requirement=requirement)
        try:
            sol = solver.solve(solver.SolverInstance(vehicles=(problem,)))
        except solver.SolveError as exc:
            if exc.kind == "degenerate_edge_reuse":
                skipped_degenerate += 1
                continue
            assert exc.kind == "infeasible"
            assert brute is None, (edges, s, t, requirement)
            compared += 1
            continue
        assert brute is not None, (edges, s, t, requirement)
        assert Fraction(sol.costs["V"]) == brute[0], \
            (edges, s, t, requirement, sol.costs["V"], brute)
        if requirement is None:
            assert tuple(sol.paths["V"]) == tuple(brute[1])
        compared += 1
        cost_checks += 1
    elapsed = time.monotonic() - start
    assert compared >= 1000
    assert elapsed < deadline
    print(f"\nPASS: criterion 1 - solver equals brute force on {compared} "
          f"random instances ({cost_checks} cost checks, "
          f"{skipped_degenerate} degenerate skips) in {elapsed:.1f}s")


def test_criterion_2_oracle_fixtures():
    edges = default_network().lengths()

    # brute force first, then the production oracle
    free = helpers.min_simple_path(edges, 0, 4)
    assert free == (Fraction(40), (0, 1, 2, 3, 4))

    closed = {e: w for e, w in edges.items() if e not in {(6, 7), (7, 6)}}
    detour = helpers.min_simple_path(closed, 6, 7)
    assert detour is not None and detour[0] == Fraction(30)

    containing = [p for p in helpers.simple_paths(edges, 0, 14)
                  if helpers.contains_contiguous(p, (6, 10, 11))]
    best = min((helpers.path_cost(edges, p), tuple(p)) for p in containing)
    assert best[0] == Fraction(74)
    # same value from the segment decomposition of unconstrained optima
    head = helpers.min_simple_path(edges, 0, 6)[0]
    tail = helpers.min_simple_path(edges, 11, 14)[0]
    assert head + edges[(6, 10)] + edges[(10, 11)] + tail == Fraction(74)

    def env_for(od):
        return TerminalEnv(
            network=default_network(),
            fleet=FleetConfig(
                agvs=(Agv(id="AGV-1"),),
                tasks=(Task(id="T3", agv="AGV-1", origin=od[0],
                            destination=od[1]),)),
            requirements=Requirements(level="engineer", texts=("fixture",)),
        )

    assert solver.oracle_solve(env_for((0, 4)), None).objective == 40.0
    closure = ScenarioSpec("road_closure", edge=(6, 7))
    assert solver.oracle_solve(env_for((6, 7)), closure).objective == 30.0
    route = ScenarioSpec("designated_route", task="T3", nodes=(6, 10, 11))
    assert solver.oracle_solve(env_for((0, 14)), route).objective == 74.0
    print("\nPASS: criterion 2 - oracle fixtures 40 / 30 / 74 match "
          "brute force exactly")


def test_criterion_3_dsl_round_trip_and_fuzz():
    rng = random.Random(31415)
    for i in range(10_000):
        ast = helpers.random_ast(rng)
        assert dsl.parse(dsl.render(ast)) == ast, ast

    corpus = [dsl.render(helpers.random_ast(rng)) for _ in range(50)]
    corpus.append(inj.CORRECT_PROGRAMS["road_closure"])
    alphabet = ("model objective constraints flow_balance remove_edge "
                "forbid_edge require_subpath require_exact_path vehicle "
                "task all minimize total_travel_time { } ( ) [ ] , \" # \n "
                "0 1 9 a Z _ \t é 中 \0").split(" ")
    alphabet.append(" ")
    fuzz_count = 100_000
    for i in range(fuzz_count):
        mode = rng.random()
        if mode < 0.45:
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(0, 40)))
        elif mode < 0.8:
            base = rng.choice(corpus)
            cut_a = rng.randint(0, len(base))
            cut_b = rng.randint(0, len(base))
            text = base[:cut_a] + base[cut_b:]
            if rng.random() < 0.5 and text:
                pos = rng.randrange(len(text))
                text = text[:pos] + rng.choice(alphabet) + text[pos:]
        else:
            text = "".join(chr(rng.randint(0, 0x2ff))
                           for _ in range(rng.randint(0, 30)))
        try:
            dsl.parse(text)
        except dsl.DslError:
            pass  # structured rejection is the only acceptable failure
    print(f"\nPASS: criterion 3 - 10000 AST round-trips and {fuzz_count} "
          "fuzz inputs with no parser aborts")


def _results(n_total, n_solved):
    rows = []
    for i in range(n_total):
        solved = i < n_solved
        rows.append(bench.InstanceResult(
            instance_id=f"i{i}", scenario="road_closure", level="engineer",
            executed=True, solved=solved, objective=100.0,
            oracle_objective=100.0, iterations=1, wall_time=0.1,
            failure_category=None if solved else "misinterpretation"))
    return rows


def test_criterion_4_metric_formulas():
    perfect = bench.compute_metrics(_results(45, 45))
    assert perfect.cer == pytest.approx(1.0, abs=1e-9)
    assert perfect.ssr == pytest.approx(1.0, abs=1e-9)
    partial = bench.compute_metrics(_results(45, 42))
    assert partial.cer == pytest.approx(1.0, abs=1e-9)
    assert partial.ssr == pytest.approx(42 / 45, abs=1e-9)
    assert partial.ssr == pytest.approx(0.9333333333333333, abs=1e-9)
    print("\nPASS: criterion 4 - CER/SSR give 100% and 93.33% on the "
          "45-run fixtures (+-1e-9)")


def test_criterion_5_statistics():
    fixture = [[13, 2], [14, 1], [15, 0]]
    exact = stats.exact_test(fixture)
    assert exact.p_value == helpers.fraction_exact_p(fixture)
    assert exact.p_value == pytest.approx(0.7622, abs=5e-5)

    clean = stats.exact_test([[15, 0], [15, 0], [15, 0]])
    assert clean.p_value == 1.0

    anova = stats.anova_test([[1.0, 2.0], [3.0, 4.0]])
    assert anova.f_stat == 8.0
    assert anova.p_value == pytest.approx(0.1056, abs=5e-4)
    # independent closed form for this shape
    assert anova.p_value == pytest.approx(1 - math.sqrt(0.8), rel=1e-12)
    print(f"\nPASS: criterion 5 - exact test (p {exact.p_value:.4f}, equal "
          "to the Fraction enumeration) and ANOVA (F 8.0, p 0.1056) "
          "within +-5e-4")


def _normalized(report):
    doc = json.loads(json.dumps(report))
    doc.pop("generated_at")
    for row in doc["instances"]:
        row.pop("wall_time")
    for agg in [doc["aggregates"]["overall"],
                *doc["aggregates"]["by_scenario"].values(),
                *doc["aggregates"]["by_level"].values()]:
        agg.pop("mean_wall_time")
    doc["stats"].pop("time_anova", None)
    return json.dumps(doc, sort_keys=True)


def test_criterion_6_pipeline_reproduction():
    start = time.monotonic()
    suite = bench.SuiteConfig()

    golden = bench.run_benchmark(
        suite, load_seed_kb(), bench.scripted_provider(inj.golden_script()))
    overall = golden["aggregates"]["overall"]
    assert overall["n_total"] == 45
    assert overall["cer"] == 1.0 and overall["ssr"] == 1.0
    assert all(row["iterations"] == 1 for row in golden["instances"])

    fault_script = inj.fault_injection_script()
    fault = bench.run_benchmark(
        suite, load_seed_kb(), bench.scripted_provider(fault_script))
    overall = fault["aggregates"]["overall"]
    assert overall["cer"] == 1.0
    assert overall["ssr"] == pytest.approx(42 / 45, abs=1e-12)
    assert fault["failure_categories"] == {"misinterpretation": 3}
    missed = [row for row in fault["instances"]
              if row["failure_category"] == "misinterpretation"]
    by_kind = {}
    for row in missed:
        by_kind[row["scenario"]] = by_kind.get(row["scenario"], 0) + 1
    assert by_kind == {"road_closure": 2, "designated_route": 1}
    exact = fault["stats"]["ssr_exact"]
    assert exact["p_value"] == pytest.approx(0.7622, abs=5e-5)
    assert exact["p_value"] == helpers.fraction_exact_p([[13, 2], [14, 1],
                                                         [15, 0]])
    assert not exact["significant"]

    # determinism: a second pass is byte-identical modulo clock fields
    golden_again = bench.run_benchmark(
        suite, load_seed_kb(), bench.scripted_provider(inj.golden_script()))
    fault_again = bench.run_benchmark(
        suite, load_seed_kb(), bench.scripted_provider(fault_script))
    assert _normalized(golden) == _normalized(golden_again)
    assert _normalized(fault) == _normalized(fault_again)

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nPASS: criterion 6 - golden 100/100, fault 100/93.33 with "
          f"{{misinterpretation: 3}} (2 closure + 1 route), ssr exact p "
          f"{exact['p_value']:.4f}, byte-stable reports, {elapsed:.1f}s")


def test_criterion_7_self_correction():
    env, _ = generate_instances(42, "road_closure", 1)[0]
    script = inj.recovery_script()

    config = wf.WorkflowConfig(accumulate_on_success=False)
    outcome = wf.run_transfer(env, load_seed_kb(), config,
                              llm.MockBackend(script))
    assert outcome.status == "solved"
    assert outcome.iterations == 2
    correction = outcome.attempts[0].reflection.correction
    assert correction == llm.parse_reflection(
        inj.RECOVERY_REFLECTION).correction
    assert correction in outcome.attempts[1].modeler_prompt.user
    assert correction in outcome.attempts[1].coder_prompt.user

    frozen = wf.WorkflowConfig(accumulate_on_success=False, max_iterations=1)
    outcome = wf.run_transfer(env, load_seed_kb(), frozen,
                              llm.MockBackend(script))
    assert outcome.status == "exhausted"
    assert not wf.is_executed(outcome)
    assert outcome.iterations == 1

    @settings(max_examples=15, deadline=None)
    @given(max_iter=st.integers(min_value=1, max_value=4),
           failures=st.integers(min_value=4, max_value=8))
    def bound_holds(max_iter, failures):
        cfg = wf.WorkflowConfig(max_iterations=max_iter,
                                accumulate_on_success=False)
        backend = llm.MockBackend(helpers.stubborn_script(attempts=failures))
        result = wf.run_transfer(env, load_seed_kb(), cfg, backend)
        assert result.iterations <= cfg.max_iterations
        assert result.status == "exhausted"

    bound_holds()
    print("\nPASS: criterion 7 - recovery solves in 2 iterations with the "
          "reflection forwarded verbatim; frozen variant never executes; "
          "iteration bound property-checked")


def test_criterion_8_ablation_direction():
    script = inj.ablation_script()
    ssr = {}
    for ablation in bench.ABLATIONS:
        suite = bench.SuiteConfig(ablation=ablation)
        report = bench.run_benchmark(suite, load_seed_kb(),
                                     bench.scripted_provider(script))
        ssr[ablation] = report["aggregates"]["overall"]["ssr"]
    assert ssr["none"] == 1.0
    # without retrieval only the three reflection-rescued instances solve;
    # without self-correction exactly those three are lost instead
    assert ssr["no-rag"] == pytest.approx(3 / 45, abs=1e-12)
    assert ssr["no-self-correction"] == pytest.approx(42 / 45, abs=1e-12)
    assert ssr["no-rag"] <= ssr["none"]
    assert ssr["no-self-correction"] <= ssr["none"]
    assert ssr["no-rag"] < ssr["none"]
    assert ssr["no-self-correction"] < ssr["none"]
    print(f"\nPASS: criterion 8 - SSR full {ssr['none']:.4f} > "
          f"no-rag {ssr['no-rag']:.4f} and "
          f"no-self-correction {ssr['no-self-correction']:.4f}")


LIVE_READY = bool(os.environ.get(llm.ENV_URL)) and \
    bool(os.environ.get(llm.ENV_MODEL))


@pytest.mark.skipif(not LIVE_READY,
                    reason="live backend env vars not configured")
def test_criterion_9_live_smoke():
    backend = llm.HttpBackend.from_env()
    env, spec = generate_instances(42, "road_closure", 1)[0]
    config = wf.WorkflowConfig(accumulate_on_success=False)
    outcome = wf.run_transfer(env, load_seed_kb(), config, backend)
    trace = outcome.to_dict()
    json.dumps(trace)  # well-formed trace document
    assert outcome.iterations >= 1
    correct = None
    if outcome.solution is not None:
        oracle = solver.oracle_solve(env, spec).objective
        correct = abs(outcome.solution.objective - oracle) <= 1e-4
    # correctness is reported, never asserted
    print(f"\nPASS: criterion 9 - live run finished: status="
          f"{outcome.status}, iterations={outcome.iterations}, "
          f"objective_matches_oracle={correct}")


_FUZZ_WORDS = (
    "model", "objective", "minimize", "total_travel_time", "constraints",
    "flow_balance", "all", "remove_edge", "forbid_edge", "require_subpath",
    "require_exact_path", "vehicle", "task", '"AGV-4"', '"T3"', '"T9"',
    "{", "}", "(", ")", "[", "]", ",", '"', "#", "```", "```vds-dsl",
    "0", "6", "7,", "(10,", "99)", "-1", "é", "\0",
)
_FUZZ_LINES = (
    "  flow_balance all", "  remove_edge (6, 10)", "  remove_edge (99, 7)",
    '  require_exact_path task "T3" [6, 10, 11]',
    '  require_subpath task "T9" [6, 10]',
    '  forbid_edge vehicle "AGV-1" (0, 1)',
)


def _mutate(rng, text):
    """Insert, delete or replace a line, a word or a character at random."""
    sep, pieces = rng.choice((
        ("\n", _FUZZ_LINES), (" ", _FUZZ_WORDS),
        ("", (*_FUZZ_WORDS, chr(rng.randint(1, 0x2ff))))))
    parts = text.split(sep) if sep else list(text)
    at = rng.randrange(len(parts))
    op = rng.randrange(3)
    if op == 0:
        parts.insert(at, rng.choice(pieces))
    elif op == 1:
        del parts[at]
    else:
        parts[at] = rng.choice(pieces)
    return sep.join(parts)


def test_criterion_10_pipeline_fuzz():
    rng = random.Random(1618)
    envs = {kind: generate_instances(42, kind, 1)[0][0]
            for kind in inj.CORRECT_PROGRAMS}
    oversized = ("model m\nobjective minimize total_travel_time\n"
                 "constraints {\n  flow_balance all\n"
                 "  remove_edge (" + "9" * 5000 + ", 7)\n}")
    config = wf.WorkflowConfig()
    failure_stages = ("extract", "parse", "static", "bind", "solve")
    seen = {}
    runs = 2500
    start = time.monotonic()
    for i in range(runs):
        kind = rng.choice(sorted(envs))
        text = inj.fenced(oversized if i % 50 == 0
                          else inj.CORRECT_PROGRAMS[kind])
        for _ in range(rng.choice((1, 1, 2, 3))):
            text = _mutate(rng, text)
        record = wf.AttemptRecord(index=1, stage_reached="extract")
        solution = wf._attempt_pipeline(text, envs[kind], config, record)
        if record.stage_reached == "solved":
            assert isinstance(solution, solver.Solution), text
        else:
            assert solution is None, text
            assert record.stage_reached in failure_stages, text
            assert record.error, text
        seen[record.stage_reached] = seen.get(record.stage_reached, 0) + 1
    elapsed = time.monotonic() - start
    assert set(seen) == {*failure_stages, "solved"}, seen
    print(f"\nPASS: criterion 10 - {runs} mutated completions through the "
          f"attempt pipeline, none raised; stages {dict(sorted(seen.items()))}"
          f" in {elapsed:.1f}s")
