"""Command-line entry point.

Subcommands:
  run     one natural-language transfer against a terminal environment
  bench   the benchmark suite; writes report JSON/CSV and per-run traces
  oracle  ground-truth solve of a structured scenario
  kb      knowledge-base inspection and growth

Exit codes: 0 on success, 1 when the agent or solver failed on a
well-formed problem (run exhausted, oracle infeasible), 2 on bad
configuration, unreadable input, or validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Any

from . import llm
from .bench import (ABLATIONS, BackendProvider, SuiteConfig, ablate,
                    report_to_csv, run_benchmark, scripted_provider,
                    shared_provider)
from .env import (DEFAULT_ENV_DIR, DEFAULT_NETWORK_FILE, ScenarioSpec,
                  TerminalEnv, parse_environment)
from .errors import ConfigError, VdsAgentError
from .files import atomic_write, read_json, read_text, write_json
from .knowledge import Exemplar, KnowledgeBase, load, load_seed_kb
from .solver import DEFAULT_TIME_LIMIT, SolveError, oracle_solve
from .workflow import WorkflowConfig, run_transfer

DEFAULT_CONFIG_FILE = DEFAULT_ENV_DIR / "config.json"
DEFAULT_REQUIREMENTS_FILE = DEFAULT_ENV_DIR / "requirements.json"


def _read_text(path: str | Path, what: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} file not found: {p}")
    return read_text(p, f"{what} file {p}", ConfigError)


def _read_json(path: str | Path, what: str) -> dict[str, Any]:
    return read_json(_read_text(path, what), f"{what} file {path}",
                     ConfigError)


def _load_env(net: str | None, config: str | None,
              reqs: str | None) -> TerminalEnv:
    return parse_environment(
        _read_text(net or DEFAULT_NETWORK_FILE, "network"),
        _read_text(config or DEFAULT_CONFIG_FILE, "config"),
        _read_text(reqs or DEFAULT_REQUIREMENTS_FILE, "requirements"),
    )


def _load_kb(path: str | None) -> KnowledgeBase:
    return load_seed_kb() if path is None else load(path)


def _mock_script(spec: str) -> dict[str, Any] | None:
    """The script object named by `mock:<file>`; None for `http`."""
    if spec.startswith("mock:"):
        return _read_json(spec[len("mock:"):], "mock script")
    if spec == "http":
        return None
    raise ConfigError(
        f"unknown backend '{spec}' (expected mock:<script.json> or http)")


def _make_backend(spec: str) -> llm.Backend:
    script = _mock_script(spec)
    if script is None:
        return llm.HttpBackend.from_env()
    return llm.MockBackend(script)


def _make_provider(spec: str) -> BackendProvider:
    script = _mock_script(spec)
    if script is None:
        return shared_provider(llm.HttpBackend.from_env())
    return scripted_provider(script)


def cmd_run(args: argparse.Namespace) -> int:
    env = _load_env(args.net, args.config, args.reqs)
    kb = _load_kb(args.kb)
    config = ablate(WorkflowConfig(
        max_iterations=args.max_iter,
        k_shot=args.kshot,
        solve_time_limit=args.time_limit,
        token_budget=args.token_budget,
    ), [name for name in ABLATIONS  # --no-rag, --no-self-correction
        if getattr(args, name.replace("-", "_"), False)])
    backend = _make_backend(args.llm)
    outcome = run_transfer(env, kb, config, backend)
    if args.trace:
        outcome.write_trace(args.trace)
    print(f"status: {outcome.status}")
    print(f"iterations: {outcome.iterations}")
    if outcome.solution is not None:
        print(f"objective: {outcome.solution.objective:g}")
        if args.out:
            write_json(args.out, outcome.solution.to_dict())
            print(f"solution: {args.out}")
    else:
        final = outcome.attempts[-1]
        print(f"failed at stage: {final.stage_reached}")
        if final.error:
            print(f"error: {final.error}")
    return 0 if outcome.status == "solved" else 1


_SUITE_LIST_FIELDS = ("scenarios", "levels")


def _resolve_suite(args: argparse.Namespace) -> SuiteConfig:
    kwargs: dict[str, Any] = {}
    if args.suite != "default":
        data = _read_json(args.suite, "suite")
        allowed = {f.name for f in dataclasses.fields(SuiteConfig)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ConfigError(f"suite file {args.suite}: unknown keys {unknown}")
        kwargs.update(data)
        for key in _SUITE_LIST_FIELDS:
            if key in kwargs:
                if not isinstance(kwargs[key], list):
                    raise ConfigError(f"suite.{key}: expected a list")
                kwargs[key] = tuple(kwargs[key])
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.kshot is not None:
        kwargs["k_shot"] = args.kshot
    if args.ablation is not None:
        kwargs["ablation"] = args.ablation
    suite = SuiteConfig(**kwargs)
    suite.validate()
    return suite


def cmd_bench(args: argparse.Namespace) -> int:
    suite = _resolve_suite(args)
    kb = _load_kb(args.kb)
    provider = _make_provider(args.llm)
    out = Path(args.out)
    report = run_benchmark(suite, kb, provider, trace_dir=out / "traces")
    write_json(out / "report.json", report)
    atomic_write(out / "report.csv", report_to_csv(report))
    overall = report["aggregates"]["overall"]
    print(f"config: {report['config']['label']}")
    print(f"instances: {overall['n_total']}")
    print(f"CER: {overall['cer']:.4f}")
    print(f"SSR: {overall['ssr']:.4f}")
    print(f"report: {out / 'report.json'}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    env = _load_env(args.net, args.config, args.reqs)
    spec = None
    if args.scenario:
        data = _read_json(args.scenario, "scenario")
        if data:
            spec = ScenarioSpec.from_dict(data)
    try:
        solution = oracle_solve(env, spec, args.time_limit)
    except SolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for vehicle, path in solution.paths.items():
        route = " -> ".join(str(n) for n in path) if path else "(idle)"
        print(f"{vehicle}: {route} (cost {solution.costs[vehicle]:g})")
    print(f"objective: {solution.objective:g}")
    if args.out:
        write_json(args.out, solution.to_dict())
    return 0


def cmd_kb(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb)
    if args.kb_command == "list":
        for p in kb.primitives:
            print(f"primitive {p.id} [{p.category}] {p.title}")
        for ex in kb.exemplars:
            first = ex.description.split("\n")[0]
            print(f"exemplar {ex.id}: {first}")
    else:  # add
        data = _read_json(args.exemplar, "exemplar")
        ex = Exemplar(
            id=kb.next_exemplar_id() if data.get("id") is None else data["id"],
            description=data.get("description"),
            env_digest=data.get("env_digest", ""),
            program=data.get("program"),
        )
        kb.append_exemplar(ex)
        print(f"added exemplar {ex.id}")
    print(f"total: {len(kb.primitives)} primitives, "
          f"{len(kb.exemplars)} exemplars")
    return 0


def _add_env_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--net", help="network JSON (default: packaged grid)")
    parser.add_argument("--config",
                        help="fleet config JSON (default: packaged fleet)")
    parser.add_argument("--reqs",
                        help="requirements JSON (default: packaged sample)")


_TIME_LIMIT_HELP = ("solver time limit in seconds, > 0, inf for none "
                    "(default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdsagent",
        description="Natural-language to vehicle-dispatching-model transfer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one transfer")
    _add_env_flags(p_run)
    p_run.add_argument("--kb", help="knowledge base directory "
                                    "(default: packaged seed)")
    p_run.add_argument("--llm", required=True,
                       help="backend: mock:<script.json> or http")
    p_run.add_argument("--kshot", type=int, default=WorkflowConfig.k_shot,
                       help="exemplars to retrieve (default %(default)s)")
    p_run.add_argument("--max-iter", type=int,
                       default=WorkflowConfig.max_iterations,
                       help="self-correction budget (default %(default)s)")
    p_run.add_argument("--no-rag", action="store_true",
                       help="drop retrieved knowledge from prompts")
    p_run.add_argument("--no-self-correction", action="store_true",
                       help="stop after the first failed attempt")
    p_run.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT,
                       help=_TIME_LIMIT_HELP)
    p_run.add_argument("--token-budget", type=int,
                       default=llm.DEFAULT_TOKEN_BUDGET,
                       help="prompt token budget")
    p_run.add_argument("--trace", help="write the attempt trace JSON here")
    p_run.add_argument("--out", help="write the solution JSON here")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="run the benchmark suite")
    p_bench.add_argument("--suite", default="default",
                         help="'default' or a suite JSON file")
    p_bench.add_argument("--seed", type=int, default=None,
                         help="instance generation seed (default 42)")
    p_bench.add_argument("--llm", required=True,
                         help="backend: mock:<script.json> or http")
    p_bench.add_argument("--kshot", type=int, choices=(0, 1, 3), default=None,
                         help="exemplars per prompt")
    p_bench.add_argument("--ablation", choices=ABLATIONS, default=None,
                         help="configuration variant")
    p_bench.add_argument("--kb", help="knowledge base directory "
                                      "(default: packaged seed)")
    p_bench.add_argument("--out", required=True, help="report directory")
    p_bench.set_defaults(func=cmd_bench)

    p_oracle = sub.add_parser("oracle", help="ground-truth solve")
    _add_env_flags(p_oracle)
    p_oracle.add_argument("--scenario",
                          help="scenario spec JSON ({} or omitted: none)")
    p_oracle.add_argument("--time-limit", type=float,
                          default=DEFAULT_TIME_LIMIT, help=_TIME_LIMIT_HELP)
    p_oracle.add_argument("--out", help="write the solution JSON here")
    p_oracle.set_defaults(func=cmd_oracle)

    p_kb = sub.add_parser("kb", help="inspect or grow a knowledge base")
    kb_sub = p_kb.add_subparsers(dest="kb_command", required=True)
    p_list = kb_sub.add_parser("list", help="list primitives and exemplars")
    p_list.add_argument("--kb", help="knowledge base directory "
                                     "(default: packaged seed)")
    p_list.set_defaults(func=cmd_kb)
    p_add = kb_sub.add_parser("add", help="validate and store an exemplar")
    p_add.add_argument("--kb", required=True, help="knowledge base directory")
    p_add.add_argument("--exemplar", required=True, help="exemplar JSON file")
    p_add.set_defaults(func=cmd_kb)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (VdsAgentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
