"""
Benchmarking transfers and ablating the pipeline
================================================

A suite runs many sampled instances (three scenario kinds, three
writing styles for the requirement text) through the workflow and
scores each outcome against the exact oracle. Two rates summarize a
run: CER, the share of transfers that produced any executable model,
and SSR, the share whose objective matches the oracle within
tolerance.

Scripted backends make suites reproducible, and deliberately faulty
scripts exercise the failure taxonomy and the statistics block.
"""

from vdsagent import injection
from vdsagent.bench import SuiteConfig, run_benchmark, scripted_provider
from vdsagent.knowledge import load_seed_kb


def run(script, **overrides):
    suite = SuiteConfig(**overrides)
    return run_benchmark(suite, load_seed_kb(), scripted_provider(script))


def show(tag, report):
    overall = report["aggregates"]["overall"]
    print(f"{tag:28s} CER {overall['cer']:.4f}   SSR {overall['ssr']:.4f}   "
          f"({overall['n_solved']}/{overall['n_total']} solved)")


# A clean run: every instance answered correctly on the first attempt.
golden = run(injection.golden_script())
show("golden", golden)

# A faulty run: three instances get plausible but wrong models (for
# example closing only one direction of a two-way road). They execute,
# so CER stays perfect, but they miss the optimum.
faulty = run(injection.fault_injection_script())
show("fault injection", faulty)
print("failure categories:", faulty["failure_categories"])

# Failed instances split by requirement writing style; an exact test
# over every table with the same margins asks whether style and failure
# are associated.
exact = faulty["stats"]["ssr_exact"]
print(f"ssr by level exact test: p {exact['p_value']:.4f}")

# Ablations switch off one mechanism at a time. This script is built
# so most instances need retrieved knowledge in the prompt, while a
# few instead need the debugger's second attempt. The same exact test
# runs on the levels x iteration-count table; with one attempt allowed
# that table has a single column, so the entry is omitted.
script = injection.ablation_script()
for ablation in ("none", "no-rag", "no-self-correction"):
    report = run(script, ablation=ablation)
    show(f"ablation {ablation}", report)
    iterations = report["stats"].get("iterations_exact")
    p = "n/a" if iterations is None else f"{iterations['p_value']:.4f}"
    print(f"{'':28s} iterations by level exact test: p {p}")
