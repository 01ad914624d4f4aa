"""Set up, measure and check one workload; build its metrics.

With trace off a run reports the end-to-end metrics.  With trace on it
measures half its time untraced and half with every layer entry point
wrapped in a span, reports per-layer metrics and the tracing overhead,
and asserts the exact per-repetition call counts recorded in
expected_counts.json, so a caller that changes how it imports a
function fails loudly instead of silently zeroing a layer.

End-to-end times are in reference seconds (see harness.SpeedGauge):
wall time scaled by how fast a fixed plain-Python loop ran at that
moment, because other tenants of a shared machine slow it by up to 2x
for seconds to minutes at a time.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from harness import (InsufficientSamples, SpeedGauge, Tracer, min_samples,
                     patched, peak_rss_mb, percentile, tail_percentile,
                     traced)
from workloads import (ROLES, SEEDED, SPANS, WORKLOADS, OpLog, Verdict,
                       instrument)

HERE = Path(__file__).resolve().parent
SCRATCH = HERE.parent / ".perfbench_tmp"  # inside the checkout, removed after
EXPECTED_COUNTS = HERE / "expected_counts.json"
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
TAIL = 90  # op_ms_p90
HARD_CAP_S = 150.0  # a run never measures longer than this
# The reference loop's best-of-three time on the 2-vCPU VM the baseline
# was taken on, at its faster speed; times read as wall time there.
NOMINAL_LOOP_S = 0.00125


class CoverageMismatch(RuntimeError):
    """A traced repetition made other call counts than recorded."""


@dataclass
class Phase:
    """What one measuring loop saw."""

    log: OpLog
    verdict: Verdict = field(default_factory=Verdict)
    tally: Counter[str] = field(default_factory=Counter)
    # (timed wall seconds, start, end) per repetition
    reps: list[tuple[float, float, float]] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.log.latencies)

    def rate(self, gauge: SpeedGauge) -> float:
        """Ops per timed reference second."""
        return self.ops / sum(seconds * gauge.scale(start, end)
                              for seconds, start, end in self.reps)


def measure(workload: Any, state: Any, seconds: float, min_ops: int,
            gauge: SpeedGauge, tracer: Tracer | None = None,
            expected: dict[str, int] | None = None) -> Phase:
    """Repeat the workload until `seconds` and `min_ops` are both reached.

    The gauge samples between repetitions and, unless tracing (its
    samples would land inside spans), just before ops; its own time is
    taken out of each repetition's timed seconds.  A repetition in which
    an op raised counts all its ops as failed and none as measured.

    With `expected`, each traced repetition must make exactly those
    call counts, and the SEEDED spans not in it the same non-zero counts
    as the first repetition.
    """
    phase = Phase(OpLog(gauge if tracer is None else None))
    transfer = workload.transfer_owner.run_transfer
    if tracer is not None:
        transfer = traced(tracer, "workflow.run_transfer", transfer)
    sites = [(workload.transfer_owner, "run_transfer",
              phase.log.timed(transfer))]
    if tracer is not None:
        sites += instrument(tracer)
    seeded = [name for name in SEEDED if name not in (expected or {})]
    first: dict[str, int] = {}  # seeded counts of the first repetition
    start = time.perf_counter()
    with patched(sites):
        while True:
            before = tracer.calls() if tracer is not None else Counter()
            mark = phase.log.mark()
            gauge.tick()
            spent = gauge.spent
            rep_start = time.perf_counter()
            try:
                verdict, timed = workload.repetition(state, phase.log,
                                                     phase.tally)
                raised = False
            except Exception:  # an op raised: count it and keep measuring
                traceback.print_exc(file=sys.stderr)
                verdict = Verdict(attempted=workload.ops, failed=workload.ops)
                timed, raised = 0.0, True
                phase.log.rollback(mark)
            timed = max(timed - (gauge.spent - spent), 0.0)
            phase.verdict.add(verdict)
            phase.reps.append((timed, rep_start, time.perf_counter()))
            if expected is not None and not raised:
                made = tracer.calls() - before
                if not first:
                    first.update({name: made[name] for name in seeded})
                wrong = {name: (made[name], n)
                         for name, n in {**expected, **first}.items()
                         if made[name] != n}
                wrong.update({name: (0, "> 0") for name in seeded
                              if not made[name]})
                if wrong:
                    raise CoverageMismatch(
                        f"per repetition (made, expected): {wrong}")
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and phase.ops >= min_ops:
                return phase
            if elapsed > HARD_CAP_S:
                raise InsufficientSamples(
                    f"{phase.ops} ops in {elapsed:.0f}s; need {min_ops}")


def setup(workload: Any, seed: int, scratch: Path,
          gauge: SpeedGauge) -> tuple[Any, list[float]]:
    """Prepare and warm up SETUP_REPEATS times.

    Returns the last state and each set-up's time in reference seconds.
    Each set-up starts after the previous state is freed, so only one is
    ever alive and `peak_rss_mb` sees no more than the workload holds.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        gauge.tick()
        spent = gauge.spent
        start = time.perf_counter()
        state = workload.prepare(seed, scratch)
        log = OpLog(gauge)
        with patched([(workload.transfer_owner, "run_transfer",
                       log.timed(workload.transfer_owner.run_transfer))]):
            workload.warmup(state, log)
        end = time.perf_counter()
        wall = end - start - (gauge.spent - spent)
        times.append(wall * gauge.scale(start, end))
    return state, times


def end_to_end(phase: Phase, gauge: SpeedGauge,
               setup_s: float) -> dict[str, tuple[float, str]]:
    ops = phase.ops
    log = phase.log
    latencies = [seconds * gauge.scale(at) * 1000.0
                 for at, seconds in zip(log.starts, log.latencies)]
    prompt_chars = sum(phase.tally[f"llm.prompt_chars.{r}"] for r in ROLES)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.rate(gauge), "1/s"),
        "op_ms_p50": (percentile(latencies, 50), "ms"),
        "op_ms_p90": (tail_percentile(latencies, TAIL), "ms"),
        "ssr": (phase.verdict.solved / phase.verdict.attempted, "share"),
        "llm_calls_per_op": (phase.tally["llm.backend.calls"] / ops,
                             "calls/op"),
        "prompt_kchars_per_op": (prompt_chars / 1000.0 / ops, "kchars/op"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(plain: Phase, traced_phase: Phase, tracer: Tracer,
              gauge: SpeedGauge) -> dict[str, tuple[float, str]]:
    """Per-op span, counter and tally figures of a traced phase.

    Span times are scaled by the phase's mean gauge factor, since spans
    close before the gauge samples that bracket them exist.
    """
    ops = traced_phase.ops
    log = traced_phase.log
    wall = sum(seconds for seconds, _, _ in traced_phase.reps)
    reference = ops / traced_phase.rate(gauge)
    ms = 1000.0 * reference / wall / ops  # per op, per wall second in spans
    metrics: dict[str, tuple[float, str]] = {}
    for span in SPANS:
        calls, total, own = tracer.spans.get(span, (0, 0.0, 0.0))
        metrics[f"{span}.calls"] = (calls / ops, "calls/op")
        metrics[f"{span}.ms"] = (total * ms, "ms/op")
        metrics[f"{span}.self_ms"] = (own * ms, "ms/op")
    retrieves = tracer.spans.get("knowledge.retrieve", (0,))[0]
    metrics["knowledge.retrieve.mean_exemplars"] = (
        tracer.counters["knowledge.retrieve.exemplars"] / max(retrieves, 1),
        "count")
    for name in ("dsl.parse.errors", "dsl.static_check.failures"):
        metrics[name] = (tracer.counters[name] / ops, "calls/op")
    metrics["llm.backend.calls"] = (
        traced_phase.tally["llm.backend.calls"] / ops, "calls/op")
    for kind in ("prompt_chars", "completion_chars"):
        for role in ROLES:
            name = f"llm.{kind}.{role}"
            metrics[name] = (traced_phase.tally[name] / ops, "chars/op")
    metrics["workflow.attempts_per_op"] = (log.attempts / ops, "attempts/op")
    metrics["workflow.solved_per_attempt"] = (
        log.solved / max(log.attempts, 1), "share")
    metrics["trace.overhead_share"] = (
        1.0 - traced_phase.rate(gauge) / plain.rate(gauge), "share")
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool,
        import_s: float = 0.0) -> tuple[dict[str, Any], list[str]]:
    """Set up, measure and check one workload.

    Returns the result object and human-readable report lines.
    """
    workload = WORKLOADS[name]
    gauge = SpeedGauge(NOMINAL_LOOP_S)
    gauge.tick()  # right after the imports, to scale their time
    import_s *= gauge.scale(gauge.times[0])
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    try:
        state, setup_times = setup(workload, seed, scratch, gauge)
        if trace:
            expected = json.loads(EXPECTED_COUNTS.read_text())[name]
            plain = measure(workload, state, seconds / 2, 1, gauge)
            tracer = Tracer()
            traced_phase = measure(workload, state, seconds / 2, 1, gauge,
                                   tracer, expected)
            metrics = per_layer(plain, traced_phase, tracer, gauge)
            phases = [plain, traced_phase]
            sampled = f"{plain.ops} ops untraced, {traced_phase.ops} traced"
        else:
            phase = measure(workload, state, seconds, min_samples(TAIL),
                            gauge)
            metrics = end_to_end(phase, gauge,
                                 import_s + statistics.median(setup_times))
            phases = [phase]
            slowest = max(gauge.loop_s) / min(gauge.loop_s)
            sampled = (f"{phase.ops} ops; reference loop sampled "
                       f"{len(gauge.loop_s)} times, slowest/fastest "
                       f"{slowest:.2f}; imports {import_s:.4f} s, set-ups "
                       + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it
            pass
    attempted = sum(p.verdict.attempted for p in phases)
    failed = sum(p.verdict.failed for p in phases)
    report = [f"workload {name} seed {seed} trace {int(trace)}: {sampled}"]
    report += [f"  {key:<40} {value:14.6f} {unit}"
               for key, (value, unit) in metrics.items()]
    report.append(f"  {'failed_share':<40} {failed / attempted:14.6f} share "
                  f"({failed} of {attempted} ops)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    return result, report


def main(import_s: float) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result, report = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), import_s)
    except CoverageMismatch as exc:
        print(f"perfbench: wrapper coverage changed, {exc}", file=sys.stderr)
        return 3
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
