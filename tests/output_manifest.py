"""The outputs of a fixed matrix of `vdsagent bench` runs, as sha256s.

The matrix runs the golden and ablation scripts at seeds 3, 11 and 42
and the fault-injection script at seed 42, each under every ablation,
through `vdsagent.cli.main`.  A run's manifest entry holds its exit
code and the sha256 of its stdout, report.json, report.csv and every
trace.  Before hashing, the wall-clock fields (`helpers.WALL_CLOCK_FIELDS`,
the CSV `wall_time` column among them) are blanked and the output
directory is written as `<out>`, so the manifest depends on the code
alone.  `tests/expected/outputs.json` holds the recorded manifest; a
change that keeps every output keeps matching it.

After a deliberate change of output, regenerate the record with

    PYTHONPATH=src python tests/output_manifest.py > tests/expected/outputs.json
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

from helpers import WALL_CLOCK_FIELDS, unclocked
from vdsagent import injection as inj
from vdsagent.bench import ABLATIONS
from vdsagent.cli import main

EXPECTED = Path(__file__).parent / "expected" / "outputs.json"

SCRIPTS: tuple[tuple[str, int, Callable[[], dict[str, Any]]], ...] = (
    *((f"golden-{seed}", seed, inj.golden_script) for seed in (3, 11, 42)),
    *((f"ablation-{seed}", seed, lambda seed=seed: inj.ablation_script(seed))
      for seed in (3, 11, 42)),
    ("fault-42", 42, inj.fault_injection_script),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_text(text: str) -> str:
    """A JSON file's text with its wall-clock values blanked, written as
    `files.write_json` writes."""
    return json.dumps(unclocked(json.loads(text)), indent=2) + "\n"


def _csv_text(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    clock = [i for i, name in enumerate(rows[0]) if name in WALL_CLOCK_FIELDS]
    for row in rows[1:]:
        for i in clock:
            row[i] = ""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _run_entry(root: Path, seed: int, script: dict[str, Any],
               ablation: str) -> dict[str, Any]:
    """Exit code and output hashes of one `bench` run under `root`."""
    script_file = root / "script.json"
    script_file.write_text(json.dumps(script), encoding="utf-8")
    out = root / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["bench", "--seed", str(seed), "--ablation", ablation,
                     "--llm", f"mock:{script_file}", "--out", str(out)])
    entry: dict[str, Any] = {
        "exit": code,
        "stdout": _sha(stdout.getvalue().replace(str(out), "<out>"))}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        text = path.read_text(encoding="utf-8").replace(str(out), "<out>")
        blank = _csv_text if path.suffix == ".csv" else _json_text
        entry[path.relative_to(out).as_posix()] = _sha(blank(text))
    return entry


def manifest(workdir: Path) -> dict[str, dict[str, Any]]:
    """The manifest of the whole matrix, run in fresh directories under
    `workdir`, keyed `<script>-<seed>-<ablation>`."""
    runs = {}
    for name, seed, make_script in SCRIPTS:
        script = make_script()
        for ablation in ABLATIONS:
            run = f"{name}-{ablation}"
            root = workdir / run
            root.mkdir()
            runs[run] = _run_entry(root, seed, script, ablation)
    return runs


def first_difference(expected: dict[str, dict[str, Any]],
                     actual: dict[str, dict[str, Any]]) -> str | None:
    """`<run>: <output>` of the first entry the two manifests disagree
    on, in `expected`'s order first; None when they agree."""
    for run in [*expected, *(r for r in actual if r not in expected)]:
        want, got = expected.get(run, {}), actual.get(run, {})
        for name in [*want, *(n for n in got if n not in want)]:
            if want.get(name) != got.get(name):
                return f"{run}: {name}"
    return None


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(manifest(Path(tmp)), sys.stdout, indent=2)
    print()
