"""Atomic file writes, text reads and the JSON document format: every
input file the package reads is decoded by `read_text`, every JSON
document it reads is parsed by `read_json`, every one it writes is
written by `write_json`."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any


def atomic_write(path: str | Path, text: str) -> None:
    """Write UTF-8 text via `<name>.tmp` and a rename, creating parents.

    Readers see either the old file or the complete new one, never a
    partial write.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(target)


def read_text(path: Path, what: str, error: type[Exception]) -> str:
    """The UTF-8 text of `path`; raise `error` with a message starting
    `<what>: ` when it does not decode."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what}: not UTF-8 ({exc})") from exc


def read_json(text: str, what: str,
              error: type[Exception]) -> dict[str, Any]:
    """Decode a document that must be a JSON object, or raise `error`
    with a message starting `<what>: `."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise error(f"{what}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise error(f"{what}: invalid JSON (nested too deeply)") from exc
    if not isinstance(data, dict):
        raise error(f"{what}: expected an object, got {type(data).__name__}")
    return data


def write_json(path: str | Path, data: Any) -> None:
    """Write `data` atomically as 2-space indented JSON and a newline."""
    atomic_write(path, json.dumps(data, indent=2) + "\n")
