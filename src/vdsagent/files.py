"""Atomic file writes shared by traces, reports and persisted exemplars."""

from __future__ import annotations

from pathlib import Path


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
