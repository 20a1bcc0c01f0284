"""Whole-file writes that leave the old file, or none, but never a truncated one."""

from __future__ import annotations

import os
from pathlib import Path


def _replace(path, mode: str, data, **kwargs) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path, text: str) -> None:
    """Replace `path` with `text` (UTF-8) in one step.

    The text goes to a temporary sibling that os.replace then renames over
    `path`, so a write that fails part-way leaves the old file, or none, and
    never a truncated one. This guards against the process failing, not
    against power loss: nothing is fsynced.
    """
    _replace(path, "w", text, encoding="utf-8")


def write_bytes_atomic(path, data: bytes) -> None:
    """Replace `path` with `data` in one step, as write_text_atomic does for text."""
    _replace(path, "wb", data)
