"""Atomic file output: write beside the target, then rename over it."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_write"]


@contextmanager
def atomic_write(path: str | Path, binary: bool = False):
    """Open a file whose content replaces ``path`` when the block completes.

    The file is opened as text, or as binary if ``binary``.

    The data goes to a new temporary file in the same directory, which
    ``os.replace`` renames over ``path`` once the block exits normally.  If
    the block raises, the temporary file is removed and ``path`` keeps its
    previous content, so a reader sees the old file or the whole new one,
    never a partial write.  No fsync is issued: this guards against a failed
    or killed run, not against losing power.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb" if binary else "x") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
