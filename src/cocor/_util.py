"""Small shared helpers."""

from __future__ import annotations

import os
import tempfile


def read_input(path: str) -> bytes:
    """The bytes of an input file. A path that cannot be read is a bad
    input, so the OSError becomes a ValueError naming the path."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temp file in the same directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
