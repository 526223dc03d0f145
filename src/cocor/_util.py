"""Small shared helpers."""

from __future__ import annotations

import os
import tempfile


class ConfigError(ValueError):
    """A bad input (a config value, a flag, or an input file that cannot be
    read or does not fit the config); the message names it. The command line
    exits 1 on this error and on no other."""


def read_input(path: str) -> bytes:
    """The bytes of an input file. A path that cannot be read is a bad
    input, so the OSError becomes a ConfigError naming the path."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temp file in the same directory plus rename. The file gets
    the mode ``open(path, "wb")`` would give it: 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            umask = os.umask(0)  # reading the umask means setting it; single-threaded
            os.umask(umask)
            os.fchmod(f.fileno(), 0o666 & ~umask)
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
