"""Durable file writes: the one home of the tmp + fsync + rename sequence.

Every file the package persists -- checkpoints, registry blobs and
manifests, job records, sweep-cache entries, telemetry exports, the
server's port file -- goes through :func:`atomic_write`, so a process
killed at any point leaves either the old file or the new one at
``path``, never a truncated mix.

This module imports nothing from :mod:`repro`, so every layer can use it
without an import cycle.
"""

from __future__ import annotations

import os

__all__ = ["atomic_write"]


def atomic_write(path: str | os.PathLike, data: bytes | str, *,
                 before_rename=None) -> None:
    """Atomically replace ``path`` with ``data`` (``str`` is UTF-8 encoded).

    The bytes go to ``<path>.tmp`` in the same directory, are flushed and
    fsynced, then moved over ``path`` with :func:`os.replace` -- the
    rename is the commit point.  ``before_rename``, when given, is called
    between the write and the rename; checkpoint writes hang their
    ``serialization.pre_rename`` fault site there.
    """
    path = os.fspath(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if before_rename is not None:
        before_rename()
    os.replace(tmp, path)
