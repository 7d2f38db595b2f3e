"""Whole-file replacement that survives a crash at any point.

Every state file in the package (the IoT server's counter journal when it
is compacted, a device's sync counter, the client credential cache) is
replaced through ``atomic_write``: readers see the old file or the new one,
never a mix.
"""

from __future__ import annotations

import os

__all__ = ["atomic_write"]


def atomic_write(path: str, data: bytes, durable: bool = True) -> None:
    """Replace ``path`` with ``data``, owner-readable only.

    Writes a temporary file beside ``path`` and renames it over ``path``.
    With ``durable`` the data is fsync'd before the rename and the directory
    after it, so once this returns the new contents survive a power loss.
    """
    tmp = path + ".tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if durable:
            os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    if durable:
        dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
