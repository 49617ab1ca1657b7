"""All-or-nothing artifact writes.

Every file the pipeline produces (feature files and their manifests, the
split, checkpoints, histories, reports) is written to a temporary file in
its own directory and renamed over the final path only once complete, so a
failed or interrupted write never leaves a partial file under the final
name.  A process killed outright can leave its dot-prefixed temporary file
behind.  Nothing is fsynced: this guards against a failing process, not a
machine crash.
"""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a file object whose contents replace `path` when the block succeeds.

    If the block raises, the temporary file is removed and `path` is left as
    it was.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")  # same file system as path
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
