"""Opening output files: an existing output is replaced, not truncated.

``open(path, "w")`` truncates an existing file to zero.  On ext4 with
``auto_da_alloc`` (its default) closing a file truncated that way forces its
data to disk, and the next truncate of the same file waits for that write, so
rewriting an output written moments before stalled for tens of milliseconds.
Removing the old file and creating a new one costs what a first write costs.
"""
from __future__ import annotations

import os
import stat


def open_output(path, newline: str | None = None):
    """Open ``path`` for writing UTF-8 text, unlinking an existing output first.

    Only a writable regular file with a single link is unlinked.  Any other
    path is opened as ``open(path, "w")`` opens it: a symlink's target is
    rewritten, a device or FIFO is written to, every name of a hard-linked
    file sees the new content, and a read-only file still fails to open.
    """
    try:
        info = os.lstat(path)
        if (stat.S_ISREG(info.st_mode) and info.st_nlink == 1
                and os.access(path, os.W_OK)):
            os.unlink(path)
    except OSError:
        pass  # no file there yet, or its directory forbids removal
    return open(path, "w", encoding="utf-8", newline=newline)
