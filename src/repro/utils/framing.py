"""Framed records: one durable, self-checking file format.

Guard checkpoints and serve store entries are the same file with a
different magic and body encoding:

.. code-block:: text

    <MAGIC>\\n                      caller's magic + format version
    {"key": ..., ...}\\n            JSON meta (one line, sorted keys)
    <body-bytes> <sha256-hex>\\n    body framing
    <body bytes>                    the body itself

:func:`write_framed` writes to a temp file beside the target, fsyncs and
atomically renames it into place, so a reader never observes a
half-written record; :func:`parse_framed` verifies magic, meta, length
and digest before handing the body back, so a torn, truncated or
bit-flipped file is *detected* — :class:`repro.errors.FrameCorruption` —
and never decoded.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Tuple

from repro.errors import FrameCorruption


def write_framed(path, magic: bytes, meta: Dict[str, object], body: bytes) -> None:
    """Atomically write ``body`` to ``path`` (parent directories are
    created) behind ``magic`` (which ends in a newline), a meta line and
    a length/digest frame."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    meta_line = json.dumps(meta, sort_keys=True).encode("utf-8")
    frame = f"{len(body)} {hashlib.sha256(body).hexdigest()}\n".encode("ascii")
    fd, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(magic)
            handle.write(meta_line + b"\n")
            handle.write(frame)
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def parse_framed(raw: bytes, magic: bytes) -> Tuple[Dict[str, object], bytes]:
    """Verify one framed record -> ``(meta, body)``.

    Raises :class:`FrameCorruption` on any magic, meta, framing, length
    or digest mismatch — including a file truncated mid-write by a crash.
    """
    if not raw.startswith(magic):
        raise FrameCorruption(
            f"bad magic (not a {magic.strip().decode('ascii')} file, or "
            f"version skew)"
        )
    meta_end = raw.find(b"\n", len(magic))
    if meta_end < 0:
        raise FrameCorruption("truncated before meta line")
    try:
        meta = json.loads(raw[len(magic):meta_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FrameCorruption(f"unparsable meta line: {exc}") from exc
    if not isinstance(meta, dict):
        raise FrameCorruption("meta line is not an object")
    frame_end = raw.find(b"\n", meta_end + 1)
    if frame_end < 0:
        raise FrameCorruption("truncated before body frame")
    frame = raw[meta_end + 1:frame_end].split(b" ")
    if len(frame) != 2:
        raise FrameCorruption("malformed body frame")
    try:
        length = int(frame[0])
    except ValueError as exc:
        raise FrameCorruption("malformed body length") from exc
    body = raw[frame_end + 1:]
    if len(body) != length:
        raise FrameCorruption(
            f"body is {len(body)} bytes, frame declares {length} (torn write)"
        )
    if hashlib.sha256(body).hexdigest().encode("ascii") != frame[1]:
        raise FrameCorruption("body digest mismatch")
    return meta, body
