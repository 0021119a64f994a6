"""Durable mid-run checkpoint files.

A checkpoint captures the *entire* live simulation — engine heap and
clock, every module's state, the kernel loop position — as one pickle of
a payload object, so shared references (one memory system serving many
SMs, warps resident in two owners) are preserved exactly.  The file
format wraps that pickle with enough framing to detect truncation and
corruption, mirroring the :class:`repro.resilience.RunJournal`
durability discipline (atomic replace on create, fsync before rename,
graceful fallback past torn files):

.. code-block:: text

    REPROCKPT1\\n                   magic + format version
    {"cycle": ..., ...}\\n          JSON meta (one line, sorted keys)
    <payload-bytes> <sha256-hex>\\n payload framing
    <pickle bytes>                  the payload itself

Readers verify magic, length, and digest before unpickling; any mismatch
raises :class:`repro.errors.CheckpointCorruption` and
:func:`find_resumable` simply falls back to the next-newest intact file.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import CheckpointCorruption, CheckpointError

MAGIC = b"REPROCKPT1\n"

#: Checkpoint meta schema version; bump on incompatible payload changes.
#: 2: a pickled ``Engine`` carries no ``config`` attribute.
#: 3: a pickled sharded engine carries no fault-injection hook.
#: 4: the ``OpcodeInfo`` pickled inside every ``TraceInstruction`` stores
#:    ``is_memory`` as a field.
#: 5: a pickled ``SubCore`` carries ``quiet_until`` and its opcode -> sink
#:    table, ``PipelinedExecutionUnit`` a ``busy`` flag, and
#:    ``DetailedMemorySystem`` the transactions of rejected instructions.
#: 6: the engine is always a plain ``Engine`` (the sharded engine and its
#:    channel classes are gone) and the frame has no ``port_traffic``.
#: ``tests/test_guard.py`` pins the pickled classes' field layout beside
#: this number, so a layout change without a bump fails there.
FORMAT_VERSION = 6


def checkpoint_name(cycle: int) -> str:
    """File name for a checkpoint at ``cycle`` (fixed-width so that
    lexicographic order == cycle order)."""
    return f"ckpt_{cycle:012d}.ckpt"


def write_checkpoint(
    directory: Path, cycle: int, payload: object, meta: Dict[str, object]
) -> Path:
    """Atomically write a checkpoint; returns its final path.

    The payload is pickled first (so a pickling failure cannot leave a
    half-written file), framed, written to a temp file in the target
    directory, fsynced, and renamed into place.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"cannot pickle checkpoint payload at cycle {cycle}: {exc}"
        ) from exc
    full_meta = dict(meta)
    full_meta["cycle"] = cycle
    full_meta["format_version"] = FORMAT_VERSION
    meta_line = json.dumps(full_meta, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(blob).hexdigest()
    frame = f"{len(blob)} {digest}\n".encode("ascii")
    final = directory / checkpoint_name(cycle)
    fd, tmp_name = tempfile.mkstemp(
        prefix=final.name + ".", suffix=".tmp", dir=str(directory)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(MAGIC)
            handle.write(meta_line + b"\n")
            handle.write(frame)
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, final)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return final


def read_checkpoint(path: Path) -> Tuple[Dict[str, object], object]:
    """Load and verify one checkpoint file -> ``(meta, payload)``.

    Raises :class:`CheckpointCorruption` on any framing, length, or
    digest mismatch — including a file truncated mid-write by a crash.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointCorruption(
            f"cannot read checkpoint {path}: {exc}"
        ) from exc
    if not raw.startswith(MAGIC):
        raise CheckpointCorruption(
            f"{path}: bad magic (not a checkpoint file, or version skew)"
        )
    rest = raw[len(MAGIC):]
    meta_end = rest.find(b"\n")
    if meta_end < 0:
        raise CheckpointCorruption(f"{path}: truncated before meta line")
    try:
        meta = json.loads(rest[:meta_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruption(
            f"{path}: unparsable meta line: {exc}"
        ) from exc
    if not isinstance(meta, dict):
        raise CheckpointCorruption(f"{path}: meta line is not an object")
    if meta.get("format_version") != FORMAT_VERSION:
        raise CheckpointCorruption(
            f"{path}: format version {meta.get('format_version')!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    rest = rest[meta_end + 1:]
    frame_end = rest.find(b"\n")
    if frame_end < 0:
        raise CheckpointCorruption(f"{path}: truncated before payload frame")
    frame = rest[:frame_end].decode("ascii", errors="replace").split()
    if len(frame) != 2:
        raise CheckpointCorruption(f"{path}: malformed payload frame")
    try:
        length = int(frame[0])
    except ValueError as exc:
        raise CheckpointCorruption(
            f"{path}: malformed payload length"
        ) from exc
    blob = rest[frame_end + 1:]
    if len(blob) != length:
        raise CheckpointCorruption(
            f"{path}: payload is {len(blob)} bytes, frame declares "
            f"{length} (torn write)"
        )
    if hashlib.sha256(blob).hexdigest() != frame[1]:
        raise CheckpointCorruption(f"{path}: payload digest mismatch")
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointCorruption(
            f"{path}: payload does not unpickle: {exc}"
        ) from exc
    return meta, payload


def list_checkpoints(directory: Path) -> List[Path]:
    """All checkpoint files in ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("ckpt_*.ckpt"))


def find_resumable(
    directory: Path,
) -> Optional[Tuple[Path, Dict[str, object], object]]:
    """Newest *intact* checkpoint in ``directory``, or ``None``.

    Torn or corrupt files (e.g. the newest one, killed mid-write before
    its atomic rename — or tampered after) are skipped, falling back to
    the previous checkpoint, exactly like the journal's torn-trailing-
    line tolerance.
    """
    for path in reversed(list_checkpoints(directory)):
        try:
            meta, payload = read_checkpoint(path)
        except CheckpointCorruption:
            continue
        return path, meta, payload
    return None


def prune_checkpoints(directory: Path, keep: int) -> List[Path]:
    """Delete all but the newest ``keep`` checkpoints; returns removals."""
    removed: List[Path] = []
    paths = list_checkpoints(directory)
    for path in paths[:-keep] if keep > 0 else paths:
        try:
            path.unlink()
        except OSError:
            continue
        removed.append(path)
    return removed
