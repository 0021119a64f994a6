"""Durable mid-run checkpoint files.

A checkpoint captures the *entire* live simulation — engine heap and
clock, every module's state, the kernel loop position — as one pickle of
a payload object, so shared references (one memory system serving many
SMs, warps resident in two owners) are preserved exactly.  The file is a
framed record (:mod:`repro.utils.framing`: atomic replace on create,
fsync before rename), which wraps that pickle with enough framing to
detect truncation and corruption:

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

import pickle
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import CheckpointCorruption, CheckpointError, FrameCorruption
from repro.utils.framing import parse_framed, write_framed

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
#: 7: ``Counters`` pickles as the dict of additive counters it is, with
#:    the peaks in its one slot; ``DRAMPartition`` carries its per-access
#:    constants and ``QueuedMemorySystem`` the L1's sectors per line in
#:    place of its line size.
#: 8: a pickled ``SMCore`` carries no tick-while-empty flag.
#: 9: ``TraceInstruction.addresses`` pickles as one ``array("Q")`` (the
#:    shared ``()`` when address-free) and ``DetailedMemorySystem`` keys
#:    its rejected instructions on ``(sm_id, warp slot)``.
#: ``tests/test_guard.py`` pins the pickled classes' field layout beside
#: this number, so a layout change without a bump fails there.
FORMAT_VERSION = 9


def checkpoint_name(cycle: int) -> str:
    """File name for a checkpoint at ``cycle`` (fixed-width so that
    lexicographic order == cycle order)."""
    return f"ckpt_{cycle:012d}.ckpt"


def write_checkpoint(
    directory: Path, cycle: int, payload: object, meta: Dict[str, object]
) -> Path:
    """Atomically write a checkpoint; returns its final path.

    The payload is pickled first (so a pickling failure cannot leave a
    half-written file), then framed and durably renamed into place by
    :func:`repro.utils.framing.write_framed`.
    """
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"cannot pickle checkpoint payload at cycle {cycle}: {exc}"
        ) from exc
    full_meta = dict(meta)
    full_meta["cycle"] = cycle
    full_meta["format_version"] = FORMAT_VERSION
    final = Path(directory) / checkpoint_name(cycle)
    write_framed(final, MAGIC, full_meta, blob)
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
    try:
        meta, blob = parse_framed(raw, MAGIC)
    except FrameCorruption as exc:
        raise CheckpointCorruption(f"{path}: {exc}") from exc
    if meta.get("format_version") != FORMAT_VERSION:
        raise CheckpointCorruption(
            f"{path}: format version {meta.get('format_version')!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
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
