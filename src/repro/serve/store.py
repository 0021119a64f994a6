"""Content-addressed store of exact simulation results.

Entries are memoized :class:`~repro.simulators.results.SimulationResult`
payloads keyed by :func:`repro.serve.keys.job_key` and laid out two
fan-out levels deep (``store/ab/abcdef....res``) so a Fig. 4-scale
sweep never piles thousands of files into one directory.

Each entry is a framed record (:mod:`repro.utils.framing`):

* written to a temp file, fsync'd, then atomically ``os.replace``'d —
  a reader never observes a half-written entry;
* framed with a magic line, a JSON meta line, and a
  ``<length> <sha256>`` line over the payload bytes — a torn or
  bit-flipped file is *detected*, treated as a miss, and removed,
  never served.

The store holds **exact** results only.  Degraded (analytic-tier)
answers are refused at this layer — :meth:`ResultStore.put` raises —
so no code path can launder an approximation into the exact cache.
This is the invariant ``repro check --mode serve`` re-verifies.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, Optional

from repro.errors import FrameCorruption, ServeError
from repro.utils.framing import parse_framed, write_framed

#: First line of every store entry; bump when the framing changes.
MAGIC = b"REPROSERV1\n"

_ENTRY_SUFFIX = ".res"

#: A job key: lowercase hex, at least 8 digits (the fan-out uses 2).
_KEY = re.compile(r"[0-9a-f]{8,}")


class ResultStore:
    """Memoized exact results, content-addressed by job key."""

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    def _entry_path(self, key: str) -> str:
        if not _KEY.fullmatch(key):
            raise ServeError(f"malformed store key {key!r}")
        return os.path.join(self.root, key[:2], key + _ENTRY_SUFFIX)

    # ------------------------------------------------------------------
    # writes

    def put(self, key: str, payload: Dict) -> str:
        """Durably store ``payload`` under ``key``; returns the path.

        Refuses degraded payloads: the exact cache must never contain
        an approximation (see module doc).  Idempotent — re-putting an
        existing key rewrites the same bytes atomically.
        """
        if payload.get("degraded"):
            raise ServeError(
                f"refusing to store degraded result under {key[:12]}...: "
                "the exact-result cache only holds exact values "
                "(docs/serving.md, tagging contract)"
            )
        path = self._entry_path(key)
        body = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        write_framed(path, MAGIC, {"key": key}, body)
        return path

    # ------------------------------------------------------------------
    # reads

    def get(self, key: str) -> Optional[Dict]:
        """The payload stored under ``key``, or ``None`` on a miss.

        A torn, truncated, or corrupted entry counts as a miss: it is
        deleted (so the slot heals on the next put) and ``None`` is
        returned — the caller recomputes, it never sees bad bytes.
        """
        path = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        payload = self._parse_entry(raw, key)
        if payload is None:
            # Corrupt entry: evict so the next put rebuilds it cleanly.
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        return payload

    @staticmethod
    def _parse_entry(raw: bytes, key: str) -> Optional[Dict]:
        try:
            meta, body = parse_framed(raw, MAGIC)
        except FrameCorruption:
            return None
        if meta.get("key") != key:
            return None
        try:
            payload = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("degraded"):
            # A degraded payload on disk means the write-side invariant
            # was bypassed (e.g. a foreign writer); never serve it.
            return None
        return payload

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        count = 0
        for __, __, files in os.walk(self.root):
            count += sum(1 for name in files if name.endswith(_ENTRY_SUFFIX))
        return count

    def keys(self):
        """All entry keys currently on disk (unvalidated; cheap scan)."""
        found = []
        for __, __, files in os.walk(self.root):
            for name in files:
                if name.endswith(_ENTRY_SUFFIX):
                    found.append(name[:-len(_ENTRY_SUFFIX)])
        return sorted(found)
