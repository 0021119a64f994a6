"""The service's crash-recovery journal.

Same JSON-lines durability discipline as the sweep journal
(:class:`repro.resilience.journal.JsonLinesJournal`): atomic header,
fsync'd appends, torn-tail tolerance.  Two record kinds:

* ``job`` — written when a job is *admitted*, carrying the full
  request; the job is now owed an answer even across a crash.
* ``done`` — written when the job leaves the system (stored, shed, or
  failed terminally), keyed by the job's content address.

A job with no matching ``done`` is *pending*: on restart the server
re-executes every pending job before accepting new work, so a SIGKILL
mid-sweep converges to the same store contents as an uninterrupted run
(re-verified by ``repro check --mode serve``).  Degraded and shed
outcomes are journaled as ``done`` too — they are answered, not owed —
but only ``stored`` outcomes ever touch the exact cache.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import SimulationError
from repro.resilience.journal import JsonLinesJournal

#: ``done`` statuses.  "stored": exact result written to the store.
#: "degraded": answered from the analytic tier (never stored).
#: "failed": terminal failure after retries.  "shed": load-shed.
DONE_STATUSES = ("stored", "degraded", "failed", "shed")


class ServeJournal(JsonLinesJournal):
    """Append-only admitted/settled log for the sweep service."""

    KIND = "serve"

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._jobs: Dict[str, Dict] = {}      # key -> request dict
        self._done: Dict[str, str] = {}       # key -> status

    @classmethod
    def create(cls, path: str, socket_path: str = "") -> "ServeJournal":
        return super().create(path, socket=socket_path)

    def _ingest(self, record: Dict) -> None:
        kind = record.get("kind")
        if kind not in ("job", "done"):
            return
        key = record.get("key", "")
        if not isinstance(key, str):
            raise SimulationError(f"{kind} record key is not a string: {key!r}")
        if not key:
            return
        if kind == "job":
            request = record.get("request", {})
            if not isinstance(request, dict):
                raise SimulationError(f"job {key!r} request is not an object")
            self._jobs[key] = request
        else:
            status = record.get("status", "stored")
            if not isinstance(status, str):
                raise SimulationError(f"done {key!r} status is not a string")
            self._done[key] = status

    # ------------------------------------------------------------------
    # appends

    def record_job(self, key: str, request: Dict) -> None:
        """Durably admit ``key``; idempotent across resubmits."""
        if key in self._jobs:
            return
        self.append({"kind": "job", "key": key, "request": request})
        self._jobs[key] = request

    def record_done(self, key: str, status: str) -> None:
        """Durably settle ``key`` with one of :data:`DONE_STATUSES`."""
        if status not in DONE_STATUSES:
            raise ValueError(
                f"unknown done status {status!r}; expected one of "
                f"{DONE_STATUSES}"
            )
        if self._done.get(key) == status:
            return
        self.append({"kind": "done", "key": key, "status": status})
        self._done[key] = status

    # ------------------------------------------------------------------
    # queries

    def pending(self) -> List[Dict]:
        """Requests admitted but never settled (the crash debt).

        Ordered by admission order (dict insertion order mirrors the
        journal's line order), so recovery replays deterministically.
        """
        return [
            dict(request) for key, request in self._jobs.items()
            if key not in self._done
        ]

    def unsettled(self, key: str) -> bool:
        """True when ``key`` was admitted but never settled."""
        return key in self._jobs and key not in self._done

    def settled(self) -> Dict[str, str]:
        return dict(self._done)

    def __len__(self) -> int:
        return len(self._jobs)
