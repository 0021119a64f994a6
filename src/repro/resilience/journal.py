"""Checkpoint/resume journals for sweep runs.

Two layers live here:

* :class:`JsonLinesJournal` — the reusable durability discipline: a
  JSON-lines file whose header lands via temp-file + atomic
  ``os.replace`` (a half-created journal never exists), whose appends
  are flushed and ``fsync``'d before returning (a killed writer loses at
  most the in-flight line), and whose loader tolerates a torn trailing
  line by truncating it away before the first new append.  The service
  journal (:mod:`repro.serve.journal`) builds on the same base.
* :class:`RunJournal` — the sweep journal: one line per completed
  ``(app, gpu, simulator)`` triple carrying the full (metrics-free)
  :class:`~repro.simulators.results.SimulationResult`.

Because simulation here is deterministic (see ``docs/verification.md``),
replaying the missing triples after a resume reproduces the interrupted
sweep bit-identically — asserted by ``repro check --mode resilience``.

The header optionally records content hashes of the invocation that
created the journal (``config_hash``, ``workload_hash`` — see
:mod:`repro.serve.keys`); ``repro eval --resume`` refuses to mix results
from a different configuration or workload by comparing them.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import SimulationError
from repro.simulators.results import KernelResult, SimulationResult

JOURNAL_VERSION = 1

#: A completed-work key: (app_name, gpu_name, simulator_name).
TripleKey = Tuple[str, str, str]


def result_to_dict(result: SimulationResult) -> Dict:
    """Serialize a result for the journal (metrics never cross runs)."""
    return {
        "app_name": result.app_name,
        "simulator_name": result.simulator_name,
        "gpu_name": result.gpu_name,
        "total_cycles": result.total_cycles,
        "wall_time_seconds": result.wall_time_seconds,
        "profile_seconds": result.profile_seconds,
        "kernels": [
            {
                "name": kernel.name,
                "start_cycle": kernel.start_cycle,
                "end_cycle": kernel.end_cycle,
                "instructions": kernel.instructions,
            }
            for kernel in result.kernels
        ],
    }


def result_from_dict(payload: Dict) -> SimulationResult:
    try:
        return SimulationResult(
            app_name=payload["app_name"],
            simulator_name=payload["simulator_name"],
            gpu_name=payload["gpu_name"],
            total_cycles=payload["total_cycles"],
            kernels=[
                KernelResult(
                    name=kernel["name"],
                    start_cycle=kernel["start_cycle"],
                    end_cycle=kernel["end_cycle"],
                    instructions=kernel["instructions"],
                )
                for kernel in payload.get("kernels", ())
            ],
            metrics=None,
            wall_time_seconds=payload.get("wall_time_seconds", 0.0),
            profile_seconds=payload.get("profile_seconds", 0.0),
        )
    except (KeyError, TypeError) as exc:
        raise SimulationError(f"malformed journal record: {exc}") from exc


class JsonLinesJournal:
    """Append-only JSON-lines file with the journal durability contract.

    Subclasses set :attr:`KIND` (the header's ``journal`` field; empty
    accepts legacy headers without one) and implement :meth:`_ingest`
    to absorb one non-header record during load.
    """

    #: Value of the header's ``journal`` field ("" = legacy, unchecked).
    KIND = ""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.header: Dict = {}
        self._handle = None
        #: Byte length of the valid line prefix; a torn trailing line
        #: (crash mid-append) past this point is truncated away before
        #: the first new append.
        self._valid_bytes: Optional[int] = None

    # ------------------------------------------------------------------
    # creation / loading

    @classmethod
    def create(cls, path: str, **header_fields) -> "JsonLinesJournal":
        """Create a fresh journal (atomic: header lands via rename)."""
        journal = cls(path)
        directory = os.path.dirname(os.path.abspath(journal.path)) or "."
        header = {"kind": "header", "version": JOURNAL_VERSION}
        if cls.KIND:
            header["journal"] = cls.KIND
        header.update(header_fields)
        fd, temp_path = tempfile.mkstemp(
            dir=directory, prefix=".journal-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(header, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, journal.path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        journal.header = header
        return journal

    @classmethod
    def load(cls, path: str) -> "JsonLinesJournal":
        """Open an existing journal, tolerating a torn trailing line."""
        journal = cls(path)
        if not os.path.exists(path):
            raise SimulationError(f"journal {path!r} does not exist")
        with open(path, "rb") as handle:
            raw = handle.read()
        lines = raw.decode("utf-8", errors="replace").splitlines(keepends=True)
        saw_header = False
        valid_bytes = 0
        for index, line in enumerate(lines):
            is_last = index == len(lines) - 1
            if not line.endswith("\n"):
                # Torn final write from a killed writer: even if it
                # happens to parse, the fsync contract only covers
                # complete lines — drop it and let a resume re-run it.
                break
            stripped = line.strip()
            if not stripped:
                valid_bytes += len(line.encode("utf-8"))
                continue
            try:
                record = json.loads(stripped)
            except (ValueError, RecursionError):
                if is_last:
                    break  # torn final write from a killed writer
                raise SimulationError(
                    f"journal {path!r} line {index + 1} is corrupt "
                    f"mid-file: {stripped[:60]!r}"
                )
            if not isinstance(record, dict):
                raise SimulationError(
                    f"journal {path!r} line {index + 1} is not a JSON "
                    f"object: {stripped[:60]!r}"
                )
            kind = record.get("kind")
            if not saw_header:
                if kind != "header":
                    raise SimulationError(
                        f"journal {path!r} has no header line"
                    )
                version = record.get("version")
                if version != JOURNAL_VERSION:
                    raise SimulationError(
                        f"journal {path!r} has version {version}, "
                        f"expected {JOURNAL_VERSION}"
                    )
                declared = record.get("journal", "")
                if cls.KIND and declared and declared != cls.KIND:
                    raise SimulationError(
                        f"journal {path!r} is a {declared!r} journal, "
                        f"not {cls.KIND!r}"
                    )
                journal.header = record
                saw_header = True
            else:
                try:
                    journal._ingest(record)
                except SimulationError as exc:
                    raise SimulationError(
                        f"journal {path!r} line {index + 1}: {exc}"
                    ) from exc
            valid_bytes += len(line.encode("utf-8"))
        if not saw_header:
            raise SimulationError(f"journal {path!r} has no header line")
        journal._valid_bytes = valid_bytes
        return journal

    def _ingest(self, record: Dict) -> None:
        """Absorb one loaded non-header record (subclass hook); raise
        :class:`SimulationError` for a record it cannot use."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # appends

    def append(self, record: Dict) -> None:
        """Durably append one record (flush + fsync before returning)."""
        line = json.dumps(record, sort_keys=True)
        if self._handle is None:
            if (self._valid_bytes is not None
                    and os.path.getsize(self.path) > self._valid_bytes):
                # Drop the torn trailing line a killed writer left behind
                # before building on the file.
                with open(self.path, "r+b") as repair:
                    repair.truncate(self._valid_bytes)
            self._handle = open(self.path, "a")
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonLinesJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RunJournal(JsonLinesJournal):
    """Append-only record of completed simulation triples."""

    KIND = "run"

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._completed: Dict[TripleKey, SimulationResult] = {}
        self._attempts: Dict[TripleKey, int] = {}

    # ------------------------------------------------------------------
    # creation / loading

    @classmethod
    def create(
        cls,
        path: str,
        gpu_name: str = "",
        scale: str = "",
        config_hash: str = "",
        workload_hash: str = "",
    ) -> "RunJournal":
        """Create a fresh journal (atomic: header lands via rename).

        ``config_hash`` / ``workload_hash`` pin the invocation that owns
        this journal; resumes under a different configuration or
        workload are refused (see ``repro eval --resume``).
        """
        fields = {"gpu": gpu_name, "scale": scale}
        if config_hash:
            fields["config_hash"] = config_hash
        if workload_hash:
            fields["workload_hash"] = workload_hash
        return super().create(path, **fields)

    @classmethod
    def open(
        cls,
        path: str,
        gpu_name: str = "",
        scale: str = "",
        config_hash: str = "",
        workload_hash: str = "",
    ) -> "RunJournal":
        """Load ``path`` if it exists, else create it."""
        if os.path.exists(path):
            return cls.load(path)
        return cls.create(
            path, gpu_name=gpu_name, scale=scale,
            config_hash=config_hash, workload_hash=workload_hash,
        )

    def _ingest(self, record: Dict) -> None:
        if record.get("kind") == "result":
            result = result_from_dict(record.get("result"))
            key = (result.app_name, result.gpu_name, result.simulator_name)
            self._completed[key] = result
            self._attempts[key] = record.get("attempts", 1)

    # ------------------------------------------------------------------
    # queries

    def __len__(self) -> int:
        return len(self._completed)

    def __contains__(self, key: TripleKey) -> bool:
        return key in self._completed

    def has(self, app: str, gpu: str, simulator: str) -> bool:
        return (app, gpu, simulator) in self._completed

    def get(self, app: str, gpu: str, simulator: str) -> Optional[SimulationResult]:
        return self._completed.get((app, gpu, simulator))

    def attempts(self, app: str, gpu: str, simulator: str) -> int:
        return self._attempts.get((app, gpu, simulator), 0)

    def completed(self) -> Iterator[Tuple[TripleKey, SimulationResult]]:
        return iter(sorted(self._completed.items()))

    # ------------------------------------------------------------------
    # appends

    def record(self, result: SimulationResult, attempts: int = 1) -> None:
        """Durably append one completed triple (flush + fsync)."""
        key = (result.app_name, result.gpu_name, result.simulator_name)
        if key in self._completed:
            return  # idempotent: resumes may re-deliver journaled work
        self.append({
            "kind": "result",
            "attempts": attempts,
            "result": result_to_dict(result),
        })
        self._completed[key] = result
        self._attempts[key] = attempts
