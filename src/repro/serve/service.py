"""The asyncio sweep service (``docs/serving.md``).

One event loop owns all bookkeeping — the in-flight dedupe table, the
admission ledger, the breaker board, the journal — while actual
simulation runs through the :class:`~repro.resilience.Supervisor` in an
executor thread.  With ``supervisor_workers > 1`` the service owns one
set of at most that many kept worker processes for its lifetime: each
is forked when a cold job first needs it, runs job after job, and is
stopped on drain and on exit.  Requests arrive as JSON lines over a unix
socket.

The degradation ladder, top rung first:

1. **store hit** — the content-addressed exact cache answers.
2. **in-flight dedupe** — an identical job is already executing;
   await its future instead of running twice.
3. **exact execution** — Supervisor with retries, per-attempt
   timeouts, and the per-job deadline as ``max_total_seconds``.
4. **degraded answer** — when the breaker is open, the queue is
   saturated, or exact execution failed terminally *and* the request
   allows it: answer from ``swift-analytic``, tagged ``degraded=true``
   with the documented error bounds, never cached.
5. **typed error** — the shed/failure reason, when degradation is
   disallowed or unavailable.

Identity is a pure function of the request's bytes, and clients repeat
lines byte for byte (``replay_grid`` resubmits a grid as it sent it), so
the service remembers the identity of the last :data:`KNOWN_LINES`
submit lines that identified successfully.  A known line skips JSON
decoding and :meth:`SweepService.identify` and goes straight to rung 1,
which still reads and verifies the store entry: the map holds
identities, never results.

Crash safety: admitted jobs are journaled before execution and settled
after; on startup the server re-executes every unsettled job before
serving, so a SIGKILL converges to the uninterrupted store contents.
``die_after_jobs`` makes that crash deterministic for tests — the
server calls ``os._exit(9)`` (SIGKILL's exit code) after settling N
jobs.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Dict, Optional

from repro.errors import (
    CircuitOpen,
    ConfigError,
    DeadlineExceeded,
    DegradationUnavailable,
    LoadShedError,
    QueueSaturated,
    ServeError,
    SwiftSimError,
    WorkloadError,
)
from repro.frontend.config_io import gpu_config_to_dict
from repro.resilience.chaos import ChaosPlan
from repro.resilience.journal import result_to_dict
from repro.resilience.policy import RetryPolicy
from repro.resilience.supervisor import Supervisor, Task
from repro.serve.admission import AdmissionController
from repro.serve.breaker import BreakerBoard
from repro.serve.jobs import (
    DEGRADED_SIMULATOR,
    JobRequest,
    response_error,
    response_ok,
)
from repro.serve.journal import ServeJournal
from repro.serve.keys import config_hash, job_key, trace_fingerprint
from repro.serve.store import ResultStore
from repro.serve.worker import (
    execute_job,
    resolve_gpu,
    validate_result_payload,
)
from repro.simulators import SIMULATORS
from repro.tracegen.suites import make_app

#: How many distinct submit lines the service remembers the identity of;
#: the oldest is forgotten first.  An entry is the line (~1.6 KB with a
#: full config) and its parsed request and identity (~9 KB), so the map
#: stays near 11 MB at most.
KNOWN_LINES = 1024

#: The longest request line read, in bytes (asyncio's default limit);
#: a longer one is refused and its connection closed.
LINE_LIMIT = 2 ** 16


class ServiceStats:
    """Monotonic counters for the ``stats`` endpoint."""

    FIELDS = (
        "submitted", "hits", "deduped", "executed", "degraded",
        "failed", "shed_queue", "shed_breaker", "deadline_missed",
        "recovered",
    )

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def bump(self, name: str) -> None:
        setattr(self, name, getattr(self, name) + 1)

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}


class SweepService:
    """The sweep-as-a-service server.  See module doc for the ladder."""

    def __init__(
        self,
        store: ResultStore,
        journal: ServeJournal,
        *,
        policy: Optional[RetryPolicy] = None,
        chaos: Optional[ChaosPlan] = None,
        admission: Optional[AdmissionController] = None,
        breakers: Optional[BreakerBoard] = None,
        supervisor_workers: int = 1,
        die_at_job: int = 0,
        runner=None,
        degraded_runner=None,
        clock=time.monotonic,
    ) -> None:
        self.store = store
        self.journal = journal
        self.policy = policy if policy is not None else RetryPolicy(
            max_attempts=3, base_delay=0.01, timeout_seconds=60.0,
        )
        self.admission = admission or AdmissionController()
        self.breakers = breakers or BreakerBoard()
        #: The service's workers; each request derives its own policy
        #: and context from it (:meth:`Supervisor.with_policy`).
        self._supervisor = Supervisor(
            self.policy, workers=supervisor_workers, chaos=chaos,
        )
        self.die_at_job = die_at_job
        self.stats = ServiceStats()
        #: Injectable execution hooks so unit tests can drive the ladder
        #: without real simulators.  ``runner(request) -> result dict``
        #: raises SwiftSimError/TaskFailure on failure.
        self._runner = runner or self._run_exact
        self._degraded_runner = degraded_runner or self._run_degraded
        self._clock = clock
        self._inflight: Dict[str, asyncio.Future] = {}
        #: (app, scale) -> (trace_hash, num_instructions, trace); traces
        #: are deterministic in the key, so this never invalidates.  The
        #: degraded runner simulates the kept trace, so its tasklist is
        #: characterized once per server, not once per request.
        self._trace_ids: Dict[tuple, tuple] = {}
        #: raw submit line -> (JobRequest, identity), in insertion order
        #: (module doc); only lines that identified successfully.
        self._known_lines: Dict[bytes, tuple] = {}
        self._settled_jobs = 0
        self._admitted_jobs = 0
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # identity

    def _trace_identity(self, app: str, scale: str) -> tuple:
        key = (app, scale)
        cached = self._trace_ids.get(key)
        if cached is None:
            trace = make_app(app, scale=scale)
            fingerprint = trace_fingerprint(trace)
            cached = (fingerprint["digest"], fingerprint["instructions"],
                      trace)
            self._trace_ids[key] = cached
        return cached

    def identify(self, request: JobRequest) -> Dict:
        """Derive the job's content address and execution inputs.

        Raises a typed error (``ServeError``, ``ConfigError`` or
        ``WorkloadError``) for a request no tier could run: an unknown
        simulator, app or scale, an invalid config, a pin mismatch.
        """
        if request.simulator not in SIMULATORS:
            raise ServeError(
                f"unknown simulator {request.simulator!r}; "
                f"known: {sorted(SIMULATORS)}"
            )
        gpu = resolve_gpu(request.config, request.gpu)
        cfg_hash = config_hash(
            request.config if request.config is not None
            else gpu_config_to_dict(gpu)
        )
        if request.config_hash and request.config_hash != cfg_hash:
            raise ServeError(
                f"client config_hash {request.config_hash[:12]}... does "
                f"not match server-side {cfg_hash[:12]}... — client and "
                f"server disagree on the canonical config"
            )
        trc_hash, num_instructions, __ = self._trace_identity(
            request.app, request.scale
        )
        if request.trace_hash and request.trace_hash != trc_hash:
            raise ServeError(
                f"client trace_hash {request.trace_hash[:12]}... does "
                f"not match server-side {trc_hash[:12]}... — trace "
                f"generation drifted between client and server"
            )
        return {
            "key": job_key(trc_hash, cfg_hash, request.simulator),
            "trace_hash": trc_hash,
            "config_hash": cfg_hash,
            "gpu": gpu,
            "num_instructions": num_instructions,
        }

    # ------------------------------------------------------------------
    # execution tiers

    def _run_exact(self, request: JobRequest, identity: Dict) -> Dict:
        """Tier 3: Supervisor-driven exact execution (blocking; runs in
        an executor thread)."""
        policy = self.policy
        if request.deadline_seconds is not None:
            policy = policy.with_deadline(request.deadline_seconds)
        task = Task(
            key=identity["key"][:16],
            fn=execute_job,
            args=(request.app, request.scale, request.config,
                  request.gpu, request.simulator),
            validate=validate_result_payload,
        )
        supervisor = self._supervisor.with_policy(
            policy, context=f"serve {request.app}/{request.simulator}",
        )
        outcome = supervisor.run([task])[task.key]
        if outcome.failure is not None:
            raise outcome.failure
        return outcome.result

    def _run_degraded(self, request: JobRequest, identity: Dict) -> Dict:
        """Tier 4: the analytic fallback (blocking, but ~ms-scale), on
        the trace :meth:`identify` fingerprinted."""
        app = self._trace_identity(request.app, request.scale)[2]
        simulator = SIMULATORS[DEGRADED_SIMULATOR](identity["gpu"])
        return result_to_dict(simulator.simulate(app))

    # ------------------------------------------------------------------
    # the ladder

    async def submit_request(self, payload: Dict, line: bytes = b"") -> Dict:
        """Answer one submit payload; the testable core of the server.

        ``line`` is the raw request line ``payload`` was decoded from,
        if any; it is remembered once the request identifies.
        """
        self.stats.bump("submitted")
        loop = asyncio.get_running_loop()
        try:
            request = JobRequest.from_dict(payload)
            # Only the first sighting of a trace is slow (it generates
            # the trace to fingerprint it).  After that, identifying a
            # job is some parsing and hashing and the store probe one
            # small read — both cheaper than a hop to the executor, so
            # a cache hit is answered without leaving the loop.
            on_loop = (request.app, request.scale) in self._trace_ids
            if on_loop:
                identity = self.identify(request)
            else:
                identity = await loop.run_in_executor(
                    None, self.identify, request
                )
        except (ServeError, ConfigError, WorkloadError) as exc:
            return response_error("bad_request", str(exc))
        if line:
            if len(self._known_lines) >= KNOWN_LINES:
                self._known_lines.pop(next(iter(self._known_lines)))
            self._known_lines[line] = (request, identity)
        return await self._answer(request, identity, on_loop)

    async def _answer(self, request: JobRequest, identity: Dict,
                      on_loop: bool) -> Dict:
        """Walk an identified request down the ladder from rung 1."""
        loop = asyncio.get_running_loop()
        key = identity["key"]

        # Rung 1: the exact cache.
        if on_loop:
            cached = self.store.get(key)
        else:
            cached = await loop.run_in_executor(None, self.store.get, key)
        if cached is not None:
            self.stats.bump("hits")
            if self.journal.unsettled(key):
                # A crash can land after store.put but before the done
                # record; the hit proves the work is complete, so pay
                # the journal debt now instead of re-executing forever.
                await self._settle(key, "stored")
            return response_ok(key, cached["result"], cached=True)

        # Rung 2: identical job already in flight.
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.stats.bump("deduped")
            return dict(await asyncio.shield(inflight))

        future = loop.create_future()
        self._inflight[key] = future
        try:
            response = await self._admit_and_run(request, identity)
        except BaseException as exc:
            if not future.done():
                # Wake dedupe waiters with the same (unexpected) error
                # instead of leaving them parked forever.
                future.set_exception(exc)
            raise
        finally:
            self._inflight.pop(key, None)
        if not future.done():
            future.set_result(response)
        return response

    async def _admit_and_run(
        self, request: JobRequest, identity: Dict
    ) -> Dict:
        key = identity["key"]
        breaker = self.breakers.breaker_for(
            request.simulator, identity["config_hash"]
        )

        # Rung 3 gatekeepers: priced admission first (a queue shed must
        # not consume the breaker's half-open probe slot), then breaker.
        try:
            cost = self.admission.admit(
                request.simulator, identity["num_instructions"]
            )
        except QueueSaturated as exc:
            self.stats.bump("shed_queue")
            return await self._degrade(request, identity, exc,
                                       journaled=False)
        if not breaker.allow():
            self.admission.release(cost)
            self.stats.bump("shed_breaker")
            shed = CircuitOpen(
                f"circuit open for {request.simulator}/"
                f"{identity['config_hash'][:2]}; exact execution refused "
                f"until a half-open probe succeeds",
                breaker_key=f"{request.simulator}/"
                            f"{identity['config_hash'][:2]}",
            )
            return await self._degrade(request, identity, shed,
                                       journaled=False)

        loop = asyncio.get_running_loop()
        enqueued_at = self._clock()
        await loop.run_in_executor(
            None, self.journal.record_job, key, request.to_dict()
        )
        self._admitted_jobs += 1
        if self.die_at_job and self._admitted_jobs >= self.die_at_job:
            # Deterministic SIGKILL stand-in: die right after admitting
            # — the job is journaled but unsettled, so restart recovery
            # owes it an execution.  No cleanup, exactly like kill -9.
            os._exit(9)
        try:
            deadline = request.deadline_seconds
            if deadline is not None:
                waited = self._clock() - enqueued_at
                if waited >= deadline:
                    raise DeadlineExceeded(
                        f"job waited {waited:.3g}s of its {deadline:.3g}s "
                        f"deadline before execution could start"
                    )
            result = await loop.run_in_executor(
                None, self._runner, request, identity
            )
        except DeadlineExceeded as exc:
            self.stats.bump("deadline_missed")
            breaker.record_failure()
            return await self._degrade(request, identity, exc,
                                       journaled=True)
        except SwiftSimError as exc:
            self.stats.bump("failed")
            breaker.record_failure()
            return await self._degrade(request, identity, exc,
                                       journaled=True)
        finally:
            self.admission.release(cost)

        breaker.record_success()
        self.stats.bump("executed")
        await loop.run_in_executor(
            None, self.store.put, key,
            {"degraded": False, "result": result,
             "trace_hash": identity["trace_hash"],
             "config_hash": identity["config_hash"],
             "simulator": request.simulator},
        )
        await self._settle(key, "stored")
        return response_ok(key, result, cached=False)

    async def _degrade(
        self,
        request: JobRequest,
        identity: Dict,
        cause: SwiftSimError,
        *,
        journaled: bool,
    ) -> Dict:
        """Rungs 4-5: answer approximately, or fail with the cause.

        ``journaled`` says whether a ``job`` record exists for this key
        (i.e. the job was admitted); only then is a ``done`` settlement
        owed.  Degraded results are **never** written to the store —
        that invariant is also enforced by ``ResultStore.put`` itself.
        """
        key = identity["key"]
        kind = getattr(cause, "kind", "failure")
        loop = asyncio.get_running_loop()
        if request.allow_degraded:
            try:
                result = await loop.run_in_executor(
                    None, self._degraded_runner, request, identity
                )
            except SwiftSimError as exc:
                unavailable = DegradationUnavailable(
                    f"exact tier refused ({cause}) and the analytic "
                    f"fallback also failed: {exc}"
                )
                if journaled:
                    await self._settle(key, "failed")
                return response_error("degradation_unavailable",
                                      str(unavailable), key=key)
            self.stats.bump("degraded")
            if journaled:
                await self._settle(key, "degraded")
            return response_ok(key, result, cached=False, degraded=True)
        if journaled:
            status = "shed" if isinstance(cause, LoadShedError) else "failed"
            await self._settle(key, status)
        return response_error(kind, str(cause), key=key)

    async def _settle(self, key: str, status: str) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, self.journal.record_done, key, status
        )
        self._settled_jobs += 1

    # ------------------------------------------------------------------
    # recovery and protocol

    async def recover(self) -> int:
        """Re-execute every admitted-but-unsettled job from the journal;
        one that no longer identifies is settled as ``"failed"``.

        Returns the number of jobs recovered.  Runs before the socket
        opens, so clients never race recovery.
        """
        pending = self.journal.pending()
        for key, request_dict in pending.items():
            request_dict.pop("deadline_seconds", None)  # stale deadline
            answer = await self.submit_request(request_dict)
            if answer.get("kind") == "bad_request":
                # It no longer identifies (a retired simulator, a config
                # now refused), so no restart could run it: settle it.
                await self._settle(key, "failed")
            self.stats.bump("recovered")
        return len(pending)

    async def handle_line(self, line: bytes) -> Dict:
        """Answer one raw request line.

        A submit line this service has identified before goes straight
        to rung 1 (module doc); any other line is decoded and
        dispatched.
        """
        known = self._known_lines.get(line)
        # A draining server refuses submits; handle_request says so.
        if known is not None and not self._draining:
            self.stats.bump("submitted")
            return await self._answer(*known, on_loop=True)
        try:
            payload = json.loads(line.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("payload must be an object")
        except (ValueError, RecursionError) as exc:
            return response_error("bad_request", f"unparsable request: {exc}")
        return await self.handle_request(payload, line)

    async def handle_request(self, payload: Dict, line: bytes = b"") -> Dict:
        """Dispatch one protocol message (already JSON-decoded from
        ``line``, if given)."""
        op = payload.get("op", "submit")
        if op == "ping":
            return {"status": "ok", "pong": True}
        if op == "stats":
            return {
                "status": "ok",
                "stats": self.stats.to_dict(),
                "breakers": self.breakers.snapshot(),
                "queue": {
                    "depth": self.admission.depth,
                    "pending_seconds": self.admission.pending_seconds,
                },
                "store_entries": len(self.store),
            }
        if op == "drain":
            self._draining = True
            while self._inflight:
                await asyncio.gather(
                    *map(asyncio.shield, list(self._inflight.values())),
                    return_exceptions=True,
                )
            self._supervisor.close()
            if self._server is not None:
                self._server.close()
            return {"status": "ok", "drained": True,
                    "settled": self._settled_jobs}
        if op == "submit":
            if self._draining:
                return response_error(
                    "draining", "server is draining; resubmit after restart"
                )
            return await self.submit_request(payload, line)
        return response_error("bad_request", f"unknown op {op!r}")

    async def _handle_connection(self, reader, writer) -> None:
        async def reply(response: Dict) -> None:
            writer.write(
                (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
            )
            await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Longer than LINE_LIMIT: the reader dropped what it
                    # had buffered, and the rest may still be on its
                    # way, so where the next line starts is lost.
                    # Answer, then close.
                    await reply(response_error(
                        "bad_request",
                        f"request line longer than {LINE_LIMIT} bytes",
                    ))
                    break
                if not line:
                    break
                await reply(await self.handle_line(line))
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def serve(self, socket_path: str) -> None:
        """Recover, bind the unix socket, and serve until drained."""
        recovered = await self.recover()
        if recovered:
            # Visible in the server log so operators can see crash debt
            # being paid before the socket opens.
            print(f"serve: recovered {recovered} unsettled job(s) "
                  f"from {self.journal.path}")
        if os.path.exists(socket_path):
            os.unlink(socket_path)  # stale socket from a killed server
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=socket_path, limit=LINE_LIMIT
        )
        try:
            async with self._server:
                await self._server.wait_closed()
        finally:
            self._supervisor.close()
            if os.path.exists(socket_path):
                os.unlink(socket_path)
