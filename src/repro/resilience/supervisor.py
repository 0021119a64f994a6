"""Supervised task execution: the fault-tolerant parallel driver core.

The paper's bulk-evaluation workflow (§IV-B2) keeps a fixed set of
simulation workers busy for hours; a bare ``ProcessPoolExecutor`` lets
one crashed or hung worker unwind the whole campaign.  The
:class:`Supervisor` replaces it with kept worker processes it actually
supervises:

* at most ``workers`` processes, each forked on first need and then
  kept: it runs one attempt after another, each ``(fn, args)`` pickled
  to it over its pipe, and goes back to the idle set after an ``ok``,
  ``error`` or ``corrupt`` outcome;
* per-task state machine (pending → running → done/failed) with a full
  attempt history;
* per-attempt wall-clock timeouts — hung workers are reaped (killed and
  joined) and the task retried;
* retries with exponential backoff + deterministic jitter
  (:class:`~repro.resilience.policy.RetryPolicy`);
* a worker that crashed, timed out, ran out of memory or sent an
  undecodable payload is reaped, and a fresh one forked when next
  needed;
* failures classified into the typed taxonomy in :mod:`repro.errors`
  (:class:`~repro.errors.WorkerCrash`,
  :class:`~repro.errors.TaskTimeout`,
  :class:`~repro.errors.ResourceExhausted`,
  :class:`~repro.errors.CorruptResult`), each carrying task/attempt
  context;
* optional seeded fault injection
  (:class:`~repro.resilience.chaos.ChaosPlan`) so all of the above is
  provable, not aspirational.

Kept workers belong to the supervisor, and to every supervisor
:meth:`Supervisor.with_policy` derives from it: :meth:`Supervisor.close`
stops them, and so does the supervisor's garbage collection.  A worker
also exits on its own when its pipe reaches end-of-file, so the death of
its owner, even by ``SIGKILL``, takes it down; and it closes every
socket it inherited from the fork, so it holds none of a server's
listening socket or client connections.

With ``workers <= 1`` the supervisor runs attempts in-process (no pool
overhead, same retry/backoff/chaos semantics); injected crashes and
true-hangs are then simulated as exceptions since the supervisor cannot
kill its own process.  Real (non-injected) hangs are only reapable in
subprocess mode.
"""

from __future__ import annotations

import copy
import multiprocessing
import multiprocessing.connection
import os
import stat
import threading
import time
import weakref
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    CorruptResult,
    ResourceExhausted,
    TaskFailure,
    TaskTimeout,
    WorkerCrash,
)
from repro.resilience.chaos import (
    CRASH_EXIT_CODE,
    ChaosPlan,
    CorruptedResult,
)
from repro.resilience.policy import RetryPolicy

#: How long (seconds) to wait for a worker to exit (on end-of-file, or
#: after SIGTERM) before escalating to SIGTERM, then SIGKILL.
_REAP_GRACE = 0.5

#: Held while a worker is forked and while an idle set changes hands, so
#: no fork can copy another worker's half-built pipe.  Re-entrant: a
#: collected pool's finalizer may run while this thread holds it.
_POOL_LOCK = threading.RLock()


@dataclass(frozen=True)
class Task:
    """One unit of supervised work.

    ``fn(*args)`` runs in a worker process (or in-process with
    ``workers <= 1``) and must return a picklable result.  ``validate``,
    when given, runs *in the supervisor* on every delivered result and
    raises to reject it (the rejection is classified as a retryable
    :class:`~repro.errors.CorruptResult`).

    ``fn`` and ``args`` are pickled to the worker on every attempt.
    Every attempt runs ``fn(*args)`` whole: a retry after a
    :class:`~repro.errors.TaskTimeout` or
    :class:`~repro.errors.WorkerCrash` starts the work over from the
    beginning, in another worker.
    """

    key: str
    fn: Callable
    args: Tuple = ()
    validate: Optional[Callable[[object], None]] = None


@dataclass(frozen=True)
class AttemptRecord:
    """What happened on one attempt of one task."""

    index: int        #: 1-based attempt number
    outcome: str      #: "ok", "crash", "timeout", "exhausted", "corrupt", "error"
    duration: float   #: wall-clock seconds the attempt consumed
    backoff: float    #: delay scheduled before the *next* attempt (0 if none)
    message: str = ""


@dataclass
class TaskOutcome:
    """Terminal state of one task after supervision."""

    key: str
    result: object = None
    failure: Optional[TaskFailure] = None
    attempts: List[AttemptRecord] = field(default_factory=list)
    #: True when a retry the policy's ``max_attempts`` would have allowed
    #: was suppressed because attempt time + backoff would exceed
    #: ``RetryPolicy.max_total_seconds``.
    retry_cap_hit: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def num_attempts(self) -> int:
        return len(self.attempts)

    @property
    def retried(self) -> bool:
        return len(self.attempts) > 1

    @property
    def total_seconds(self) -> float:
        """Cumulative wall-clock this task consumed: every attempt's
        duration plus every backoff delay scheduled between attempts —
        the quantity ``RetryPolicy.max_total_seconds`` caps."""
        return sum(
            record.duration + record.backoff for record in self.attempts
        )


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket a forked worker inherited but ``keep`` and the
    standard streams: a server's listening socket, its client
    connections, and the other workers' pipes, whose copies here would
    keep those workers from seeing end-of-file when their owner dies."""
    try:
        descriptors = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:
        return  # no descriptor table to read: nothing was inherited
    for fd in descriptors:
        if fd in (0, 1, 2, keep):
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            pass  # the directory listing's own descriptor, now closed


def _worker_main(conn) -> None:
    """A kept worker's life (module-level so it survives both fork and
    spawn start methods): run each ``(fn, args, fault, hang_seconds)``
    the pipe delivers and answer ``(status, payload)``, until the pipe
    reaches end-of-file."""
    _close_inherited_sockets(conn.fileno())
    while True:
        try:
            fn, args, fault, hang_seconds = conn.recv()
        except (EOFError, OSError):
            return  # the owner closed the pipe, or died
        if fault == "crash":
            os._exit(CRASH_EXIT_CODE)
        try:
            if fault == "hang":
                time.sleep(hang_seconds)
            reply = ForkingPickler.dumps(("ok", fn(*args)))
        except MemoryError as exc:
            reply = ForkingPickler.dumps(("exhausted", repr(exc)))
        except Exception as exc:  # noqa: BLE001 — report, keep serving
            reply = ForkingPickler.dumps(
                ("error", f"{type(exc).__name__}: {exc}")
            )
        try:
            conn.send_bytes(reply)
        except OSError:
            return


_FAILURE_CLASSES = {
    "crash": WorkerCrash,
    "timeout": TaskTimeout,
    "exhausted": ResourceExhausted,
    "corrupt": CorruptResult,
    "error": TaskFailure,
}


def classify_failure(outcome: str, message: str, *, task: str,
                     attempt: int, context: str = "") -> TaskFailure:
    """Map an attempt outcome string onto the typed failure taxonomy."""
    cls = _FAILURE_CLASSES.get(outcome, TaskFailure)
    return cls(message, task=task, attempt=attempt, context=context)


@dataclass(eq=False)
class _Worker:
    process: multiprocessing.Process
    conn: object


def _stop(worker: _Worker, force: bool = False) -> None:
    """End one worker and join it: close its pipe (an idle worker exits
    on end-of-file), then SIGTERM and SIGKILL whatever is still alive —
    at once when ``force``, else after a grace period."""
    worker.conn.close()
    process = worker.process
    if not force:
        process.join(_REAP_GRACE)
    if process.is_alive():
        process.terminate()
        process.join(_REAP_GRACE)
        if process.is_alive():
            process.kill()
    process.join()


def _stop_idle(idle: List[_Worker]) -> int:
    """Stop every worker in ``idle`` and empty it; return how many."""
    with _POOL_LOCK:
        stopping = idle[:]
        del idle[:]
    for worker in stopping:
        _stop(worker)
    return len(stopping)


class _Pool:
    """The idle workers one supervisor and its derivations share, and
    the lifetime counts of workers forked and reaped."""

    def __init__(self) -> None:
        self.idle: List[_Worker] = []
        self.spawned = 0
        self.reaped = 0
        weakref.finalize(self, _stop_idle, self.idle)


@dataclass
class _Running:
    task: Task
    attempt: int
    worker: _Worker
    started: float
    deadline: Optional[float]
    fault: Optional[str] = None
    #: Set when the task could not be pickled to its worker.
    unshippable: str = ""


class Supervisor:
    """Runs tasks under a retry policy with optional fault injection."""

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        workers: Optional[int] = None,
        chaos: Optional[ChaosPlan] = None,
        context: str = "",
    ) -> None:
        self.policy = policy if policy is not None else RetryPolicy()
        if workers is None:
            workers = max(1, min(os.cpu_count() or 1, 50))
        self.workers = max(1, workers)
        self.chaos = chaos
        self.context = context
        self._pool = _Pool()

    @property
    def workers_spawned(self) -> int:
        """Workers forked over the pool's lifetime (replacements
        included) — observability for tests and reports."""
        return self._pool.spawned

    @property
    def workers_reaped(self) -> int:
        """Workers stopped over the pool's lifetime."""
        return self._pool.reaped

    # ------------------------------------------------------------------
    # public API

    def with_policy(self, policy: RetryPolicy, context: str) -> "Supervisor":
        """A supervisor with its own policy and context that runs its
        attempts on this one's workers."""
        derived = copy.copy(self)
        derived.policy = policy
        derived.context = context
        return derived

    def close(self) -> None:
        """Stop every idle worker.  A later pooled run forks anew."""
        stopped = _stop_idle(self._pool.idle)
        with _POOL_LOCK:
            self._pool.reaped += stopped

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, tasks: Sequence[Task]) -> Dict[str, TaskOutcome]:
        """Run every task to a terminal state; never raises for task
        failures (inspect the returned outcomes)."""
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            raise TaskFailure("duplicate task keys in submission",
                              task=str(keys), attempt=0)
        if self.workers <= 1:
            return {task.key: self._run_inline(task) for task in tasks}
        return self._run_pooled(tasks)

    # ------------------------------------------------------------------
    # shared bookkeeping

    def _finish_attempt(
        self,
        outcome: TaskOutcome,
        task: Task,
        attempt: int,
        status: str,
        message: str,
        duration: float,
    ) -> Optional[float]:
        """Record one attempt; return the backoff delay if the task will
        be retried, else ``None`` (outcome is then terminal)."""
        if status == "ok":
            outcome.attempts.append(AttemptRecord(
                index=attempt, outcome="ok", duration=duration, backoff=0.0,
            ))
            return None
        failure = classify_failure(
            status, message, task=task.key, attempt=attempt,
            context=self.context,
        )
        retrying = failure.retryable and attempt < self.policy.max_attempts
        backoff = self.policy.backoff(task.key, attempt) if retrying else 0.0
        cap = self.policy.max_total_seconds
        if retrying and cap is not None:
            elapsed = outcome.total_seconds + duration
            if elapsed + backoff >= cap:
                # Retrying would blow through the task's total wall-clock
                # budget — stop here and let the failure stand.
                retrying = False
                backoff = 0.0
                outcome.retry_cap_hit = True
                message = (
                    f"{message} [retry suppressed: {elapsed:.3g}s consumed "
                    f"of {cap:.3g}s total budget]"
                )
                failure = classify_failure(
                    status, message, task=task.key, attempt=attempt,
                    context=self.context,
                )
        outcome.attempts.append(AttemptRecord(
            index=attempt, outcome=status, duration=duration,
            backoff=backoff, message=message,
        ))
        if retrying:
            return backoff
        outcome.failure = failure
        return None

    def _validate(self, task: Task, result: object) -> Tuple[str, str, object]:
        """Supervisor-side result validation (corruption detection)."""
        if isinstance(result, CorruptedResult):
            return "corrupt", "result failed integrity check (marker)", None
        if task.validate is not None:
            try:
                task.validate(result)
            except Exception as exc:  # noqa: BLE001 — validator says no
                return "corrupt", f"result failed validation: {exc}", None
        return "ok", "", result

    # ------------------------------------------------------------------
    # inline (workers <= 1) execution

    def _run_inline(self, task: Task) -> TaskOutcome:
        outcome = TaskOutcome(key=task.key)
        attempt = 0
        while outcome.failure is None and outcome.result is None:
            attempt += 1
            started = time.perf_counter()
            status, message, result = self._attempt_inline(task, attempt)
            if status == "ok":
                status, message, result = self._validate(task, result)
            duration = time.perf_counter() - started
            backoff = self._finish_attempt(
                outcome, task, attempt, status, message, duration
            )
            if status == "ok":
                outcome.result = result
                break
            if backoff is None:
                break
            if backoff > 0:
                time.sleep(backoff)
        return outcome

    def _attempt_inline(self, task: Task, attempt: int):
        action = (
            self.chaos.decide(task.key, attempt)
            if self.chaos is not None else None
        )
        if action == "crash":
            return "crash", "injected worker crash (inline)", None
        if action == "hang":
            timeout = self.policy.timeout_seconds
            if timeout is not None and self.chaos.hang_seconds >= timeout:
                # A true hang: in-process we cannot kill ourselves, so
                # simulate the reap the pooled supervisor would perform.
                return (
                    "timeout",
                    f"injected hang exceeded {timeout:.3g}s budget (inline)",
                    None,
                )
            time.sleep(self.chaos.hang_seconds)
        try:
            result = task.fn(*task.args)
        except MemoryError as exc:
            return "exhausted", repr(exc), None
        except Exception as exc:  # noqa: BLE001
            return "error", f"{type(exc).__name__}: {exc}", None
        if action == "corrupt":
            result = self.chaos.corrupt(result)
        return "ok", "", result

    # ------------------------------------------------------------------
    # pooled (subprocess) execution

    def _acquire(self) -> _Worker:
        """An idle worker, else a newly forked one."""
        with _POOL_LOCK:
            if self._pool.idle:
                return self._pool.idle.pop()
            parent_conn, child_conn = multiprocessing.Pipe()
            process = multiprocessing.Process(
                target=_worker_main, args=(child_conn,), daemon=True,
            )
            process.start()
            child_conn.close()
            self._pool.spawned += 1
        return _Worker(process=process, conn=parent_conn)

    def _release(self, worker: _Worker) -> None:
        """Return a healthy worker to the idle set, or stop it when the
        set already holds ``workers``."""
        with _POOL_LOCK:
            if len(self._pool.idle) < self.workers:
                self._pool.idle.append(worker)
                return
        self._reap(worker)

    def _reap(self, worker: _Worker, force: bool = False) -> None:
        """Stop (and if ``force``, kill) a finished or condemned worker."""
        _stop(worker, force)
        with _POOL_LOCK:
            self._pool.reaped += 1

    def _start(self, task: Task, attempt: int) -> _Running:
        worker = self._acquire()
        started = time.monotonic()
        timeout = self.policy.timeout_seconds
        fault = (
            self.chaos.decide(task.key, attempt)
            if self.chaos is not None else None
        )
        running = _Running(
            task=task, attempt=attempt, worker=worker, started=started,
            deadline=None if timeout is None else started + timeout,
            fault=fault,
        )
        hang_seconds = self.chaos.hang_seconds if fault == "hang" else 0.0
        try:
            worker.conn.send((task.fn, task.args, fault, hang_seconds))
        except OSError:
            pass  # the worker died idle: the poll sees its end-of-file
        except Exception as exc:  # noqa: BLE001 — fn or args do not pickle
            running.unshippable = (
                f"cannot ship the task to a worker: "
                f"{type(exc).__name__}: {exc}"
            )
        return running

    def _poll_worker(self, running: _Running):
        """Inspect one running attempt; return (status, message, result)
        or ``None`` if it is still in flight."""
        worker = running.worker
        if running.unshippable:
            self._release(worker)
            return "error", running.unshippable, None
        # Message first: a worker may send its result and die before we
        # look at liveness -- or between the two looks, so a dead worker's
        # pipe is polled once more before its exit counts as a crash.
        # Liveness is the exit sentinel, which turns readable as the
        # worker's descriptors close: ``is_alive()`` stays true until the
        # exit completes, and looping on a readable sentinel until then
        # would spin against the dying worker for its CPU.
        ready = worker.conn.poll()
        alive = ready or not multiprocessing.connection.wait(
            [worker.process.sentinel], 0
        )
        if not alive:
            ready = worker.conn.poll()
        if ready:
            try:
                status, payload = worker.conn.recv()
            except (EOFError, OSError):
                self._reap(worker)
                return "crash", self._death(worker), None
            except Exception as exc:  # unpicklable / torn payload
                self._reap(worker, force=True)
                return "corrupt", f"undecodable worker payload: {exc}", None
            if status == "exhausted":
                self._reap(worker)
            else:
                self._release(worker)
            if status == "ok":
                if running.fault == "corrupt":
                    payload = self.chaos.corrupt(payload)
                return "ok", "", payload
            return status, str(payload), None
        if not alive:
            self._reap(worker)
            return "crash", self._death(worker), None
        if (running.deadline is not None
                and time.monotonic() > running.deadline):
            self._reap(worker, force=True)
            budget = self.policy.timeout_seconds
            return (
                "timeout",
                f"exceeded {budget:.3g}s wall-clock budget; worker reaped",
                None,
            )
        return None

    @staticmethod
    def _death(worker: _Worker) -> str:
        exitcode = worker.process.exitcode
        if exitcode == CRASH_EXIT_CODE:
            return "injected chaos crash"
        return f"worker died with exit code {exitcode}"

    def _wait_for_event(
        self,
        ready: List[Tuple[float, int, Task, int]],
        running: List[_Running],
    ) -> None:
        """Block until some attempt can have changed state: a worker's
        pipe turned readable (result or EOF) or its process exited, the
        nearest per-attempt deadline passed, or — with a worker slot
        free — the nearest backed-off retry came due."""
        wake_at = [
            slot.deadline for slot in running if slot.deadline is not None
        ]
        if len(running) < self.workers:
            wake_at.extend(item[0] for item in ready)
        timeout = (
            max(0.0, min(wake_at) - time.monotonic()) if wake_at else None
        )
        if running:
            multiprocessing.connection.wait(
                [waitable for slot in running
                 for waitable in (slot.worker.conn,
                                  slot.worker.process.sentinel)],
                timeout,
            )
        elif timeout:
            time.sleep(timeout)

    def _run_pooled(self, tasks: Sequence[Task]) -> Dict[str, TaskOutcome]:
        outcomes = {task.key: TaskOutcome(key=task.key) for task in tasks}
        #: (ready_at, submission_index, task, attempt)
        ready: List[Tuple[float, int, Task, int]] = [
            (0.0, index, task, 1) for index, task in enumerate(tasks)
        ]
        running: List[_Running] = []
        while ready or running:
            now = time.monotonic()
            # Launch everything whose backoff has elapsed, oldest first.
            ready.sort(key=lambda item: (item[0], item[1]))
            while ready and len(running) < self.workers:
                ready_at, index, task, attempt = ready[0]
                if ready_at > now:
                    break
                ready.pop(0)
                running.append(self._start(task, attempt))
            progressed = False
            for slot in list(running):
                polled = self._poll_worker(slot)
                if polled is None:
                    continue
                progressed = True
                running.remove(slot)
                status, message, result = polled
                if status == "ok":
                    status, message, result = self._validate(
                        slot.task, result
                    )
                duration = time.monotonic() - slot.started
                outcome = outcomes[slot.task.key]
                backoff = self._finish_attempt(
                    outcome, slot.task, slot.attempt, status, message,
                    duration,
                )
                if status == "ok":
                    outcome.result = result
                elif backoff is not None:
                    ready.append((
                        time.monotonic() + backoff,
                        len(tasks) + len(outcome.attempts),
                        slot.task,
                        slot.attempt + 1,
                    ))
            if not progressed:
                self._wait_for_event(ready, running)
        return outcomes


def raise_first_failure(outcomes: Dict[str, TaskOutcome]) -> None:
    """Raise the first task failure (in key order), if any."""
    for key in sorted(outcomes):
        if outcomes[key].failure is not None:
            raise outcomes[key].failure
