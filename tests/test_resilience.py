"""Tests for the fault-tolerant sweep execution subsystem
(`repro.resilience`): retry policy, chaos injection, the supervisor,
the run journal, and their wiring into the parallel driver, the
evaluation harness, and the CLI."""

import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import (
    ConfigError,
    CorruptResult,
    ResourceExhausted,
    SimulationError,
    TaskFailure,
    TaskTimeout,
    WorkerCrash,
    WorkloadError,
)
from repro.eval.harness import AppEvaluation, EvaluationHarness, SuiteEvaluation
from repro.eval.report import render_suite
from repro.resilience import (
    ChaosPlan,
    CorruptedResult,
    NO_RETRY,
    RetryPolicy,
    RunJournal,
    Supervisor,
    Task,
    result_from_dict,
    result_to_dict,
)
from repro.simulators.parallel import (
    simulate_apps_parallel,
    simulate_apps_supervised,
    validate_picklable,
)
from repro.simulators.swift_basic import SwiftSimBasic
from repro.simulators.swift_memory import SwiftSimMemory
from repro.tracegen.suites import make_app

from conftest import make_tiny_gpu


# ----------------------------------------------------------------------
# cheap module-level task functions (picklable, fork-safe)

def _double(value):
    return value * 2


def _nap_then_double(value, seconds=0.05):
    time.sleep(seconds)
    return value * 2


def _sleep_forever():
    time.sleep(60.0)
    return "woke"


def _ignore_sigterm_forever():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(60.0)


def _raise_memory_error():
    raise MemoryError("simulated OOM")


def _raise_value_error():
    raise ValueError("deterministic bug")


class ScriptedChaos(ChaosPlan):
    """Chaos plan with an explicit (task, attempt) -> action script,
    for tests that need precise fault placement."""

    def __new__(cls, script, hang_seconds=0.0):
        plan = super().__new__(cls)
        ChaosPlan.__init__(plan, seed=0, crash_rate=0.0, hang_rate=0.0,
                           corrupt_rate=0.0, hang_seconds=hang_seconds)
        object.__setattr__(plan, "script", dict(script))
        return plan

    def __init__(self, *args, **kwargs):  # state set in __new__
        pass

    @property
    def active(self):
        return True

    def decide(self, task, attempt):
        return self.script.get((task, attempt))


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigError):
            RetryPolicy(timeout_seconds=0)

    def test_exponential_schedule_without_jitter(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.01,
                             backoff_factor=2.0, max_delay=1.0, jitter=0.0)
        assert policy.schedule("app") == pytest.approx([0.01, 0.02, 0.04])

    def test_max_delay_caps_backoff(self):
        policy = RetryPolicy(max_attempts=6, base_delay=1.0,
                             backoff_factor=10.0, max_delay=2.0, jitter=0.0)
        assert policy.schedule("app") == pytest.approx([1.0, 2.0, 2.0, 2.0, 2.0])

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1,
                             backoff_factor=2.0, max_delay=10.0, jitter=0.25)
        first = policy.schedule("bfs")
        second = policy.schedule("bfs")
        assert first == second  # derived from a stable hash, not time
        assert first != policy.schedule("gemm")  # but per-task distinct
        for raw, jittered in zip([0.1, 0.2, 0.4, 0.8], first):
            assert raw <= jittered <= raw * 1.25


class TestChaosPlan:
    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            ChaosPlan(crash_rate=1.5)
        with pytest.raises(ConfigError):
            ChaosPlan(crash_rate=0.6, hang_rate=0.5)

    def test_decisions_deterministic(self):
        plan = ChaosPlan(seed=7, crash_rate=0.3, hang_rate=0.2,
                         corrupt_rate=0.1)
        for task in ("bfs", "gemm", "sm"):
            assert plan.faults_for(task, 8) == plan.faults_for(task, 8)
        other = ChaosPlan(seed=8, crash_rate=0.3, hang_rate=0.2,
                          corrupt_rate=0.1)
        tasks = [f"app{i}" for i in range(32)]
        assert [plan.faults_for(t, 4) for t in tasks] != \
            [other.faults_for(t, 4) for t in tasks]

    def test_inactive_plan_never_injects(self):
        plan = ChaosPlan(seed=1)
        assert plan.faults_for("bfs", 16) == [None] * 16

    def test_corrupt_simulation_result_is_detectable(self):
        result = SwiftSimBasic(make_tiny_gpu()).simulate(
            make_app("sm", scale="tiny"), gather_metrics=False
        )
        mangled = ChaosPlan(seed=0).corrupt(result)
        assert mangled.total_cycles < 0
        assert result.total_cycles > 0  # original untouched
        assert isinstance(ChaosPlan(seed=0).corrupt(42), CorruptedResult)


class TestSupervisorInline:
    """workers=1: in-process attempts, same retry semantics."""

    def test_plain_success(self):
        outcomes = Supervisor(workers=1).run(
            [Task("a", _double, (21,)), Task("b", _double, (5,))]
        )
        assert outcomes["a"].result == 42 and outcomes["b"].result == 10
        assert all(o.ok and o.num_attempts == 1 for o in outcomes.values())

    def test_duplicate_keys_rejected(self):
        with pytest.raises(TaskFailure):
            Supervisor(workers=1).run(
                [Task("a", _double, (1,)), Task("a", _double, (2,))]
            )

    def test_injected_crash_retried_to_success(self):
        chaos = ScriptedChaos({("a", 1): "crash", ("a", 2): "crash"})
        policy = RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0)
        outcome = Supervisor(policy, workers=1, chaos=chaos).run(
            [Task("a", _double, (3,))]
        )["a"]
        assert outcome.ok and outcome.result == 6
        assert [r.outcome for r in outcome.attempts] == ["crash", "crash", "ok"]

    def test_retries_exhausted_gives_typed_failure(self):
        chaos = ScriptedChaos({("a", n): "crash" for n in range(1, 10)})
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        outcome = Supervisor(policy, workers=1, chaos=chaos,
                             context="unit").run([Task("a", _double, (1,))])["a"]
        assert not outcome.ok
        assert isinstance(outcome.failure, WorkerCrash)
        assert outcome.failure.task == "a"
        assert outcome.failure.attempt == 3
        assert "unit" in str(outcome.failure)
        assert outcome.num_attempts == 3

    def test_backoff_schedule_recorded_on_attempts(self):
        chaos = ScriptedChaos({("a", 1): "crash", ("a", 2): "crash"})
        policy = RetryPolicy(max_attempts=3, base_delay=0.001,
                             backoff_factor=2.0, max_delay=1.0, jitter=0.0)
        outcome = Supervisor(policy, workers=1, chaos=chaos).run(
            [Task("a", _double, (1,))]
        )["a"]
        assert [r.backoff for r in outcome.attempts] == \
            pytest.approx([0.001, 0.002, 0.0])

    def test_true_hang_simulated_as_timeout(self):
        chaos = ScriptedChaos({("a", 1): "hang"}, hang_seconds=99.0)
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0,
                             timeout_seconds=0.5)
        outcome = Supervisor(policy, workers=1, chaos=chaos).run(
            [Task("a", _double, (4,))]
        )["a"]
        assert outcome.ok and outcome.result == 8
        assert [r.outcome for r in outcome.attempts] == ["timeout", "ok"]

    def test_short_hang_is_a_delay_not_a_timeout(self):
        chaos = ScriptedChaos({("a", 1): "hang"}, hang_seconds=0.01)
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0,
                             timeout_seconds=5.0)
        outcome = Supervisor(policy, workers=1, chaos=chaos).run(
            [Task("a", _double, (4,))]
        )["a"]
        assert outcome.ok and outcome.num_attempts == 1

    def test_corruption_detected_and_retried(self):
        chaos = ScriptedChaos({("a", 1): "corrupt"})
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        outcome = Supervisor(policy, workers=1, chaos=chaos).run(
            [Task("a", _double, (9,))]
        )["a"]
        assert outcome.ok and outcome.result == 18
        assert outcome.attempts[0].outcome == "corrupt"

    def test_validator_rejection_classified_corrupt(self):
        def reject_odd(result):
            if result % 2:
                raise ValueError(f"odd result {result}")

        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        outcome = Supervisor(policy, workers=1).run(
            [Task("a", _double, (1.5,), validate=reject_odd)]
        )["a"]
        assert isinstance(outcome.failure, CorruptResult)

    def test_memory_error_classified_exhausted(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        outcome = Supervisor(policy, workers=1).run(
            [Task("a", _raise_memory_error)]
        )["a"]
        assert isinstance(outcome.failure, ResourceExhausted)
        assert outcome.num_attempts == 2  # OOM is retryable

    def test_deterministic_bug_not_retried(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0)
        outcome = Supervisor(policy, workers=1).run(
            [Task("a", _raise_value_error)]
        )["a"]
        assert not outcome.ok
        assert outcome.num_attempts == 1  # fn bugs are not infrastructure
        assert "ValueError" in str(outcome.failure)


class TestSupervisorPooled:
    """workers>=2: real processes, real crashes, real reaping."""

    def test_real_injected_crash_and_respawn(self):
        chaos = ScriptedChaos({("a", 1): "crash"})
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        supervisor = Supervisor(policy, workers=2, chaos=chaos)
        outcomes = supervisor.run(
            [Task("a", _double, (7,)), Task("b", _double, (8,))]
        )
        assert outcomes["a"].result == 14 and outcomes["b"].result == 16
        assert [r.outcome for r in outcomes["a"].attempts] == ["crash", "ok"]
        # the dead worker was reaped; the retry ran on a kept worker or
        # a fresh one, never on more than workers + one per crash
        assert supervisor.workers_reaped == 1
        assert 2 <= supervisor.workers_spawned <= 3
        supervisor.close()
        assert supervisor.workers_reaped == supervisor.workers_spawned

    def test_hung_worker_reaped_on_timeout(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0,
                             timeout_seconds=0.3)
        outcome = Supervisor(policy, workers=2).run(
            [Task("a", _sleep_forever)]
        )["a"]
        assert isinstance(outcome.failure, TaskTimeout)
        assert outcome.num_attempts == 2
        assert all(r.outcome == "timeout" for r in outcome.attempts)

    def test_sigterm_ignoring_worker_is_killed(self):
        """``terminate()`` sends SIGTERM, which a wedged worker can
        ignore; the reap escalates to SIGKILL so no worker outlives its
        task's timeout."""
        reaped = []

        class Recording(Supervisor):
            def _reap(self, running, force=False):
                super()._reap(running, force)
                reaped.append(running.process)

        policy = RetryPolicy(max_attempts=1, timeout_seconds=1.0)
        supervisor = Recording(policy, workers=2)
        outcome = supervisor.run([Task("deaf", _ignore_sigterm_forever)])["deaf"]
        assert isinstance(outcome.failure, TaskTimeout)
        assert supervisor.workers_reaped == 1
        (process,) = reaped
        assert not process.is_alive()
        assert process.exitcode == -signal.SIGKILL

    def test_result_sent_just_before_exit_is_not_a_crash(self):
        """A worker that sends and exits between the supervisor's pipe
        poll and its liveness check used to be declared dead with exit
        code 0 (about one no-op task in 60; retries masked it)."""
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        attempts = []
        for __ in range(300):
            outcome = Supervisor(policy, workers=2).run([Task("noop", int)])["noop"]
            assert outcome.result == 0
            attempts.extend(outcome.attempts)
        assert [r.outcome for r in attempts if r.outcome == "crash"] == []
        assert len(attempts) == 300

    def test_waits_on_its_workers_not_on_a_timer(self, monkeypatch):
        """A pooled run blocks on each running attempt's pipe and exit
        sentinel, bounded by the nearest attempt deadline; the one timed
        sleep left is a backed-off retry with nothing running."""
        waits, sleeps = [], []
        real_wait, real_sleep = multiprocessing.connection.wait, time.sleep

        def wait(waitables, timeout=None):
            if len(waitables) > 1:  # Connection.poll() waits on itself
                waits.append((len(waitables), timeout))
            return real_wait(waitables, timeout)

        def sleep(seconds):
            sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(multiprocessing.connection, "wait", wait)
        monkeypatch.setattr(time, "sleep", sleep)

        outcomes = Supervisor(NO_RETRY, workers=2).run(
            [Task("a", _nap_then_double, (1,)), Task("b", _nap_then_double, (2,))]
        )
        assert outcomes["a"].result == 2 and outcomes["b"].result == 4
        assert sleeps == []
        assert waits and all(timeout is None for __, timeout in waits)
        assert {count for count, __ in waits} <= {2, 4}  # pipe + sentinel each

        del waits[:]
        policy = RetryPolicy(max_attempts=2, base_delay=0.05, jitter=0.0,
                             timeout_seconds=30.0)
        outcome = Supervisor(
            policy, workers=2, chaos=ScriptedChaos({("a", 1): "crash"})
        ).run([Task("a", _double, (7,))])["a"]
        assert [r.outcome for r in outcome.attempts] == ["crash", "ok"]
        assert outcome.attempts[0].backoff == pytest.approx(0.05)
        assert all(0.0 <= timeout <= 30.0 for __, timeout in waits)
        assert len(sleeps) == 1 and 0.0 < sleeps[0] <= 0.05

    def test_worker_exception_reported_not_fatal(self):
        outcomes = Supervisor(NO_RETRY, workers=2).run(
            [Task("a", _raise_value_error), Task("b", _double, (2,))]
        )
        assert "ValueError" in str(outcomes["a"].failure)
        assert outcomes["b"].result == 4  # sibling task unharmed


class TestKeptWorkers:
    """workers>=2 forks at most ``workers`` processes, keeps them across
    attempts, and replaces one only when a crash or timeout killed it."""

    def test_healthy_tasks_fork_at_most_workers(self):
        supervisor = Supervisor(NO_RETRY, workers=2)
        outcomes = supervisor.run(
            [Task(f"t{n}", _double, (n,)) for n in range(8)]
        )
        assert [outcomes[f"t{n}"].result for n in range(8)] == \
            [2 * n for n in range(8)]
        assert supervisor.workers_spawned <= 2
        assert supervisor.workers_reaped == 0
        supervisor.close()
        assert supervisor.workers_reaped == supervisor.workers_spawned

    def test_each_crash_costs_exactly_one_fork(self):
        """t1 holds the other worker until long after t0's crash is seen,
        so the tasks behind t0 need a replacement: exactly one."""
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        supervisor = Supervisor(
            policy, workers=2, chaos=ScriptedChaos({("t0", 1): "crash"})
        )
        outcomes = supervisor.run(
            [Task("t0", _double, (0,)), Task("t1", _nap_then_double, (1, 1.0))]
            + [Task(f"t{n}", _double, (n,)) for n in range(2, 8)]
        )
        assert all(outcome.ok for outcome in outcomes.values())
        assert [r.outcome for r in outcomes["t0"].attempts] == ["crash", "ok"]
        assert supervisor.workers_spawned == 2 + 1
        assert supervisor.workers_reaped == 1
        supervisor.close()

    def test_each_timeout_costs_one_reap_and_at_most_one_fork(self):
        """A retry may reuse a worker freed meanwhile, so only the first
        retry (the other worker still hangs) must fork."""
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0,
                             timeout_seconds=0.5)
        chaos = ScriptedChaos({("a", 1): "hang", ("b", 1): "hang"},
                              hang_seconds=99.0)
        supervisor = Supervisor(policy, workers=2, chaos=chaos)
        outcomes = supervisor.run(
            [Task("a", _double, (1,)), Task("b", _double, (2,))]
        )
        for outcome in outcomes.values():
            assert [r.outcome for r in outcome.attempts] == ["timeout", "ok"]
        assert supervisor.workers_reaped == 2
        assert 3 <= supervisor.workers_spawned <= 2 + 2
        supervisor.close()

    def test_error_and_corrupt_outcomes_keep_the_worker(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        supervisor = Supervisor(
            policy, workers=2, chaos=ScriptedChaos({("c", 1): "corrupt"})
        )
        outcomes = supervisor.run(
            [Task("e", _raise_value_error), Task("c", _double, (3,))]
        )
        assert "ValueError" in str(outcomes["e"].failure)
        assert [r.outcome for r in outcomes["c"].attempts] == \
            ["corrupt", "ok"]
        assert supervisor.workers_reaped == 0
        supervisor.close()

    def test_concurrent_runs_share_the_kept_workers(self):
        """Derived supervisors on several threads (the server's executor)
        never hand one worker two attempts at once: every answer is the
        one its own task asked for."""
        supervisor = Supervisor(NO_RETRY, workers=2)

        def client(n):
            derived = supervisor.with_policy(NO_RETRY, f"client {n}")
            return [
                derived.run([Task(f"{n}.{i}", _double, (100 * n + i,))])
                [f"{n}.{i}"].result
                for i in range(10)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as pool:
                answers = list(pool.map(client, range(6), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert answers == [[2 * (100 * n + i) for i in range(10)]
                           for n in range(6)]
        supervisor.close()
        assert supervisor.workers_reaped == supervisor.workers_spawned

    def test_unpicklable_task_is_a_typed_error(self):
        supervisor = Supervisor(NO_RETRY, workers=2)
        outcomes = supervisor.run([
            Task("lambda", lambda: 1), Task("ok", _double, (4,)),
        ])
        assert "cannot ship the task" in str(outcomes["lambda"].failure)
        assert outcomes["ok"].result == 8
        supervisor.close()

    def test_simulate_apps_parallel_forks_workers_not_tasks(
            self, tiny_gpu, monkeypatch):
        apps = [make_app(name, scale="tiny")
                for name in ("bfs", "gemm", "sm", "nw")]
        serial = simulate_apps_parallel(SwiftSimBasic(tiny_gpu), apps,
                                        workers=1)
        starts = _count_process_starts(monkeypatch)
        pooled = simulate_apps_parallel(SwiftSimBasic(tiny_gpu), apps,
                                        workers=2)
        assert len(starts) == 2
        assert not any(process.is_alive() for process in starts)
        for app in apps:
            assert pooled[app.name].total_cycles == \
                serial[app.name].total_cycles


class TestWorkerLifetime:
    """No kept worker outlives its owner."""

    def test_close_stops_the_kept_workers(self):
        before = set(multiprocessing.active_children())
        supervisor = Supervisor(NO_RETRY, workers=2)
        supervisor.run([Task("a", _nap_then_double, (1,)),
                        Task("b", _nap_then_double, (2,))])
        kept = set(multiprocessing.active_children()) - before
        assert len(kept) == 2
        supervisor.close()
        assert not any(process.is_alive() for process in kept)

    def test_a_collected_one_shot_supervisor_stops_its_workers(
            self, monkeypatch):
        before = set(multiprocessing.active_children())
        starts = _count_process_starts(monkeypatch)
        Supervisor(NO_RETRY, workers=2).run([Task("a", _double, (1,))])
        assert len(starts) == 1
        assert not starts[0].is_alive()
        assert set(multiprocessing.active_children()) <= before


def _count_process_starts(monkeypatch):
    """Record every process started from here on."""
    starts = []
    real_start = multiprocessing.Process.start

    def start(process):
        starts.append(process)
        real_start(process)

    monkeypatch.setattr(multiprocessing.Process, "start", start)
    return starts


#: The acceptance-criteria chaos matrix: crash-only, hang-only, mixed
#: (30% crashes + 10% hangs, the ISSUE's stated mix), all seeded.
CHAOS_MATRIX = [
    pytest.param(ChaosPlan(seed=11, crash_rate=0.5), id="crash-only"),
    pytest.param(
        ChaosPlan(seed=12, hang_rate=0.5, hang_seconds=99.0), id="hang-only"
    ),
    pytest.param(
        ChaosPlan(seed=13, crash_rate=0.30, hang_rate=0.10,
                  corrupt_rate=0.05, hang_seconds=99.0),
        id="mixed",
    ),
]


class TestChaosConvergence:
    """A sweep under injection must equal a clean serial run, with the
    retry counts the seeded plan predicts."""

    APPS = ["bfs", "gemm", "sm"]

    @pytest.mark.parametrize("chaos", CHAOS_MATRIX)
    def test_sweep_converges_bit_identically(self, tiny_gpu, chaos):
        apps = [make_app(name, scale="tiny") for name in self.APPS]
        clean = simulate_apps_parallel(SwiftSimBasic(tiny_gpu), apps, workers=1)
        policy = RetryPolicy(max_attempts=10, base_delay=0.0, jitter=0.0,
                             timeout_seconds=30.0)
        outcomes = simulate_apps_supervised(
            SwiftSimBasic(tiny_gpu), apps, workers=1,
            retry_policy=policy, chaos=chaos,
        )
        for app in apps:
            outcome = outcomes[app.name]
            assert outcome.ok, outcome.failure
            # retry count is exactly what the seeded plan dictates: the
            # first attempt the plan leaves un-faulted succeeds
            # (corruption faults the result, so it counts as a failure).
            predicted = next(
                n for n, fault in enumerate(
                    chaos.faults_for(app.name, policy.max_attempts), start=1
                )
                if fault is None or fault == "hang" and chaos.hang_seconds < (policy.timeout_seconds or 1e9)
            )
            assert outcome.num_attempts == predicted
            result, expected = outcome.result, clean[app.name]
            assert result.total_cycles == expected.total_cycles
            assert [
                (k.name, k.start_cycle, k.end_cycle, k.instructions)
                for k in result.kernels
            ] == [
                (k.name, k.start_cycle, k.end_cycle, k.instructions)
                for k in expected.kernels
            ]

    def test_backoff_schedule_matches_policy(self, tiny_gpu):
        chaos = ChaosPlan(seed=11, crash_rate=0.5)
        policy = RetryPolicy(max_attempts=10, base_delay=0.001,
                             backoff_factor=2.0, max_delay=0.01, jitter=0.1,
                             seed=3)
        apps = [make_app(name, scale="tiny") for name in self.APPS]
        outcomes = simulate_apps_supervised(
            SwiftSimBasic(tiny_gpu), apps, workers=1,
            retry_policy=policy, chaos=chaos,
        )
        for name, outcome in outcomes.items():
            for record in outcome.attempts:
                if record.outcome != "ok" and record.backoff:
                    assert record.backoff == pytest.approx(
                        policy.backoff(name, record.index)
                    )

    def test_pooled_chaos_converges(self, tiny_gpu):
        """Subprocess leg: real os._exit crashes inside sim workers."""
        apps = [make_app(name, scale="tiny") for name in self.APPS]
        clean = simulate_apps_parallel(SwiftSimBasic(tiny_gpu), apps, workers=1)
        chaos = ChaosPlan(seed=13, crash_rate=0.30, corrupt_rate=0.10)
        policy = RetryPolicy(max_attempts=10, base_delay=0.0, jitter=0.0,
                             timeout_seconds=60.0)
        chaotic = simulate_apps_parallel(
            SwiftSimBasic(tiny_gpu), apps, workers=2,
            retry_policy=policy, chaos=chaos,
        )
        for name in clean:
            assert chaotic[name].total_cycles == clean[name].total_cycles


class TestPicklingPrevalidation:
    def test_unpicklable_field_named_before_pool_launch(self, tiny_gpu):
        """The driver pickles the whole simulator, so a poisoned field
        fails the pre-flight with the simulator named."""
        simulator = SwiftSimBasic(tiny_gpu)
        simulator.config = lambda: None  # unpicklable
        with pytest.raises(SimulationError, match="simulator 'swift-basic'"):
            validate_picklable(simulator, [])

    def test_unpicklable_app_named(self, tiny_gpu):
        app = make_app("sm", scale="tiny")
        app.kernels.append(lambda: None)  # poison the trace
        with pytest.raises(SimulationError, match="app 'sm' trace"):
            validate_picklable(SwiftSimBasic(tiny_gpu), [app])

    def test_clean_inputs_pass(self, tiny_gpu):
        validate_picklable(
            SwiftSimBasic(tiny_gpu), [make_app("sm", scale="tiny")]
        )


class TestRunJournal:
    def _result(self, gpu, app="sm"):
        return SwiftSimBasic(gpu).simulate(
            make_app(app, scale="tiny"), gather_metrics=False
        )

    def test_roundtrip(self, tiny_gpu, tmp_path):
        path = str(tmp_path / "run.journal")
        result = self._result(tiny_gpu)
        with RunJournal.create(path, gpu_name=tiny_gpu.name, scale="tiny") as journal:
            journal.record(result, attempts=3)
        loaded = RunJournal.load(path)
        assert len(loaded) == 1
        assert loaded.has("sm", tiny_gpu.name, "swift-basic")
        assert loaded.attempts("sm", tiny_gpu.name, "swift-basic") == 3
        restored = loaded.get("sm", tiny_gpu.name, "swift-basic")
        assert restored.total_cycles == result.total_cycles
        assert [k.name for k in restored.kernels] == \
            [k.name for k in result.kernels]
        assert restored.metrics is None

    def test_result_serialization_roundtrip(self, tiny_gpu):
        result = self._result(tiny_gpu)
        clone = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert clone.total_cycles == result.total_cycles
        assert len(clone.kernels) == len(result.kernels)

    def test_record_is_idempotent(self, tiny_gpu, tmp_path):
        path = str(tmp_path / "run.journal")
        result = self._result(tiny_gpu)
        with RunJournal.create(path) as journal:
            journal.record(result)
            journal.record(result)
        assert len(RunJournal.load(path)) == 1

    def test_torn_trailing_line_tolerated(self, tiny_gpu, tmp_path):
        path = str(tmp_path / "run.journal")
        with RunJournal.create(path) as journal:
            journal.record(self._result(tiny_gpu))
        with open(path, "a") as handle:
            handle.write('{"kind": "result", "resu')  # killed mid-write
        assert len(RunJournal.load(path)) == 1

    def test_midfile_corruption_raises(self, tmp_path, tiny_gpu):
        path = str(tmp_path / "run.journal")
        with RunJournal.create(path) as journal:
            journal.record(self._result(tiny_gpu))
        lines = open(path).read().splitlines()
        lines.insert(1, "garbage not json")
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(SimulationError, match="corrupt"):
            RunJournal.load(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.journal"
        path.write_text('{"kind": "result", "result": {}}\n')
        with pytest.raises(SimulationError, match="header"):
            RunJournal.load(str(path))

    def test_interrupted_sweep_resumes_bit_identically(self, tiny_gpu, tmp_path):
        """Kill a sweep mid-journal (simulated by truncation), resume
        from the journal, and demand the clean run's exact results."""
        apps = [make_app(name, scale="tiny") for name in ("bfs", "gemm", "sm")]
        path = str(tmp_path / "sweep.journal")
        clean = simulate_apps_parallel(SwiftSimBasic(tiny_gpu), apps, workers=1)
        with RunJournal.create(path, gpu_name=tiny_gpu.name) as journal:
            simulate_apps_parallel(
                SwiftSimBasic(tiny_gpu), apps, workers=1, journal=journal
            )
        # "kill" it: keep header + first record and a torn partial line
        lines = open(path).read().splitlines()
        open(path, "w").write("\n".join(lines[:2]) + "\n" + lines[2][:37])
        journal = RunJournal.load(path)
        assert len(journal) == 1
        resumed = simulate_apps_parallel(
            SwiftSimBasic(tiny_gpu), apps, workers=1, journal=journal
        )
        journal.close()
        for name in clean:
            assert resumed[name].total_cycles == clean[name].total_cycles
            assert [
                (k.name, k.start_cycle, k.end_cycle)
                for k in resumed[name].kernels
            ] == [
                (k.name, k.start_cycle, k.end_cycle)
                for k in clean[name].kernels
            ]
        # and the journal now holds the full sweep for the *next* resume
        assert len(RunJournal.load(path)) == 3

    def test_journaled_triples_are_not_resimulated(self, tiny_gpu, tmp_path):
        path = str(tmp_path / "sweep.journal")
        apps = [make_app("sm", scale="tiny")]
        with RunJournal.create(path) as journal:
            simulate_apps_parallel(
                SwiftSimBasic(tiny_gpu), apps, workers=1, journal=journal
            )
        journal = RunJournal.load(path)
        outcomes = simulate_apps_supervised(
            SwiftSimBasic(tiny_gpu), apps, workers=1, journal=journal,
            chaos=ChaosPlan(seed=1, crash_rate=1.0),  # would never converge
        )
        journal.close()
        assert outcomes["sm"].ok
        assert outcomes["sm"].num_attempts == 0  # served from the journal


class _FailingSimulator(SwiftSimBasic):
    """Raises for one named app, simulating a partial-suite failure."""

    def __init__(self, config, poison="gemm"):
        super().__init__(config)
        self._poison = poison

    def simulate(self, app, **kwargs):
        if app.name == self._poison:
            raise SimulationError(f"injected failure for {app.name}")
        return super().simulate(app, **kwargs)


class TestHarnessFailurePolicy:
    APPS = ["bfs", "gemm", "sm"]

    def _evaluate(self, policy):
        gpu = make_tiny_gpu()
        harness = EvaluationHarness(gpu, scale="tiny", apps=self.APPS)
        return harness.evaluate(
            {"good": SwiftSimBasic(gpu), "flaky": _FailingSimulator(gpu)},
            failure_policy=policy,
        )

    def test_raise_policy_propagates(self):
        with pytest.raises(SimulationError, match="injected failure"):
            self._evaluate("raise")

    def test_unknown_policy_rejected(self):
        with pytest.raises(WorkloadError, match="failure_policy"):
            self._evaluate("explode")

    def test_skip_policy_drops_the_app(self):
        suite = self._evaluate("skip")
        assert [row.app_name for row in suite.rows] == ["bfs", "sm"]
        assert suite.is_partial
        assert len(suite.failures) == 1
        record = suite.failures[0]
        assert (record.app_name, record.simulator) == ("gemm", "flaky")
        assert record.error_type == "SimulationError"

    def test_degrade_policy_keeps_row_with_gap(self):
        suite = self._evaluate("degrade")
        assert [row.app_name for row in suite.rows] == self.APPS
        gemm = suite.rows[1]
        assert gemm.has("good") and not gemm.has("flaky")
        # aggregates cover only the rows that carry the simulator
        assert suite.mean_error("flaky") == pytest.approx(
            (suite.rows[0].error_pct("flaky")
             + suite.rows[2].error_pct("flaky")) / 2
        )
        assert suite.geomean_speedup("flaky", "good") > 0

    def test_degraded_suite_renders_with_gaps(self):
        suite = self._evaluate("degrade")
        text = render_suite(suite, baseline="good")
        assert "[PARTIAL]" in text
        assert "—" in text
        assert "failures (1):" in text
        assert "gemm x flaky: SimulationError" in text
        assert "(2/3 apps)" in text

    def test_harness_resumes_from_journal(self, tmp_path):
        gpu = make_tiny_gpu()
        path = str(tmp_path / "harness.journal")
        harness = EvaluationHarness(gpu, scale="tiny", apps=["bfs", "sm"])
        with RunJournal.create(path, gpu_name=gpu.name) as journal:
            full = harness.evaluate(
                {"basic": SwiftSimBasic(gpu)}, journal=journal
            )
        with RunJournal.load(path) as journal:
            # poisoned simulator would fail — journal must shield it
            resumed = harness.evaluate(
                {"basic": _FailingSimulator(gpu, poison="sm")},
                journal=journal,
            )
        for row_full, row_resumed in zip(full.rows, resumed.rows):
            assert row_resumed.cycles == row_full.cycles

    def test_journal_refuses_two_simulators_with_one_name(self, tmp_path):
        """The journal keys results on ``simulator.name``: two
        swift-memory runs with different hit-rate sources would share."""
        gpu = make_tiny_gpu()
        harness = EvaluationHarness(gpu, scale="tiny", apps=["bfs"])
        with RunJournal.create(str(tmp_path / "j"), gpu_name=gpu.name) as journal:
            with pytest.raises(WorkloadError, match="swift-memory"):
                harness.evaluate(
                    {"cache-sim": SwiftSimMemory(gpu),
                     "reuse": SwiftSimMemory(
                         gpu, hit_rate_source="reuse_distance")},
                    journal=journal,
                )


class TestTypedEvaluationErrors:
    """Satellite: missing simulator/baseline keys raise WorkloadError
    naming the missing simulator and the available keys."""

    def _row(self):
        return AppEvaluation("bfs", "rodinia", 100,
                             {"basic": 110}, {"basic": 1.0})

    def test_error_pct_names_missing_simulator(self):
        with pytest.raises(WorkloadError) as excinfo:
            self._row().error_pct("accel")
        assert "accel" in str(excinfo.value)
        assert "bfs" in str(excinfo.value)
        assert "basic" in str(excinfo.value)  # the available key

    def test_signed_error_pct_typed(self):
        with pytest.raises(WorkloadError, match="accel"):
            self._row().signed_error_pct("accel")

    def test_speedup_names_missing_baseline(self):
        with pytest.raises(WorkloadError) as excinfo:
            self._row().speedup("basic", "accel")
        assert "accel" in str(excinfo.value) and "basic" in str(excinfo.value)

    def test_suite_aggregate_typed_when_uncovered(self):
        suite = SuiteEvaluation(gpu_name="g", scale="tiny", rows=[self._row()])
        with pytest.raises(WorkloadError, match="accel"):
            suite.mean_error("accel")
        with pytest.raises(WorkloadError, match="accel"):
            suite.geomean_speedup("basic", "accel")


class TestResilienceCheckPillar:
    def test_resilience_mode_passes(self, tiny_gpu):
        from repro.check import run_checks

        report = run_checks(
            tiny_gpu, mode="resilience", apps=["bfs", "sm"], scale="tiny",
        )
        assert report.ok
        kinds = {f.check for f in report.findings}
        assert kinds == {"resilience"}
        messages = " ".join(f.message for f in report.findings)
        assert "chaos sweep" in messages
        assert "bit-identically" in messages

    def test_resilience_in_modes_list(self):
        from repro.check import MODES

        assert "resilience" in MODES


class TestResilienceCLI:
    def test_resilience_check_command_inline(self, capsys, tmp_path):
        from repro.cli import main
        from repro.frontend.config_io import save_gpu_config

        config_path = str(tmp_path / "tiny.json")
        save_gpu_config(make_tiny_gpu(), config_path)
        code = main([
            "check", "--mode", "resilience", "--apps", "bfs,sm",
            "--scale", "tiny", "--config", config_path, "--workers", "1",
            "--verbose",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS" in out and "bit-identically" in out

    def test_eval_command_with_resume(self, capsys, tmp_path):
        from repro.cli import main
        from repro.frontend.config_io import save_gpu_config

        config_path = str(tmp_path / "tiny.json")
        journal_path = str(tmp_path / "sweep.journal")
        save_gpu_config(make_tiny_gpu(), config_path)
        assert main([
            "eval", "--apps", "bfs", "--scale", "tiny",
            "--config", config_path, "--simulators", "swift-basic",
            "--journal", journal_path,
        ]) == 0
        first = capsys.readouterr().out
        assert "suite evaluation" in first
        assert main([
            "eval", "--apps", "bfs,sm", "--scale", "tiny",
            "--config", config_path, "--simulators", "swift-basic",
            "--resume", journal_path,
        ]) == 0
        second = capsys.readouterr().out
        assert "resuming from" in second
        assert "1 completed triple(s) journaled" in second
        assert "2 completed triple(s)" in second

    def test_eval_unknown_simulator_exits_2(self, capsys):
        from repro.cli import main

        assert main(["eval", "--apps", "bfs", "--simulators", "warp9"]) == 2
        assert "warp9" in capsys.readouterr().err


class TestRetryBudgetCap:
    """Satellite: RetryPolicy.max_total_seconds caps cumulative retry
    spend, surfaced through TaskOutcome.retry_cap_hit."""

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_total_seconds=0)
        with pytest.raises(ConfigError):
            RetryPolicy(max_total_seconds=-1.0)

    def test_with_deadline_tightens_only(self):
        policy = RetryPolicy(max_total_seconds=10.0)
        assert policy.with_deadline(2.0).max_total_seconds == 2.0
        assert policy.with_deadline(60.0).max_total_seconds == 10.0
        uncapped = RetryPolicy()
        assert uncapped.with_deadline(3.0).max_total_seconds == 3.0

    def test_cap_suppresses_remaining_retries(self):
        policy = RetryPolicy(max_attempts=10, base_delay=0.05, jitter=0.0,
                             max_total_seconds=0.08)
        outcome = Supervisor(policy, workers=1).run(
            [Task("a", _raise_memory_error)]
        )["a"]
        assert not outcome.ok
        assert outcome.retry_cap_hit
        assert outcome.num_attempts < 10
        assert "retry suppressed" in str(outcome.failure)
        assert f"{policy.max_total_seconds}s total budget" \
            in str(outcome.failure)
        assert outcome.total_seconds > 0

    def test_no_cap_runs_all_attempts(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        outcome = Supervisor(policy, workers=1).run(
            [Task("a", _raise_memory_error)]
        )["a"]
        assert outcome.num_attempts == 3
        assert not outcome.retry_cap_hit

    def test_success_never_reports_cap(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0,
                             max_total_seconds=100.0)
        outcome = Supervisor(policy, workers=1).run(
            [Task("a", _double, (2,))]
        )["a"]
        assert outcome.ok and not outcome.retry_cap_hit


class TestJournalHeaderHashes:
    """Satellite: journals pin the invocation that created them."""

    def test_hashes_recorded_when_given(self, tmp_path):
        path = str(tmp_path / "run.journal")
        RunJournal.create(path, gpu_name="g", scale="tiny",
                          config_hash="c" * 64,
                          workload_hash="w" * 64).close()
        loaded = RunJournal.load(path)
        assert loaded.header["config_hash"] == "c" * 64
        assert loaded.header["workload_hash"] == "w" * 64
        assert loaded.header["journal"] == "run"

    def test_legacy_header_without_hashes_loads(self, tmp_path):
        path = str(tmp_path / "run.journal")
        RunJournal.create(path, gpu_name="g", scale="tiny").close()
        loaded = RunJournal.load(path)
        assert "config_hash" not in loaded.header
        assert "workload_hash" not in loaded.header

    def test_legacy_header_without_kind_field_loads(self, tmp_path):
        path = tmp_path / "legacy.journal"
        path.write_text(
            '{"kind": "header", "version": 1, "gpu": "g", "scale": "t"}\n'
        )
        assert len(RunJournal.load(str(path))) == 0


class TestEvalResumeRefusal:
    """Satellite: `repro eval --resume` refuses a journal whose pinned
    configuration or trace scale disagrees with the invocation."""

    def _seed_journal(self, tmp_path, **overrides):
        from repro.cli import main
        from repro.frontend.config_io import save_gpu_config

        config_path = str(tmp_path / "tiny.json")
        journal_path = str(tmp_path / "sweep.journal")
        save_gpu_config(make_tiny_gpu(**overrides), config_path)
        assert main([
            "eval", "--apps", "bfs", "--scale", "tiny",
            "--config", config_path, "--simulators", "swift-basic",
            "--journal", journal_path,
        ]) == 0
        return config_path, journal_path

    def test_config_mismatch_is_typed_config_error(self, capsys, tmp_path):
        from repro.cli import main
        from repro.frontend.config_io import save_gpu_config

        __, journal_path = self._seed_journal(tmp_path)
        capsys.readouterr()
        other_path = str(tmp_path / "other.json")
        save_gpu_config(make_tiny_gpu(num_sms=8), other_path)
        assert main([
            "eval", "--apps", "bfs", "--scale", "tiny",
            "--config", other_path, "--simulators", "swift-basic",
            "--resume", journal_path,
        ]) == 2
        err = capsys.readouterr().err
        assert "was written for config" in err
        assert "refusing to mix results" in err

    def test_scale_mismatch_is_typed_config_error(self, capsys, tmp_path):
        from repro.cli import main

        config_path, journal_path = self._seed_journal(tmp_path)
        capsys.readouterr()
        assert main([
            "eval", "--apps", "bfs", "--scale", "small",
            "--config", config_path, "--simulators", "swift-basic",
            "--resume", journal_path,
        ]) == 2
        err = capsys.readouterr().err
        assert "scale" in err and "traces differ" in err

    def test_matching_invocation_resumes(self, capsys, tmp_path):
        from repro.cli import main

        config_path, journal_path = self._seed_journal(tmp_path)
        capsys.readouterr()
        assert main([
            "eval", "--apps", "bfs", "--scale", "tiny",
            "--config", config_path, "--simulators", "swift-basic",
            "--resume", journal_path,
        ]) == 0
        assert "resuming from" in capsys.readouterr().out


class _ChaosDrivenSimulator(SwiftSimBasic):
    """Consults a real ChaosPlan's fault schedule: a first-attempt
    "crash" for this app becomes a SimulationError, like a worker the
    supervisor could not save within its retry budget."""

    def __init__(self, config, plan):
        super().__init__(config)
        self._plan = plan

    def simulate(self, app, **kwargs):
        if self._plan.faults_for(app.name, 1)[0] == "crash":
            raise SimulationError(
                f"chaos: injected crash for {app.name}"
            )
        return super().simulate(app, **kwargs)


class TestHarnessDegradeUnderChaos:
    """Satellite: failure_policy="degrade" under an active ChaosPlan —
    every chaos casualty lands in suite.failures and the partial table
    still renders, gaps and all."""

    APPS = ["bfs", "gemm", "sm"]
    # seed=1, crash_rate=0.5: bfs survives, gemm and sm crash (the
    # schedule is seeded-deterministic, asserted below).
    PLAN = dict(seed=1, crash_rate=0.5)

    def _evaluate(self):
        gpu = make_tiny_gpu()
        plan = ChaosPlan(**self.PLAN)
        assert [plan.faults_for(a, 1)[0] for a in self.APPS] == \
            [None, "crash", "crash"]
        harness = EvaluationHarness(gpu, scale="tiny", apps=self.APPS)
        return harness.evaluate(
            {"stable": SwiftSimBasic(gpu),
             "chaotic": _ChaosDrivenSimulator(gpu, plan)},
            failure_policy="degrade",
        )

    def test_failure_records_emitted_per_casualty(self):
        suite = self._evaluate()
        assert suite.is_partial
        assert [(f.app_name, f.simulator) for f in suite.failures] == \
            [("gemm", "chaotic"), ("sm", "chaotic")]
        for record in suite.failures:
            assert record.error_type == "SimulationError"
            assert "chaos" in record.message

    def test_rows_keep_surviving_cells(self):
        suite = self._evaluate()
        assert [row.app_name for row in suite.rows] == self.APPS
        for row in suite.rows:
            assert row.has("stable")
        assert suite.rows[0].has("chaotic")
        assert not suite.rows[1].has("chaotic")
        assert not suite.rows[2].has("chaotic")

    def test_partial_table_renders_without_failed_cells(self):
        suite = self._evaluate()
        text = render_suite(suite, baseline="stable")
        assert "[PARTIAL]" in text
        # gemm and sm rows: cycles, error, and speedup cells all gap
        assert text.count("—") == 6
        assert "failures (2):" in text
        assert "gemm x chaotic: SimulationError" in text
        assert "sm x chaotic: SimulationError" in text
