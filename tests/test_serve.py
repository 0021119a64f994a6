"""Tests for the sweep service (repro.serve): keys, store, breaker,
admission, journal, and the service ladder driven in-process through
injectable runners — plus one end-to-end socket round trip.
"""

import asyncio
import json
import os

import pytest

from repro.errors import (
    CircuitOpen,
    ConfigError,
    QueueSaturated,
    ServeError,
    SimulationError,
)
from repro.frontend.config_io import gpu_config_to_dict
from repro.serve.admission import AdmissionController, CostModel
from repro.serve.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)
from repro.serve.client import grid_points, parse_grid_spec
from repro.serve.jobs import JobRequest
from repro.serve.journal import ServeJournal
from repro.serve.keys import (
    canonical_json,
    config_hash,
    job_key,
    trace_fingerprint,
    workload_hash,
)
from repro.serve import service as service_module
from repro.serve.service import LINE_LIMIT, SweepService
from repro.serve.store import MAGIC, ResultStore
from repro.tracegen.suites import make_app

from conftest import make_tiny_gpu, serve_connection


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# keys


class TestKeys:
    def test_canonical_json_sorts_keys_at_depth(self):
        a = canonical_json({"b": {"y": 1, "x": 2}, "a": 3})
        b = canonical_json({"a": 3, "b": {"x": 2, "y": 1}})
        assert a == b

    def test_integral_floats_collapse_to_ints(self):
        assert canonical_json({"v": 2.0}) == canonical_json({"v": 2})

    def test_non_integral_floats_survive(self):
        assert canonical_json({"v": 0.5}) != canonical_json({"v": 0})
        assert "0.5" in canonical_json({"v": 0.5})

    def test_nan_and_inf_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ServeError, match="non-finite"):
                canonical_json({"v": bad})

    def test_non_string_keys_rejected(self):
        with pytest.raises(ServeError, match="non-string dict key"):
            canonical_json({1: "x"})

    def test_too_deep_nesting_rejected(self):
        deep = []
        for __ in range(5000):
            deep = [deep]
        with pytest.raises(ServeError, match="nested"):
            config_hash({"name": deep})

    def test_config_hash_accepts_config_and_dict(self):
        gpu = make_tiny_gpu()
        assert config_hash(gpu) == config_hash(gpu_config_to_dict(gpu))

    def test_config_hash_distinguishes_configs(self):
        gpu = make_tiny_gpu()
        other = make_tiny_gpu(num_sms=gpu.num_sms + 1)
        assert config_hash(gpu) != config_hash(other)

    def test_trace_fingerprint_stable_and_content_sensitive(self):
        fp1 = trace_fingerprint(make_app("gemm", scale="tiny"))
        fp2 = trace_fingerprint(make_app("gemm", scale="tiny"))
        assert fp1 == fp2
        assert fp1["instructions"] > 0
        other = trace_fingerprint(make_app("bfs", scale="tiny"))
        assert fp1["digest"] != other["digest"]

    def test_workload_hash_order_invariant_but_scale_sensitive(self):
        assert (workload_hash(["bfs", "gemm"], "tiny")
                == workload_hash(["gemm", "bfs"], "tiny"))
        assert (workload_hash(["bfs"], "tiny")
                != workload_hash(["bfs"], "small"))

    def test_job_key_depends_on_every_component(self):
        base = job_key("t1", "c1", "swift-basic")
        assert base != job_key("t2", "c1", "swift-basic")
        assert base != job_key("t1", "c2", "swift-basic")
        assert base != job_key("t1", "c1", "interval")


# ----------------------------------------------------------------------
# store


KEY = "ab" + "0" * 62


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        payload = {"degraded": False, "result": {"total_cycles": 42}}
        store.put(KEY, payload)
        assert store.get(KEY) == payload
        assert KEY in store
        assert len(store) == 1
        assert store.keys() == [KEY]

    def test_miss_returns_none(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        assert store.get(KEY) is None

    def test_refuses_degraded_payload(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(ServeError, match="degraded"):
            store.put(KEY, {"degraded": True, "result": {}})
        assert len(store) == 0

    def test_torn_entry_is_a_miss_and_evicted(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        path = store.put(KEY, {"degraded": False,
                               "result": {"total_cycles": 7}})
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[:len(raw) // 2])
        assert store.get(KEY) is None
        assert not os.path.exists(path)

    def test_bitflip_detected_by_frame(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        path = store.put(KEY, {"degraded": False,
                               "result": {"total_cycles": 7}})
        raw = bytearray(open(path, "rb").read())
        raw[-3] ^= 0xFF  # flip a payload byte; frame sha256 must catch it
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        assert store.get(KEY) is None

    def test_foreign_magic_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        path = store.put(KEY, {"degraded": False, "result": {}})
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(b"NOTMAGIC1\n" + raw[len(MAGIC):])
        assert store.get(KEY) is None

    def test_degraded_bytes_on_disk_never_served(self, tmp_path):
        # Even if a foreign writer bypasses put(), the read side refuses.
        store = ResultStore(str(tmp_path / "store"))
        path = store.put(KEY, {"degraded": False, "result": {}})
        import hashlib
        body = json.dumps({"degraded": True, "result": {}},
                          sort_keys=True, separators=(",", ":")).encode()
        with open(path, "wb") as handle:
            handle.write(MAGIC)
            handle.write((json.dumps({"key": KEY}) + "\n").encode())
            handle.write(
                f"{len(body)} {hashlib.sha256(body).hexdigest()}\n".encode()
            )
            handle.write(body)
        assert store.get(KEY) is None

    def test_malformed_key_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(ServeError, match="malformed store key"):
            store.get("../../etc/passwd")


# ----------------------------------------------------------------------
# breaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown=5.0, clock=clock)
        assert breaker.state == CLOSED
        for __ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_half_open_single_probe_then_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.now = 5.0
        assert breaker.allow()          # the probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()      # only one probe at a time
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_for_full_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.now = 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.now = 9.9
        assert not breaker.allow()
        clock.now = 10.0
        assert breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_board_keys_by_simulator_and_region(self):
        board = BreakerBoard(threshold=1, clock=FakeClock())
        a = board.breaker_for("swift-basic", "ab" + "0" * 62)
        b = board.breaker_for("swift-basic", "ab" + "f" * 62)
        c = board.breaker_for("swift-basic", "cd" + "0" * 62)
        d = board.breaker_for("interval", "ab" + "0" * 62)
        assert a is b           # same region
        assert a is not c       # different region
        assert a is not d       # different simulator
        a.record_failure()
        assert board.snapshot() == {
            "interval/ab": "closed",
            "swift-basic/ab": "open",
            "swift-basic/cd": "closed",
        }


# ----------------------------------------------------------------------
# admission


class TestAdmission:
    def test_depth_bound(self):
        admission = AdmissionController(max_depth=2,
                                        max_pending_seconds=1e9)
        admission.admit("swift-basic", 100)
        admission.admit("swift-basic", 100)
        with pytest.raises(QueueSaturated) as excinfo:
            admission.admit("swift-basic", 100)
        assert excinfo.value.kind == "queue_saturated"
        assert excinfo.value.depth == 2

    def test_cost_bound_scales_with_simulator(self):
        model = CostModel(coefficients={"slow": 1.0, "fast": 1e-9},
                          overhead_seconds=0.0)
        admission = AdmissionController(model, max_depth=100,
                                        max_pending_seconds=10.0)
        admission.admit("slow", 8)           # 8 estimated seconds queued
        with pytest.raises(QueueSaturated):
            admission.admit("slow", 8)       # would be 16 > 10
        for __ in range(50):                 # cheap jobs still admitted
            admission.admit("fast", 8)

    def test_empty_queue_always_admits_one(self):
        model = CostModel(coefficients={"huge": 1e6},
                          overhead_seconds=0.0)
        admission = AdmissionController(model, max_pending_seconds=1.0)
        cost = admission.admit("huge", 1000)  # over budget, but alone
        assert cost > 1.0
        admission.release(cost)
        assert admission.depth == 0
        assert admission.pending_seconds == 0.0

    def test_release_rebalances(self):
        admission = AdmissionController(max_depth=1)
        cost = admission.admit("swift-basic", 10)
        with pytest.raises(QueueSaturated):
            admission.admit("swift-basic", 10)
        admission.release(cost)
        admission.admit("swift-basic", 10)

    def test_default_table_is_in_the_papers_cost_order(self):
        """The table is the only price list — nothing read from disk can
        reprice a tier — and it keeps the paper's speed ordering."""
        import inspect

        assert list(inspect.signature(CostModel).parameters) == [
            "coefficients", "overhead_seconds",
        ]
        table = CostModel().coefficients
        assert table == CostModel.DEFAULTS
        assert (table["accel-like"] >= table["swift-basic"]
                >= table["swift-memory"] >= table["interval"]
                >= table["swift-analytic"] > 0)


# ----------------------------------------------------------------------
# serve journal


class TestServeJournal:
    def test_pending_tracks_unsettled_jobs(self, tmp_path):
        path = str(tmp_path / "serve.journal")
        journal = ServeJournal.create(path)
        journal.record_job("k1", {"app": "bfs"})
        journal.record_job("k2", {"app": "gemm"})
        journal.record_done("k1", "stored")
        journal.close()

        loaded = ServeJournal.load(path)
        assert loaded.pending() == [{"app": "gemm"}]
        assert loaded.unsettled("k2")
        assert not loaded.unsettled("k1")
        assert loaded.settled() == {"k1": "stored"}

    def test_torn_tail_dropped_on_load(self, tmp_path):
        path = str(tmp_path / "serve.journal")
        journal = ServeJournal.create(path)
        journal.record_job("k1", {"app": "bfs"})
        journal.record_done("k1", "stored")
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"kind": "done", "key": "k1", "sta')  # torn

        loaded = ServeJournal.load(path)
        assert loaded.settled() == {"k1": "stored"}
        loaded.record_job("k2", {"app": "gemm"})  # truncates the tear
        loaded.close()
        reloaded = ServeJournal.load(path)
        assert reloaded.pending() == [{"app": "gemm"}]

    def test_rejects_wrong_journal_kind(self, tmp_path):
        from repro.resilience.journal import RunJournal

        path = str(tmp_path / "run.journal")
        RunJournal.create(path, gpu_name="g", scale="tiny").close()
        with pytest.raises(SimulationError, match="journal"):
            ServeJournal.load(path)

    def test_rejects_unknown_done_status(self, tmp_path):
        journal = ServeJournal.create(str(tmp_path / "j"))
        with pytest.raises(ValueError, match="unknown done status"):
            journal.record_done("k", "vaporized")


# ----------------------------------------------------------------------
# service ladder (in-process, injectable runners)


def make_service(tmp_path, **kwargs):
    store = ResultStore(str(tmp_path / "store"))
    journal = ServeJournal.create(str(tmp_path / "serve.journal"))
    return SweepService(store, journal, **kwargs), store, journal


def exact_result(cycles=100):
    return {"total_cycles": cycles, "kernels": [], "app_name": "gemm",
            "simulator_name": "swift-basic", "gpu_name": "g"}


REQUEST = {"app": "gemm", "scale": "tiny", "simulator": "swift-basic"}


class TestServiceLadder:
    def test_exact_then_cached(self, tmp_path):
        calls = []

        def runner(request, identity):
            calls.append(identity["key"])
            return exact_result()

        service, store, __ = make_service(tmp_path, runner=runner)

        async def scenario():
            first = await service.submit_request(dict(REQUEST))
            second = await service.submit_request(dict(REQUEST))
            return first, second

        first, second = run(scenario())
        assert first["status"] == "ok" and not first["cached"]
        assert not first["degraded"]
        assert second["cached"] and second["result"] == first["result"]
        assert len(calls) == 1
        assert len(store) == 1
        assert service.stats.hits == 1

    def test_cache_hit_never_leaves_the_event_loop(self, tmp_path):
        """Only the first sighting of a trace goes to the executor (it
        generates the trace); once the identity is cached, identifying
        the job and probing the store are cheaper than the hop."""
        service, __, __ = make_service(
            tmp_path, runner=lambda request, identity: exact_result()
        )
        hops = []

        async def scenario():
            loop = asyncio.get_running_loop()
            hop = loop.run_in_executor

            def counting(executor, fn, *args):
                hops.append(getattr(fn, "__name__", repr(fn)))
                return hop(executor, fn, *args)

            loop.run_in_executor = counting
            first = await service.submit_request(dict(REQUEST))
            cold = list(hops)
            del hops[:]
            second = await service.submit_request(dict(REQUEST))
            return first, cold, second

        first, cold, second = run(scenario())
        assert cold[:2] == ["identify", "get"]  # first sighting: off the loop
        assert hops == []
        assert second == dict(first, cached=True)
        assert service.stats.hits == 1

    def test_identical_inflight_requests_deduped(self, tmp_path):
        started = asyncio.Event()
        release = asyncio.Event()

        def runner(request, identity):
            return exact_result()

        service, __, __ = make_service(tmp_path)

        async def gated_runner(request, identity):
            started.set()
            await release.wait()
            return exact_result()

        # Wrap the executor hop: patch _runner to a sync fn is the normal
        # path; for dedupe we need to hold the first request open, so
        # drive _admit_and_run through an async shim.
        original = service._admit_and_run

        async def slow_admit(request, identity):
            started.set()
            await release.wait()
            return await original(request, identity)

        service._runner = runner
        service._admit_and_run = slow_admit

        async def scenario():
            first = asyncio.create_task(
                service.submit_request(dict(REQUEST))
            )
            await started.wait()
            second = asyncio.create_task(
                service.submit_request(dict(REQUEST))
            )
            await asyncio.sleep(0)  # let the second reach the dedupe rung
            release.set()
            return await asyncio.gather(first, second)

        first, second = run(scenario())
        assert first["status"] == second["status"] == "ok"
        assert service.stats.deduped == 1
        assert service.stats.executed == 1

    def test_failure_degrades_with_tags_and_no_cache_write(self, tmp_path):
        def failing(request, identity):
            raise SimulationError("engine wedged")

        def analytic(request, identity):
            return exact_result(cycles=90)

        service, store, journal = make_service(
            tmp_path, runner=failing, degraded_runner=analytic,
        )
        response = run(service.submit_request(dict(REQUEST)))
        assert response["status"] == "ok"
        assert response["degraded"] is True
        assert response["error_bound_pct"] > 0
        assert response["error_mean_pct"] > 0
        assert len(store) == 0          # degraded never cached
        assert journal.settled()[response["key"]] == "degraded"
        assert service.stats.degraded == 1

    def test_failure_without_degradation_is_typed(self, tmp_path):
        def failing(request, identity):
            raise SimulationError("engine wedged")

        service, store, journal = make_service(tmp_path, runner=failing)
        request = dict(REQUEST)
        request["allow_degraded"] = False
        response = run(service.submit_request(request))
        assert response["status"] == "error"
        assert response["degraded"] is False
        assert "engine wedged" in response["message"]
        assert len(store) == 0
        assert journal.settled()[response["key"]] == "failed"

    def test_degradation_unavailable_is_typed(self, tmp_path):
        def failing(request, identity):
            raise SimulationError("engine wedged")

        def no_numpy(request, identity):
            raise SimulationError("numpy unavailable")

        service, __, __ = make_service(
            tmp_path, runner=failing, degraded_runner=no_numpy,
        )
        response = run(service.submit_request(dict(REQUEST)))
        assert response["status"] == "error"
        assert response["kind"] == "degradation_unavailable"

    def test_open_breaker_sheds_to_degraded(self, tmp_path):
        clock = FakeClock()

        def failing(request, identity):
            raise SimulationError("boom")

        def analytic(request, identity):
            return exact_result(cycles=90)

        service, store, __ = make_service(
            tmp_path, runner=failing, degraded_runner=analytic,
            breakers=BreakerBoard(threshold=1, cooldown=100.0, clock=clock),
        )

        async def scenario():
            first = await service.submit_request(dict(REQUEST))
            second = await service.submit_request(dict(REQUEST))
            return first, second

        first, second = run(scenario())
        assert first["degraded"] and second["degraded"]
        assert service.stats.failed == 1        # only the first executed
        assert service.stats.shed_breaker == 1  # the second was refused
        assert len(store) == 0

    def test_saturated_queue_sheds_to_degraded(self, tmp_path):
        def runner(request, identity):
            return exact_result()

        def analytic(request, identity):
            return exact_result(cycles=90)

        admission = AdmissionController(max_depth=1)
        admission.admit("swift-basic", 1)  # pre-fill the only slot
        service, __, journal = make_service(
            tmp_path, runner=runner, degraded_runner=analytic,
            admission=admission,
        )
        response = run(service.submit_request(dict(REQUEST)))
        assert response["degraded"] is True
        assert service.stats.shed_queue == 1
        # shed before admission: nothing journaled, nothing owed
        assert len(journal) == 0

    def test_bad_request_is_typed(self, tmp_path):
        service, __, __ = make_service(tmp_path)
        response = run(service.submit_request({"app": "gemm"}))
        assert response["status"] == "error"
        assert response["kind"] == "bad_request"
        response = run(service.submit_request(
            {"app": "gemm", "simulator": "warp-drive"}
        ))
        assert response["kind"] == "bad_request"
        assert "unknown simulator" in response["message"]

    def test_client_hash_pin_mismatch_refused(self, tmp_path):
        service, __, __ = make_service(
            tmp_path, runner=lambda r, i: exact_result()
        )
        request = dict(REQUEST)
        request["trace_hash"] = "f" * 64
        response = run(service.submit_request(request))
        assert response["status"] == "error"
        assert "trace_hash" in response["message"]

    def test_recovery_reexecutes_pending_jobs(self, tmp_path):
        calls = []

        def runner(request, identity):
            calls.append(request.app)
            return exact_result()

        # First service: journal a job, never settle it (simulated kill
        # between admission and execution).
        service, store, journal = make_service(tmp_path, runner=runner)
        identity = service.identify(JobRequest.from_dict(REQUEST))
        journal.record_job(identity["key"], dict(REQUEST))
        journal.close()

        # Restart on the same journal/store.
        reloaded = ServeJournal.load(str(tmp_path / "serve.journal"))
        revived = SweepService(store, reloaded, runner=runner)
        recovered = run(revived.recover())
        assert recovered == 1
        assert calls == ["gemm"]
        assert reloaded.settled()[identity["key"]] == "stored"
        assert len(store) == 1
        assert revived.stats.recovered == 1

    def test_cache_hit_settles_stale_journal_debt(self, tmp_path):
        service, store, journal = make_service(
            tmp_path, runner=lambda r, i: exact_result()
        )
        response = run(service.submit_request(dict(REQUEST)))
        key = response["key"]
        # Forge the crashed-after-put state: job admitted, never settled.
        journal._done.pop(key)
        assert journal.unsettled(key)
        cached = run(service.submit_request(dict(REQUEST)))
        assert cached["cached"]
        assert not journal.unsettled(key)


def line_of(payload, **fields):
    """A submit line as ``SweepClient.call`` writes it."""
    return (json.dumps(dict(payload, op="submit", **fields), sort_keys=True)
            + "\n").encode("utf-8")


PING = b'{"op": "ping"}\n'


def counting_identify(service):
    """Count the service's calls to ``identify``."""
    calls = []
    real = service.identify

    def identify(request):
        calls.append(request)
        return real(request)

    service.identify = identify
    return calls


class TestKnownLines:
    """A submit line that identified once is not decoded or identified
    again; the store is still read on every hit."""

    def test_identical_lines_identify_once(self, tmp_path):
        service, __, __ = make_service(
            tmp_path, runner=lambda r, i: exact_result()
        )
        identified = counting_identify(service)
        responses = run(serve_connection(service, [line_of(REQUEST)] * 4))
        assert len(identified) == 1
        assert [r["cached"] for r in responses] == [False, True, True, True]
        assert all(r["result"] == responses[0]["result"] for r in responses)
        assert service.stats.submitted == 4 and service.stats.hits == 3

    def test_a_changed_byte_identifies_again(self, tmp_path):
        service, __, __ = make_service(
            tmp_path, runner=lambda r, i: exact_result()
        )
        identified = counting_identify(service)
        line = line_of(REQUEST)
        respelled = line.replace(b'"app": "gemm"', b'"app":"gemm"')
        assert respelled != line
        first, second = run(serve_connection(service, [line, respelled]))
        assert len(identified) == 2
        assert second["key"] == first["key"] and second["cached"]

    def test_a_failed_line_is_never_remembered(self, tmp_path):
        service, __, __ = make_service(
            tmp_path, runner=lambda r, i: exact_result()
        )
        identified = counting_identify(service)
        bad = line_of(REQUEST, simulator="warp-drive")
        responses = run(serve_connection(service, [bad, bad]))
        assert [r["kind"] for r in responses] == ["bad_request"] * 2
        assert len(identified) == 2
        assert service._known_lines == {}

    def test_the_map_keeps_the_newest_lines_within_its_cap(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_module, "KNOWN_LINES", 3)
        service, __, __ = make_service(
            tmp_path, runner=lambda r, i: exact_result()
        )
        identified = counting_identify(service)
        lines = [line_of(REQUEST, deadline_seconds=float(n))
                 for n in range(1, 6)]
        run(serve_connection(service, lines))
        assert list(service._known_lines) == lines[2:]
        run(serve_connection(service, lines[:1] + lines[4:]))
        assert len(identified) == 6   # the first line was forgotten
        assert list(service._known_lines) == lines[3:] + lines[:1]

    def test_a_known_line_with_a_corrupt_entry_is_recomputed(self, tmp_path):
        calls = []

        def runner(request, identity):
            calls.append(identity["key"])
            return exact_result()

        service, store, __ = make_service(tmp_path, runner=runner)
        identified = counting_identify(service)
        line = line_of(REQUEST)
        cold, hit = run(serve_connection(service, [line, line]))
        assert hit["cached"]
        path = store._entry_path(cold["key"])
        with open(path, "rb") as handle:
            raw = bytearray(handle.read())
        raw[-2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        again, healed = run(serve_connection(service, [line, line]))
        assert len(identified) == 1
        assert calls == [cold["key"], cold["key"]]
        assert not again["cached"] and again["result"] == cold["result"]
        assert healed["cached"]

    def test_a_known_line_is_refused_while_draining(self, tmp_path):
        service, __, __ = make_service(
            tmp_path, runner=lambda r, i: exact_result()
        )
        line = line_of(REQUEST)

        async def scenario():
            await serve_connection(service, [line])
            await service.handle_request({"op": "drain"})
            return await serve_connection(service, [line])

        assert [r["kind"] for r in run(scenario())] == ["draining"]


class TestRequestBoundary:
    """Every line gets one typed answer and leaves the connection usable,
    except a line too long to frame, which is answered and closes it."""

    def test_unknown_app_scale_or_preset_is_a_bad_request(self, tmp_path):
        service, __, journal = make_service(
            tmp_path, runner=lambda r, i: exact_result()
        )
        responses = run(serve_connection(service, [
            line_of(REQUEST, app="nope"), line_of(REQUEST, scale="huge"),
            line_of(REQUEST, gpu="nope"), PING,
        ]))
        assert [r.get("kind") for r in responses[:3]] == ["bad_request"] * 3
        assert "nope" in responses[0]["message"]
        assert "huge" in responses[1]["message"]
        assert responses[3] == {"status": "ok", "pong": True}
        assert len(journal) == 0 and service._known_lines == {}

    def test_an_oversized_line_is_answered_then_the_connection_closed(
            self, tmp_path):
        service, __, __ = make_service(tmp_path)
        huge = line_of(REQUEST, app="x" * (LINE_LIMIT + 1))
        responses = run(serve_connection(service, [huge, PING]))
        assert len(responses) == 1
        assert responses[0]["kind"] == "bad_request"
        assert str(LINE_LIMIT) in responses[0]["message"]
        assert service._known_lines == {}

    def test_too_deep_json_is_a_bad_request(self, tmp_path):
        service, __, __ = make_service(tmp_path)
        deep = b"[" * 30000 + b"]" * 30000 + b"\n"
        responses = run(serve_connection(service, [deep, PING]))
        assert responses[0]["kind"] == "bad_request"
        assert responses[1]["pong"] is True

    @pytest.mark.parametrize("config", [
        {"num_sms": -1},
        dict(gpu_config_to_dict(make_tiny_gpu()), num_sms=-1),
        dict(gpu_config_to_dict(make_tiny_gpu()), num_sms=2.5),
        dict(gpu_config_to_dict(make_tiny_gpu()), num_sms=True),
    ])
    def test_an_invalid_config_is_refused_before_admission(self, tmp_path,
                                                           config):
        calls = []
        service, store, journal = make_service(
            tmp_path, runner=lambda r, i: calls.append(r) or exact_result(),
            breakers=BreakerBoard(threshold=1),
        )
        response = run(service.submit_request(dict(REQUEST, config=config)))
        assert response["status"] == "error"
        assert response["kind"] == "bad_request"
        assert calls == [] and len(journal) == 0 and len(store) == 0
        assert service.breakers.snapshot() == {}
        assert service.stats.failed == 0


class TestServiceWorkers:
    """What a server's execution tiers cost it: forks for the exact tier,
    characterizations for the degraded one, timers for a drain."""

    def test_six_cold_jobs_fork_at_most_two_workers(self, tmp_path,
                                                    monkeypatch):
        import multiprocessing

        starts = []
        real_start = multiprocessing.Process.start

        def start(process):
            starts.append(process)
            real_start(process)

        monkeypatch.setattr(multiprocessing.Process, "start", start)
        service, store, __ = make_service(tmp_path, supervisor_workers=2)
        requests = [
            {"app": app, "scale": "tiny", "simulator": "swift-basic",
             "config": gpu_config_to_dict(make_tiny_gpu(num_sms=num_sms))}
            for app in ("bfs", "gemm") for num_sms in (2, 3, 4)
        ]

        async def scenario():
            answers = [await service.submit_request(dict(request))
                       for request in requests]
            drained = await service.handle_request({"op": "drain"})
            return answers, drained

        answers, drained = run(scenario())
        assert [a["status"] for a in answers] == ["ok"] * 6
        assert not any(a["cached"] or a["degraded"] for a in answers)
        assert service.stats.executed == 6 and len(store) == 6
        assert 1 <= len(starts) <= 2
        assert drained["drained"] is True
        assert not any(process.is_alive() for process in starts)

    def test_degraded_tier_characterizes_each_kernel_once(self, tmp_path,
                                                          monkeypatch):
        pytest.importorskip("numpy")
        import repro.frontend.precharacterize as precharacterize_module

        characterized = []
        characterize = precharacterize_module._characterize_kernel

        def counted(kernel):
            characterized.append(kernel.name)
            return characterize(kernel)

        monkeypatch.setattr(precharacterize_module, "_characterize_kernel",
                            counted)

        def failing(request, identity):
            raise SimulationError("engine wedged")

        service, store, __ = make_service(tmp_path, runner=failing)

        async def scenario():
            return [
                await service.submit_request({
                    "app": "bfs", "scale": "tiny", "simulator": "swift-basic",
                    "config": gpu_config_to_dict(make_tiny_gpu(num_sms=n)),
                })
                for n in (2, 3, 4)
            ]

        answers = run(scenario())
        assert [a["degraded"] for a in answers] == [True] * 3
        assert len({a["result"]["total_cycles"] for a in answers}) > 1
        kernels = [kernel.name for kernel in make_app("bfs", "tiny").kernels]
        assert sorted(characterized) == sorted(kernels)
        assert len(store) == 0

    def test_drain_awaits_inflight_jobs_not_a_timer(self, tmp_path,
                                                    monkeypatch):
        import threading

        entered, release = threading.Event(), threading.Event()

        def runner(request, identity):
            entered.set()
            release.wait(30.0)
            return exact_result()

        service, store, __ = make_service(tmp_path, runner=runner)
        sleeps = []
        real_sleep = asyncio.sleep

        async def sleep(delay, result=None):
            sleeps.append(delay)
            return await real_sleep(delay, result)

        async def scenario():
            loop = asyncio.get_running_loop()
            job = asyncio.create_task(service.submit_request(dict(REQUEST)))
            await loop.run_in_executor(None, entered.wait, 30.0)
            in_flight = len(service._inflight)
            monkeypatch.setattr(asyncio, "sleep", sleep)
            drain = asyncio.create_task(
                service.handle_request({"op": "drain"})
            )
            await loop.run_in_executor(None, release.set)
            return in_flight, await job, await drain

        in_flight, answer, drained = run(scenario())
        assert in_flight == 1
        assert answer["status"] == "ok" and len(store) == 1
        assert drained == {"status": "ok", "drained": True, "settled": 1}
        assert sleeps == []


# ----------------------------------------------------------------------
# retired request keys


class TestShardedJobs:
    def test_retired_shard_fault_key_is_ignored(self, tmp_path):
        """An old client, or a pending job journaled before the sharded
        engine was removed, still carries ``parallel_shards`` (and, from
        before the shard supervisor went, ``shard_fault``): both keys are
        dropped like any unknown one, the job hashes to the same key,
        recovery re-executes it serially and the old request is answered
        from the store."""
        old = dict(REQUEST, parallel_shards=2,
                   shard_fault={"seed": 4, "kill_rate": 1.0,
                                "max_attempts": 2, "degrade": True})
        request = JobRequest.from_dict(old)
        assert request == JobRequest.from_dict(REQUEST)
        assert request.to_dict().keys().isdisjoint(
            {"parallel_shards", "shard_fault"})
        # The old parser validated the value; now it is never looked at.
        JobRequest.from_dict(dict(REQUEST, parallel_shards=3))

        service, store, journal = make_service(
            tmp_path, runner=lambda r, i: exact_result()
        )
        key = service.identify(request)["key"]
        assert key == service.identify(JobRequest.from_dict(REQUEST))["key"]
        journal.record_job(key, old)
        journal.close()
        reloaded = ServeJournal.load(str(tmp_path / "serve.journal"))
        revived = SweepService(
            store, reloaded, runner=lambda r, i: exact_result()
        )
        assert run(revived.recover()) == 1
        assert reloaded.settled()[key] == "stored"
        answer = run(revived.submit_request(old))
        assert answer["status"] == "ok" and answer["cached"]
        assert answer["key"] == key


# ----------------------------------------------------------------------
# grid helpers


class TestGridHelpers:
    def test_parse_grid_spec(self):
        grid = parse_grid_spec("l1.size_bytes=16384,65536;num_sms=2")
        assert grid == {"l1.size_bytes": ["16384", "65536"],
                        "num_sms": ["2"]}

    def test_parse_grid_spec_rejects_malformed(self):
        with pytest.raises(ConfigError):
            parse_grid_spec("just-a-word")
        with pytest.raises(ConfigError):
            parse_grid_spec("num_sms=")
        with pytest.raises(ConfigError):
            parse_grid_spec(";;")

    def test_grid_points_cartesian(self):
        base = make_tiny_gpu()
        points = grid_points(base, {"num_sms": ["2", "4"],
                                    "l1.size_bytes": ["16384", "32768"]})
        assert len(points) == 4
        assert len({config_hash(p) for p in points}) == 4


# ----------------------------------------------------------------------
# end to end over a real unix socket (single lightweight round trip)


class TestSocketEndToEnd:
    def test_submit_ping_stats_drain(self, tmp_path):
        from repro.serve.client import SweepClient

        socket_path = str(tmp_path / "s.sock")
        store = ResultStore(str(tmp_path / "store"))
        journal = ServeJournal.create(str(tmp_path / "serve.journal"))
        service = SweepService(
            store, journal, runner=lambda r, i: exact_result()
        )

        async def scenario():
            server_task = asyncio.create_task(service.serve(socket_path))
            loop = asyncio.get_running_loop()

            def client_calls():
                with SweepClient(socket_path, timeout=30.0) as client:
                    assert client.ping()
                    first = client.submit(dict(REQUEST))
                    second = client.submit(dict(REQUEST))
                    stats = client.stats()
                    client.drain()
                    return first, second, stats

            first, second, stats = await loop.run_in_executor(
                None, client_calls
            )
            await asyncio.wait_for(server_task, timeout=30.0)
            return first, second, stats

        first, second, stats = run(scenario())
        assert first["status"] == "ok" and not first["cached"]
        assert second["cached"]
        assert stats["stats"]["submitted"] == 2
        assert stats["store_entries"] == 1
        assert not os.path.exists(socket_path)


# ----------------------------------------------------------------------
# kept workers of a real `repro serve` process


def _children_of(pid):
    """Pids whose parent is ``pid`` (read from /proc)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def _exited(pid, timeout=10.0):
    """Wait for ``pid`` to be gone (or a zombie nobody reaps)."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            return True
        if state in ("Z", "X"):
            return True
        time.sleep(0.02)
    return False


def _socket_inodes(pid):
    """The sockets ``pid`` holds, the standard streams aside."""
    inodes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        if int(fd) <= 2:
            continue
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:"):
            inodes.add(target)
    return inodes


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="reads the process table from /proc")
class TestServerWorkerLifetime:
    """A kept worker holds none of the server's sockets and dies with
    the server, however the server dies."""

    def start(self, tmp_path, *flags):
        import subprocess
        import sys

        from repro.serve.client import SweepClient

        socket_path = str(tmp_path / "s.sock")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
             "--store", str(tmp_path / "store"),
             "--journal", str(tmp_path / "journal"), "--workers", "2",
             *flags],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.DEVNULL,
        )
        client = SweepClient(socket_path, timeout=60.0)
        client.connect(retries=600, delay=0.05)
        return server, client

    @staticmethod
    def job(num_sms):
        return {"app": "gemm", "scale": "tiny", "simulator": "swift-basic",
                "config": gpu_config_to_dict(make_tiny_gpu(num_sms=num_sms))}

    def test_worker_holds_no_server_socket_and_dies_on_sigkill(self,
                                                               tmp_path):
        import signal

        server, client = self.start(tmp_path)
        try:
            assert client.submit(self.job(2))["status"] == "ok"
            (worker,) = _children_of(server.pid)
            held = _socket_inodes(worker)
            assert len(held) == 1  # its own pipe to the server
            assert held.isdisjoint(_socket_inodes(server.pid))
            os.kill(server.pid, signal.SIGKILL)
            server.wait(timeout=30)
            assert _exited(worker)
        finally:
            client.close()
            if server.poll() is None:
                server.kill()
                server.wait()

    def test_worker_exits_when_the_server_dies_at_a_job(self, tmp_path):
        server, client = self.start(tmp_path, "--die-at-job", "2")
        try:
            assert client.submit(self.job(2))["status"] == "ok"
            (worker,) = _children_of(server.pid)
            with pytest.raises((ServeError, OSError)):
                client.submit(self.job(3))
            assert server.wait(timeout=30) == 9
            assert _exited(worker)
        finally:
            client.close()
            if server.poll() is None:
                server.kill()
                server.wait()
