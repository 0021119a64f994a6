"""Robustness fuzzing: malformed inputs (traces, configs, checkpoint and
store files) must raise typed errors, never crash with arbitrary
exceptions — plus property tests that random module graphs uphold the
engine's jump-exactness contract."""

import heapq
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import EngineSanitizer
from repro.errors import SimulationError, SwiftSimError, TraceError
from repro.frontend.trace import TraceInstruction
from repro.frontend.trace_io import parse_trace, save_trace
from repro.frontend.config_io import (
    gpu_config_from_dict,
    gpu_config_to_dict,
    load_gpu_config,
)
from repro.errors import ConfigError
from repro.resilience.journal import RunJournal, result_to_dict
from repro.serve.journal import ServeJournal
from repro.serve.store import ResultStore
from repro.sim.engine import ClockedModule, Engine
from repro.simulators.results import KernelResult, SimulationResult
from repro.tracegen.suites import make_app
from repro.utils.rng import derive_seed

from conftest import make_tiny_gpu


def _valid_trace_text() -> str:
    import io, tempfile, pathlib
    app = make_app("gemm", scale="tiny")
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "t.trace"
        save_trace(app, path)
        return path.read_text()


_BASE_TEXT = _valid_trace_text()
_LINES = _BASE_TEXT.splitlines()


class TestTraceParserFuzz:
    @given(st.integers(0, len(_LINES) - 1))
    @settings(max_examples=60, deadline=None)
    def test_deleting_any_line_is_typed(self, index):
        mutated = "\n".join(_LINES[:index] + _LINES[index + 1:])
        try:
            parse_trace(mutated)
        except TraceError:
            pass  # rejection with the documented error type is correct

    @given(
        st.integers(0, len(_LINES) - 1),
        st.text(alphabet="abcxyz0= ,", min_size=1, max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_corrupting_any_line_is_typed(self, index, junk):
        mutated_lines = list(_LINES)
        mutated_lines[index] = mutated_lines[index] + " " + junk
        try:
            parse_trace("\n".join(mutated_lines))
        except TraceError:
            pass

    @given(st.text(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_text_is_typed(self, text):
        try:
            parse_trace(text)
        except TraceError:
            pass


class TestAddressListFuzz:
    """``TraceInstruction`` is the one door into a trace for every
    producer (generator, both parsers, the NVBit adapter, user code):
    whatever is handed to it as an address list either becomes an
    unsigned 64-bit array or raises the typed error."""

    junk = st.one_of(
        st.integers(-(1 << 70), 1 << 70), st.floats(allow_nan=True),
        st.none(), st.text(max_size=3), st.booleans(),
    )

    @given(st.lists(junk, min_size=1, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_any_address_list_is_an_array_or_a_trace_error(self, addresses):
        mask = (1 << len(addresses)) - 1
        try:
            inst = TraceInstruction(0, "LDG", (1,), (), mask, addresses)
        except TraceError:
            assert not all(
                type(a) in (int, bool) and 0 <= a < 1 << 64 for a in addresses
            )
        else:
            assert inst.addresses.typecode == "Q"
            assert list(inst.addresses) == addresses

    @pytest.mark.parametrize("addresses", [
        [1.5], [1 << 64], [-1], ["0x10"], [None], [0x10, 2.0],
    ])
    def test_named_cases_raise_trace_error(self, addresses):
        mask = (1 << len(addresses)) - 1
        with pytest.raises(TraceError):
            TraceInstruction(0, "LDG", (1,), (), mask, addresses)


#: A valid configuration file, spliced with random bytes below.
_CONFIG_BYTES = json.dumps(gpu_config_to_dict(make_tiny_gpu())).encode()


class TestConfigFuzz:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_corrupting_config_values_is_typed(self, rng):
        data = gpu_config_to_dict(make_tiny_gpu())
        # Corrupt a handful of random scalar leaves.
        def corrupt(node):
            keys = [k for k, v in node.items() if isinstance(v, (int, float))]
            if keys:
                key = rng.choice(keys)
                node[key] = rng.choice([-1, 0, 10**9, 3.7])
        corrupt(data)
        corrupt(data.get("l1", {}))
        corrupt(data.get("dram", {}))
        try:
            gpu_config_from_dict(data)
        except ConfigError:
            pass

    @given(raw=st.one_of(
        st.binary(max_size=300),
        st.tuples(st.integers(0, len(_CONFIG_BYTES)), st.integers(0, 40),
                  st.binary(max_size=40)).map(
            lambda cut: _CONFIG_BYTES[:cut[0]] + cut[2]
            + _CONFIG_BYTES[cut[0] + cut[1]:]),
    ))
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_in_a_config_file_load_or_raise_config_error(
        self, raw, tmp_path_factory
    ):
        path = tmp_path_factory.mktemp("config") / "gpu.json"
        path.write_bytes(raw)
        try:
            load_gpu_config(path)
        except ConfigError:
            pass

    def test_all_package_errors_share_base(self):
        from repro import errors
        for name in ("CheckError", "ConfigError", "MetricsError",
                     "PlanError", "SimulationError", "TraceError",
                     "WorkloadError"):
            assert issubclass(getattr(errors, name), SwiftSimError)


# ----------------------------------------------------------------------
# framed records: serve store entries

_STORE_KEY = "ab" * 32
_STORE_PAYLOAD = {"degraded": False, "result": {"total_cycles": 7}}

#: A store entry byte for byte as the commit before repro.utils.framing
#: wrote it.
_PARENT_STORE_ENTRY = (
    b'REPROSERV1\n'
    b'{"key": "' + _STORE_KEY.encode() + b'"}\n'
    b'46 fa3d7dab98b5836fd993bf0d20dbc33909975d1cc1c7dfbc03f2d55e8dd0944f\n'
    b'{"degraded":false,"result":{"total_cycles":7}}'
)

#: Meta lines that parse as JSON but are not an object, and one too deep
#: to parse at all.
_BAD_META = {
    "list": b"[]", "number": b"3", "null": b"null", "string": b'"s"',
    "too-deep": b"[" * 100_000,
}


def _mutations(raw: bytes):
    """Any single bit flip, truncation or byte splice of ``raw``."""
    size = len(raw)
    flip = st.tuples(st.integers(0, size - 1), st.integers(0, 7)).map(
        lambda at: raw[:at[0]] + bytes([raw[at[0]] ^ (1 << at[1])]) + raw[at[0] + 1:]
    )
    truncate = st.integers(0, size - 1).map(lambda end: raw[:end])
    splice = st.tuples(
        st.integers(0, size), st.integers(0, size), st.binary(max_size=16)
    ).map(lambda cut: raw[:min(cut[:2])] + cut[2] + raw[max(cut[:2]):])
    return st.one_of(flip, truncate, splice)


def _with_meta(raw: bytes, meta_line: bytes) -> bytes:
    magic, __, rest = raw.split(b"\n", 2)
    return magic + b"\n" + meta_line + b"\n" + rest


class TestFramedRecordFuzz:
    """The reader of :mod:`repro.utils.framing` fails closed: a damaged
    store entry is a miss and evicted — never another exception."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return ResultStore(str(tmp_path_factory.mktemp("store")))

    @pytest.fixture(scope="class")
    def entry_path(self, store):
        return store.put(_STORE_KEY, _STORE_PAYLOAD)

    def _read_store_entry(self, store, entry_path, raw):
        """``store.get`` over an entry file holding ``raw``: the payload,
        or ``None`` with the file gone."""
        with open(entry_path, "wb") as handle:
            handle.write(raw)
        payload = store.get(_STORE_KEY)
        assert os.path.exists(entry_path) == (payload is not None)
        return payload

    def test_parent_format_files_read_back(self, store, entry_path):
        assert self._read_store_entry(
            store, entry_path, _PARENT_STORE_ENTRY
        ) == _STORE_PAYLOAD

    def test_writers_still_produce_the_parent_bytes(self, store):
        with open(store.put(_STORE_KEY, _STORE_PAYLOAD), "rb") as handle:
            assert handle.read() == _PARENT_STORE_ENTRY

    @pytest.mark.parametrize("meta_line", _BAD_META.values(), ids=_BAD_META)
    def test_unusable_meta_line_fails_closed(self, meta_line, store, entry_path):
        # The store once raised AttributeError here and kept the entry,
        # poisoning its key for every later submission.
        raw = _with_meta(_PARENT_STORE_ENTRY, meta_line)
        assert self._read_store_entry(store, entry_path, raw) is None

    @given(_mutations(_PARENT_STORE_ENTRY))
    @settings(max_examples=300, deadline=None)
    def test_damaged_store_entry_is_a_miss_and_evicted(self, store, entry_path, raw):
        payload = self._read_store_entry(store, entry_path, raw)
        assert payload in (None, _STORE_PAYLOAD)


# ----------------------------------------------------------------------
# journals: RunJournal and ServeJournal files


def _journal_result(app: str) -> SimulationResult:
    return SimulationResult(
        app_name=app, simulator_name="swift-basic", gpu_name="TestGPU",
        total_cycles=100 + len(app),
        kernels=[KernelResult(name="k0", start_cycle=0, end_cycle=100,
                              instructions=7)],
    )


def _three_records(cls):
    """(records, how to read them back) for a valid three-record journal."""
    if cls is RunJournal:
        records = [
            {"kind": "result", "attempts": 1, "result": result_to_dict(
                _journal_result(app))}
            for app in ("bfs", "gemm", "sm")
        ]
        return records, lambda journal: [key for key, __ in journal.completed()]
    records = [
        {"kind": "job", "key": "k1", "request": {"app": "bfs"}},
        {"kind": "job", "key": "k2", "request": {"app": "sm"}},
        {"kind": "done", "key": "k1", "status": "stored"},
    ]
    return records, lambda journal: (journal.pending(), journal.settled())


def _header(cls, tmp_path) -> bytes:
    path = tmp_path / f"header-{cls.KIND}.journal"
    cls.create(str(path)).close()
    return path.read_bytes()


#: Records that parse as JSON but that neither loader can use.
_BAD_RECORDS = {
    "non-object-record": (RunJournal, "[1, 2]", 2),
    "non-object-header": (ServeJournal, "5", 1),
    "result-without-payload": (RunJournal, '{"kind": "result"}', 2),
    "unhashable-job-key": (ServeJournal, '{"kind": "job", "key": [1]}', 2),
}

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(
        st.sampled_from(["kind", "key", "request", "status", "result",
                         "attempts", "app_name", "kernels"]),
        children, max_size=4),
    max_leaves=8,
)
_RECORDS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["result", "job", "done", "header", "other"])},
    optional={"key": _JSON_VALUES, "request": _JSON_VALUES,
              "status": _JSON_VALUES, "result": _JSON_VALUES},
)
_TAILS = st.one_of(
    st.binary(max_size=200),
    st.lists(_JSON_VALUES | _RECORDS, max_size=4).map(
        lambda records: "".join(json.dumps(r) + "\n" for r in records).encode()),
)


class TestJournalFuzz:
    """Both journal loaders fail closed: a file either loads or raises a
    typed :mod:`repro.errors` exception naming the path and line, and a
    truncated journal loads exactly its complete lines."""

    @pytest.mark.parametrize("case", sorted(_BAD_RECORDS))
    def test_unusable_record_is_a_simulation_error(self, case, tmp_path):
        cls, line, number = _BAD_RECORDS[case]
        path = tmp_path / "bad.journal"
        header = _header(cls, tmp_path) if number > 1 else b""
        path.write_bytes(header + line.encode() + b"\n")
        with pytest.raises(SimulationError) as raised:
            cls.load(str(path))
        assert str(path) in str(raised.value)
        assert f"line {number}" in str(raised.value)

    @pytest.mark.parametrize("cls", [RunJournal, ServeJournal],
                             ids=["run", "serve"])
    @given(tail=_TAILS)
    @settings(max_examples=150, deadline=None)
    def test_any_bytes_after_the_header_load_or_raise_typed(
        self, cls, tail, tmp_path_factory
    ):
        directory = tmp_path_factory.mktemp("journal")
        path = directory / "fuzzed.journal"
        path.write_bytes(_header(cls, directory) + tail)
        try:
            cls.load(str(path))
        except SwiftSimError:
            pass

    @pytest.mark.parametrize("cls", [RunJournal, ServeJournal],
                             ids=["run", "serve"])
    def test_every_truncation_loads_its_complete_lines(self, cls, tmp_path):
        records, read_back = _three_records(cls)
        raw = _header(cls, tmp_path) + b"".join(
            json.dumps(r, sort_keys=True).encode() + b"\n" for r in records)
        path = tmp_path / "cut.journal"
        #: Byte offset just past each complete line: the header's, then
        #: one per record.
        ends = [at + 1 for at, byte in enumerate(raw) if byte == ord("\n")]
        expected = []
        for end in ends:
            path.write_bytes(raw[:end])
            expected.append(read_back(cls.load(str(path))))
        for cut in range(len(raw) + 1):
            path.write_bytes(raw[:cut])
            if cut < ends[0]:
                with pytest.raises(SimulationError, match="no header"):
                    cls.load(str(path))
                continue
            complete = sum(end <= cut for end in ends) - 1
            journal = cls.load(str(path))
            assert read_back(journal) == expected[complete], cut
            # The torn tail is dropped before the next append.
            journal.append({"kind": "other"})
            journal.close()
            assert path.read_bytes() == (
                raw[:ends[complete]] + b'{"kind": "other"}\n')


# ----------------------------------------------------------------------
# engine jump-exactness property tests


class _FuzzNode(ClockedModule):
    """A module with a pending-work heap that honors the jump contract.

    Each event it processes is appended to a shared log as
    ``(cycle, node, event_cycle)``; processing may (budget-limited) spawn
    future work for itself and inject work into a random peer via
    :meth:`Engine.wake` — the cross-module interaction pattern (core
    waking an idle memory system) clock jumping must not perturb."""

    def __init__(self, name, seed, budget, log):
        super().__init__(name)
        self.rng = random.Random(seed)
        self.budget = budget
        self.log = log
        self.pending = []
        self.peers = []
        self.engine = None

    def push(self, cycle):
        heapq.heappush(self.pending, cycle)

    def tick(self, cycle):
        while self.pending and self.pending[0] <= cycle:
            due = heapq.heappop(self.pending)
            self.log.append((cycle, self.name, due))
            if self.budget > 0:
                self.budget -= 1
                roll = self.rng.random()
                if roll < 0.6:
                    self.push(cycle + 1 + self.rng.randrange(8))
                if roll < 0.4 and self.peers:
                    peer = self.rng.choice(self.peers)
                    wake_at = cycle + 1 + self.rng.randrange(6)
                    peer.push(wake_at)
                    self.engine.wake(peer, wake_at)
        return self.pending[0] if self.pending else None

    def is_done(self):
        return not self.pending


def _run_fuzz_graph(seed, allow_jump, strict_sanitize=False, checker=None):
    """Build a random node graph from ``seed`` and run it to completion."""
    rng = random.Random(derive_seed("fuzz-graph", seed))
    log = []
    engine = Engine(allow_jump=allow_jump)
    if strict_sanitize:
        engine.attach_checker(EngineSanitizer(strict=True))
    elif checker is not None:
        engine.attach_checker(checker)
    nodes = [
        _FuzzNode(
            f"n{i}",
            seed=derive_seed("fuzz-node", seed, i),
            budget=1 + rng.randrange(12),
            log=log,
        )
        for i in range(2 + rng.randrange(5))
    ]
    for node in nodes:
        node.engine = engine
        node.peers = [peer for peer in nodes if peer is not node]
        node.push(rng.randrange(4))
        engine.add(node)
    final_cycle = engine.run(max_cycles=100_000)
    return final_cycle, log


class TestEngineClockingFuzz:
    """Random module graphs under allow_jump=True vs False must produce
    identical final cycles and identical event processing order."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_jump_equals_per_cycle(self, seed):
        jump_final, jump_log = _run_fuzz_graph(seed, allow_jump=True)
        slow_final, slow_log = _run_fuzz_graph(seed, allow_jump=False)
        assert jump_final == slow_final
        assert jump_log == slow_log

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_sanitizer_clean_on_random_graphs(self, seed):
        # Strict sanitizer raises CheckError on any scheduling-invariant
        # violation, so plain completion is the assertion.
        for allow_jump in (True, False):
            _run_fuzz_graph(seed, allow_jump, strict_sanitize=True)

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_profiler_attribution_conserves_cycles(self, seed, allow_jump):
        """Cycle-attribution accounting on random topologies: per module,
        ticked + skipped cycles exactly tile the module's active window
        (no double-counted, no lost cycles), and the per-module tick
        counts sum to the engine's dispatch total."""
        from repro.profile import ModuleProfiler

        dispatches = []  # independent of the profiler's own bookkeeping

        class CountingProfiler(ModuleProfiler):
            def on_tick(self, module, cycle, rank):
                dispatches.append((module.name, cycle))
                super().on_tick(module, cycle, rank)

        profiler = CountingProfiler()
        final_cycle, log = _run_fuzz_graph(seed, allow_jump, checker=profiler)
        plain_final, plain_log = _run_fuzz_graph(seed, allow_jump)
        # Observing must not perturb: identical run with and without it.
        assert final_cycle == plain_final
        assert log == plain_log
        assert profiler.total_dispatches == len(dispatches)
        assert profiler.total_ticked == sum(
            stats.ticks for stats in profiler.stats.values()
        ) == len(dispatches)
        # All fuzz nodes are added at engine start (cycle 0), so every
        # module's window is [0, final_cycle].
        for stats in profiler.stats.values():
            assert stats.ticks + stats.skipped_cycles == final_cycle + 1, stats.name
            assert 0.0 <= stats.jump_efficiency <= 1.0

    def test_derive_seed_is_stable_across_processes(self):
        # Literal value locks the FNV-1a derivation: seeds must not depend
        # on PYTHONHASHSEED or drift between runs/machines.
        assert derive_seed("trace", "gemm", "tiny") == 702901420339448120
        assert derive_seed("trace", "gemm", "tiny") != derive_seed(
            "trace", "gemm", "small"
        )
