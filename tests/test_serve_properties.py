"""Property-based tests for the serve cache-key discipline and the
request-line boundary.

The content-addressed cache is only safe if the key is a pure function
of *meaning*: two spellings of the same configuration must collide, and
two different configurations must never collide.  Hypothesis explores
the spelling space (dict ordering, float formatting, nesting) far
beyond what example-based tests cover.

The socket is an external boundary (ROADMAP item 8): whatever line a
client sends, the server answers it with one typed error and keeps the
connection, or, for a line too long to frame, answers and closes it.
"""

import asyncio
import json
import math

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ServeError
from repro.frontend.config_io import gpu_config_to_dict
from repro.serve.journal import ServeJournal
from repro.serve.keys import canonical_json, config_hash, job_key
from repro.serve.service import LINE_LIMIT, SweepService
from repro.serve.store import ResultStore
from repro.tracegen.suites import APPLICATIONS

from conftest import make_tiny_gpu, serve_connection

# Scalars whose canonical form must be spelling-independent.
scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.none(),
)

config_dicts = st.recursive(
    st.dictionaries(st.text(min_size=1, max_size=12), scalars, max_size=6),
    lambda children: st.dictionaries(
        st.text(min_size=1, max_size=12),
        st.one_of(scalars, children, st.lists(scalars, max_size=4)),
        max_size=6,
    ),
    max_leaves=24,
)


def reorder(value):
    """Rebuild ``value`` with every dict's insertion order reversed."""
    if isinstance(value, dict):
        return {k: reorder(value[k]) for k in reversed(list(value))}
    if isinstance(value, list):
        return [reorder(item) for item in value]
    return value


def refloat(value):
    """Respell integral numbers as floats (2 -> 2.0) throughout."""
    if isinstance(value, dict):
        return {k: refloat(v) for k, v in value.items()}
    if isinstance(value, list):
        return [refloat(item) for item in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and abs(value) < 2 ** 53:
        return float(value)
    return value


class TestCanonicalInvariance:
    @settings(max_examples=200)
    @given(config_dicts)
    def test_key_ignores_dict_ordering(self, config):
        assert config_hash(config) == config_hash(reorder(config))

    @settings(max_examples=200)
    @given(config_dicts)
    def test_key_ignores_float_formatting(self, config):
        assert config_hash(config) == config_hash(refloat(config))

    @settings(max_examples=200)
    @given(config_dicts)
    def test_canonical_json_is_a_fixpoint(self, config):
        # Canonicalizing the parse of a canonical form changes nothing.
        first = canonical_json(config)
        assert canonical_json(json.loads(first)) == first

    @settings(max_examples=200)
    @given(config_dicts, config_dicts)
    def test_distinct_configs_never_collide(self, a, b):
        # Distinctness is judged on the canonical form: {"x": 2} and
        # {"x": 2.0} are the *same* config by design.
        if canonical_json(a) != canonical_json(b):
            assert config_hash(a) != config_hash(b)

    @settings(max_examples=100)
    @given(config_dicts)
    def test_job_key_separates_simulators(self, config):
        digest = config_hash(config)
        keys = {
            job_key("t0", digest, simulator)
            for simulator in ("accel-like", "swift-basic", "swift-memory",
                              "interval", "swift-analytic")
        }
        assert len(keys) == 5

    @settings(max_examples=100)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_integral_floats_always_collapse(self, value):
        if value.is_integer():
            assert canonical_json(value) == canonical_json(int(value))
        else:
            # Round-trip must preserve the exact value (repr fidelity).
            assert json.loads(canonical_json(value)) == value

    @settings(max_examples=50)
    @given(st.sampled_from([float("nan"), float("inf"), float("-inf")]),
           config_dicts)
    def test_non_finite_rejected_anywhere(self, bad, config):
        poisoned = dict(config)
        poisoned["__bad__"] = bad
        with pytest.raises(ServeError):
            config_hash(poisoned)
        assert math.isnan(bad) or math.isinf(bad)


# ----------------------------------------------------------------------
# the request-line boundary

SUBMIT = {"op": "submit", "app": "gemm", "scale": "tiny",
          "simulator": "swift-basic"}
PING = b'{"op": "ping"}\n'


def line(value) -> bytes:
    return (json.dumps(value) + "\n").encode("utf-8")


def with_field(path, value):
    config = gpu_config_to_dict(make_tiny_gpu())
    config[path] = value
    return config


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

#: (line, whether the server must close the connection after answering)
hostile_lines = st.one_of(
    # arbitrary bytes; none spells a real op
    st.binary(max_size=300).filter(lambda raw: b"op" not in raw)
    .map(lambda raw: (raw.replace(b"\n", b"") + b"\n", False)),
    # well-formed JSON that is not an object
    json_values.filter(lambda value: not isinstance(value, dict))
    .map(lambda value: (line(value), False)),
    # unknown ops
    st.one_of(st.text(max_size=12), json_values)
    .filter(lambda op: op not in ("ping", "stats", "drain", "submit"))
    .map(lambda op: (line({"op": op}), False)),
    # unknown apps and simulators
    st.text(max_size=12).filter(lambda app: app.lower() not in APPLICATIONS)
    .map(lambda app: (line(dict(SUBMIT, app=app)), False)),
    st.text(max_size=12).map(
        lambda sim: (line(dict(SUBMIT, simulator="x" + sim)), False)),
    # configs that are not configs, and configs with an invalid value
    st.one_of(json_values.filter(lambda config: config is not None),
              st.dictionaries(st.text(max_size=8), json_values))
    .map(lambda config: (line(dict(SUBMIT, config=config)), False)),
    st.tuples(st.sampled_from(["num_sms", "cuda_cores", "memory_partitions"]),
              st.one_of(st.integers(max_value=0), st.text(max_size=4)))
    .map(lambda bad: (line(dict(SUBMIT, config=with_field(*bad))), False)),
    # lines longer than the reader's limit
    st.integers(LINE_LIMIT, 2 * LINE_LIMIT)
    .map(lambda size: (line(dict(SUBMIT, app="x" * size)), True)),
)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")

    def runner(request, identity):
        raise AssertionError(f"a hostile line reached execution: {request}")

    return SweepService(
        ResultStore(str(root / "store")),
        ServeJournal.create(str(root / "serve.journal")),
        runner=runner, degraded_runner=runner,
    )


class TestLineBoundary:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(hostile_lines)
    def test_every_line_gets_one_typed_answer(self, service, hostile):
        raw, closes = hostile
        responses = asyncio.run(serve_connection(service, [raw, PING]))
        assert len(responses) == (1 if closes else 2)
        answer = responses[0]
        assert isinstance(answer, dict)
        assert answer["status"] == "error"
        assert answer["kind"] == "bad_request"
        if not closes:
            assert responses[1] == {"status": "ok", "pong": True}
        assert service._known_lines == {}
        assert len(service.journal) == 0
