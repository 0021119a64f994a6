"""Self-test of the perf benchmark (not part of the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Runs the harness once in ``--quick`` mode (tiny scale, two passes, well
under a minute) and holds its outputs, ``BENCHMARK.json`` and
``compare.py`` to the contract the benchmark is accepted under.
"""

from __future__ import annotations

import copy
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

import benchspec  # noqa: E402
import compare  # noqa: E402
from benchlib import Ctx, Tracer, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
REPO_ROOT = PERF_DIR.parent.parent


def run_py(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick")
    completed = run_py("--quick", "--seed", "11", "--out", str(out))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return {
        "stdout": completed.stdout,
        "results": json.loads((out / "results.json").read_text()),
        "trace": json.loads((out / "trace.json").read_text()),
    }


class TestBenchmarkJson:
    document = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

    def test_matches_the_tables(self):
        assert self.document == benchspec.benchmark_json()

    def test_limits_and_names(self):
        doc = self.document
        assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
        assert doc["paths"] == ["benchmarks/perf"]
        assert 2 <= len(doc["workloads"]) <= 8
        assert 1 <= len(doc["end_to_end"]) <= 16
        assert 1 <= len(doc["per_layer"]) <= 128
        assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
        names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for entry in doc[key]]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
        for workload in doc["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        for metric in doc["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in doc["end_to_end"] + doc["per_layer"]:
            assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
        assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                          "bound": max(m["bound"] for m in doc["end_to_end"])}]
        assert len((REPO_ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


class TestQuickRun:
    def test_flagged_quick(self, quick):
        assert quick["results"]["quick"] is True
        assert "QUICK" in quick["stdout"]

    def test_every_declared_metric_is_emitted(self, quick):
        workloads = quick["results"]["workloads"]
        assert list(workloads) == list(benchspec.WORKLOADS)
        for workload, body in workloads.items():
            for metric in benchspec.native_for(workload):
                entry = body["end_to_end"][metric.name]
                assert entry["values"], (workload, metric.name)
                assert entry["unit"] == metric.unit
                assert f"  {metric.name} " in quick["stdout"]
            assert set(body["per_layer"]) == {m.name for m in benchspec.PER_LAYER}
            assert body["failed"] == 0 and body["attempted"] > 0
            assert body["end_to_end"]["fail_ratio"]["values"] == [0.0]

    def test_gated_metrics_are_never_zero(self, quick):
        for body in quick["results"]["workloads"].values():
            for metric in benchspec.GATED:
                assert all(v > 0 for v in body["end_to_end"][metric.name]["values"])

    def test_layers_are_zero_exactly_where_a_tier_does_not_run(self, quick):
        layers = {w: b["per_layer"] for w, b in quick["results"]["workloads"].items()}
        assert layers[benchspec.HYBRID]["sim.accel.calls"]["value"] == 0
        assert layers[benchspec.HYBRID]["memory.cache.memory.calls"]["value"] > 0
        assert layers[benchspec.COMPUTE]["sim.engine.accel.calls"]["value"] > 0
        assert layers[benchspec.COMPUTE]["memory.profile_s"]["value"] == 0
        assert layers[benchspec.DSE]["core.basic.calls"]["value"] == 0
        assert layers[benchspec.DSE]["frontend.analytic.calls"]["value"] > 0
        assert layers[benchspec.SERVE]["serve.stats.executed"]["value"] == 4
        assert layers[benchspec.SERVE]["serve.stats.failed"]["value"] == 4

    def test_span_parents_resolve_and_nest(self, quick):
        spans = quick["trace"]["spans"]
        assert spans
        by_run = {}
        for span in spans:
            by_run.setdefault(span["run_id"], {})[span["id"]] = span
        assert len(by_run) == len(benchspec.WORKLOADS)
        for run in by_run.values():
            for span in run.values():
                assert span["end"] >= span["start"]
                if span["parent"] is not None:
                    assert span["parent"] in run
            own = self_times(list(run.values()))
            roots = [s for s in run.values() if s["parent"] is None]
            assert len(roots) == 1 and roots[0]["name"] == "workload"
            # Child clocks are re-based from time.time(), so allow a little slack.
            assert all(seconds > -0.05 for seconds in own.values())
        names = {span["name"] for span in spans}
        assert {"simulate", "oracle.measure", "frontend.load_trace", "tracegen.make_app",
                "frontend.save_trace", "frontend.precharacterize", "eval.run_batched",
                "submit", "serve.store.put"} <= names

    def test_compare_accepts_itself_and_flags_a_regression(self, quick):
        results = quick["results"]
        assert compare.compare(results, results, True, out=io.StringIO()) == 0
        slower = copy.deepcopy(results)
        entry = slower["workloads"][benchspec.HYBRID]["end_to_end"]["pass_s"]
        entry["values"] = [v * 1.5 for v in entry["values"]]
        report = io.StringIO()
        assert compare.compare(results, slower, False, out=report) == 1
        assert "REGRESSION: hybrid-membound pass_s" in report.getvalue()
        recount = copy.deepcopy(results)
        recount["workloads"][benchspec.COMPUTE]["per_layer"]["sim.accel.cycles"]["value"] += 1
        assert compare.compare(results, recount, False, out=io.StringIO()) == 0
        assert compare.compare(results, recount, True, out=io.StringIO()) == 1


class TestCompareVerdicts:
    @staticmethod
    def entry(values, better="lower", bound=0.1, exact=False):
        return {"values": values, "better": better, "bound": bound, "exact": exact}

    def test_noise_wider_than_the_bound_is_unresolved_not_unchanged(self):
        noisy = self.entry([1.0, 1.3, 0.8, 1.2])
        assert compare.verdict(noisy, self.entry([1.0, 1.25, 0.85, 1.2])) == "unresolved"
        assert compare.verdict(noisy, self.entry([1.3, 1.4, 1.2, 1.6])) == "unresolved"
        assert compare.verdict(noisy, self.entry([0.5, 0.6, 0.55, 0.7])) == "better"

    def test_steady_runs_resolve(self):
        steady = self.entry([1.0, 1.01, 0.99, 1.0])
        assert compare.verdict(steady, self.entry([1.05, 1.04, 1.06, 1.05])) == "ok"
        assert compare.verdict(steady, self.entry([1.2, 1.21, 1.19, 1.2])) == "REGRESSION"
        faster = self.entry([10.0, 10.1], better="higher")
        assert compare.verdict(faster, self.entry([8.0, 8.1], better="higher")) == "REGRESSION"

    def test_exact_metrics_compare_for_equality(self):
        error = self.entry([20.5], bound=0.01, exact=True)
        assert compare.verdict(error, self.entry([20.5], bound=0.01, exact=True)) == "same"
        assert compare.verdict(error, self.entry([20.6], bound=0.01, exact=True)) == "REGRESSION"
        assert compare.verdict(error, self.entry([19.0], bound=0.01, exact=True)) == "changed"


class TestContractMode:
    def test_last_line_is_the_drivers_object(self):
        for trace, table in ((0, benchspec.GATED), (1, benchspec.PER_LAYER)):
            completed = run_py("--workload", benchspec.DSE, "--seed", "3",
                               "--seconds", "1", "--trace", str(trace), "--quick")
            assert completed.returncode == 0, completed.stderr
            line = json.loads(completed.stdout.strip().splitlines()[-1])
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0
            assert isinstance(line["attempted"], int) and line["attempted"] >= 1
            assert list(line["metrics"]) == [m.name for m in table]
            for metric in table:
                assert line["metrics"][metric.name]["unit"] == metric.unit
                assert isinstance(line["metrics"][metric.name]["value"], (int, float))

    def test_refuses_a_directory_without_the_source_tree(self, tmp_path):
        bare = tmp_path / "benchmarks" / "perf"
        bare.mkdir(parents=True)
        for path in PERF_DIR.glob("*.py"):
            (bare / path.name).write_text(path.read_text())
        completed = subprocess.run(
            [sys.executable, "benchmarks/perf/run.py", "--workload", benchspec.HYBRID,
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode != 0
        assert not completed.stdout.strip()

    def test_a_failed_check_counts_and_fails_the_run(self, tmp_path):
        ctx = Ctx("w", 1, 1.0, False, True, tmp_path, Tracer(False, ""))
        assert ctx.check(True, "fine") and not ctx.check(False, "cycles differ")
        assert (ctx.attempted, ctx.failed, ctx.failures) == (2, 1, ["cycles differ"])
