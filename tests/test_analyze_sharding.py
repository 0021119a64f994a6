"""Tests for the whole-program shard-safety analyzer.

Covers the dataflow layers (:mod:`repro.analyze.callgraph`,
:mod:`repro.analyze.stateflow`), the SH rule family on the seeded
fixture, the partition manifest for the package's own source, and the
CLI surface added alongside (``--partition-report``, noqa edge cases).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analyze import (
    build_callgraph,
    build_partition,
    build_stateflow,
    lint_paths,
)
from repro.analyze.index import load_index
from repro.analyze.partition import MANIFEST_FORMAT, MEM_SIDE, SM_SIDE
from repro.cli import main
from repro.errors import UnknownRuleError

from conftest import cross_shard_source

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
SHARDING_FIXTURE = FIXTURES / "bad_sharding.py"
REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(scope="module")
def fixture_index():
    return load_index([SHARDING_FIXTURE])


@pytest.fixture(scope="module")
def src_index():
    return load_index([REPO_SRC])


class TestCallGraph:
    def test_port_marker_classifies_the_call_edge(self, fixture_index):
        graph = build_callgraph(fixture_index)
        sites = [
            site for site in graph.clocked_sites("RacyProducer")
            if site.callee_method == "enqueue"
        ]
        assert sites and all(site.kind == "port" for site in sites)
        assert all("RxQueue" in site.targets for site in sites)

    def test_clocked_surface_reaches_tick_helpers(self, src_index):
        graph = build_callgraph(src_index)
        # _release_block is reached only via SubCore._dispatch ->
        # SMCore.warp_finished, i.e. across classes: the cross-class
        # fixpoint must still mark it clocked.
        assert "_release_block" in graph.clocked_methods("SMCore")

    def test_memoized_on_the_index(self, src_index):
        assert build_callgraph(src_index) is build_callgraph(src_index)


class TestStateFlow:
    def test_foreign_write_and_read_are_recorded(self, fixture_index):
        flow = build_stateflow(fixture_index)
        kinds = {
            (access.cls, access.attr, access.kind)
            for access in flow.foreign
            if access.owners == frozenset({"RxQueue"})
        }
        assert ("RacyProducer", "drained", "write") in kinds
        assert ("RacyProducer", "drained", "read") in kinds

    def test_retaining_port_param_escapes(self, fixture_index):
        flow = build_stateflow(fixture_index)
        assert flow.escaping_params("RxQueue", "enqueue") == frozenset(
            {"payload"}
        )

    def test_owner_writes_on_its_own_clock(self, fixture_index):
        flow = build_stateflow(fixture_index)
        assert flow.writes_on_clock("RxQueue", "drained")
        assert not flow.writes_on_clock("RxQueue", "inbox") or True


class TestShardingRules:
    def test_fixture_plants_one_of_each(self, fixture_index):
        report = lint_paths(
            [SHARDING_FIXTURE], index=fixture_index, fail_on="warning"
        )
        assert sorted(f.rule for f in report.findings) == [
            "SH501", "SH502", "SH503",
        ]
        by_rule = {f.rule: f for f in report.findings}
        assert "drained" in by_rule["SH501"].message
        assert "enqueue" in by_rule["SH502"].message
        assert "tick-order" in by_rule["SH503"].message

    def test_colocated_modules_are_not_flagged(self, src_index):
        # SubCore reads unit.busy on children it ticks itself; the
        # partition colocates them, so SH503 must stay silent there.
        report = lint_paths([REPO_SRC], index=src_index, fail_on="warning")
        assert [f for f in report.findings if f.rule.startswith("SH")] == []


class TestPartitionManifest:
    def test_src_splits_into_sm_and_memory_shards(self, src_index):
        manifest = build_partition(src_index).manifest(src_index)
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["summary"]["shards"] >= 2
        components = {
            shard["name"]: set(shard["components"])
            for shard in manifest["shards"]
        }
        assert components["sm"] <= SM_SIDE
        assert any(comps <= MEM_SIDE for comps in components.values())

    def test_cross_shard_edges_are_all_ports(self, src_index):
        manifest = build_partition(src_index).manifest(src_index)
        edges = manifest["cross_shard_edges"]
        assert edges, "expected at least one declared cross-shard edge"
        assert all(edge["kind"] == "port" for edge in edges)
        assert all(
            edge["from_shard"] != edge["to_shard"] for edge in edges
        )
        callees = {edge["callee"] for edge in edges}
        assert "block_done" in callees  # reached via the cross-class path

    def test_src_has_no_unsynchronized_crossings(self, src_index):
        manifest = build_partition(src_index).manifest(src_index)
        assert manifest["summary"]["unsynchronized_writes"] == 0
        assert manifest["summary"]["unsynchronized_reads"] == 0

    def test_fixture_race_lands_in_the_manifest(self, fixture_index):
        manifest = build_partition(fixture_index).manifest(fixture_index)
        writes = manifest["unsynchronized_writes"]
        assert [w["attr"] for w in writes] == ["drained"]
        assert writes[0]["from_shard"] != writes[0]["to_shards"][0]

    def test_noqa_is_a_sign_off_for_the_manifest(self, tmp_path):
        waved = tmp_path / "waved.py"
        waved.write_text(
            SHARDING_FIXTURE.read_text().replace(
                "self.peer.drained = 0  # SH501: cross-shard write, no port",
                "self.peer.drained = 0  # repro: noqa[SH501,SH503]",
            ).replace(
                "if self.peer.drained > 4:  # SH503: tick-order dependent read",
                "if self.peer.drained > 4:  # repro: noqa[SH503]",
            )
        )
        index = load_index([waved])
        manifest = build_partition(index).manifest(index)
        assert manifest["summary"]["unsynchronized_writes"] == 0
        assert manifest["summary"]["unsynchronized_reads"] == 0


class TestPartitionCli:
    def test_report_written_and_gate_passes_on_src(self, tmp_path, capsys):
        out = tmp_path / "manifest.json"
        assert main(
            ["lint", str(REPO_SRC), "--partition-report", str(out)]
        ) == 0
        assert "partition manifest" in capsys.readouterr().out
        manifest = json.loads(out.read_text())
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["summary"]["unsynchronized_writes"] == 0

    def test_report_is_the_same_bytes_under_any_hash_seed(self, tmp_path):
        # Call sites leave the graph in set order; two seeds that are
        # known to swap two cross-shard edges must still write one file.
        reports = []
        for seed in ("1", "3"):
            out = tmp_path / f"manifest-{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(REPO_SRC.parent))
            subprocess.run(
                [sys.executable, "-m", "repro", "lint", str(REPO_SRC),
                 "--partition-report", str(out)],
                env=env, check=True, capture_output=True,
            )
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        summary = json.loads(reports[0])["summary"]
        assert (summary["shards"], summary["cross_shard_edges"],
                summary["unsynchronized_writes"]) == (6, 7, 0)

    def test_gate_fails_on_unsynchronized_writes(self, tmp_path, capsys):
        # Without SH501 only warnings fire on the fixture, so the lint
        # passes under --fail-on error; the partition gate must still
        # reject the racy write.
        out = tmp_path / "manifest.json"
        assert main(
            ["lint", str(SHARDING_FIXTURE), "--rules", "SH502,SH503",
             "--fail-on", "error", "--partition-report", str(out)]
        ) == 1
        assert "PASS" in capsys.readouterr().out
        manifest = json.loads(out.read_text())
        assert manifest["summary"]["unsynchronized_writes"] == 1


class TestNoqaEdgeCases:
    def test_multiple_rules_in_one_comment(self, tmp_path):
        bad = tmp_path / "race.py"
        bad.write_text(cross_shard_source(
            "self.peer.drained = self.peer.drained + 1"
            "  # repro: noqa[SH501, SH503]"
        ))
        report = lint_paths([bad], fail_on="warning")
        assert report.findings == []
        assert report.suppressed == 2

    def test_noqa_on_multiline_statement_covers_the_span(self, tmp_path):
        bad = tmp_path / "race.py"
        bad.write_text(cross_shard_source(
            "self.peer.drained = (\n"
            "            0  # repro: noqa[SH501]\n"
            "        )"
        ))
        report = lint_paths([bad], fail_on="warning")
        assert report.findings == []
        assert report.suppressed == 1

    def test_noqa_on_def_header_does_not_cover_the_body(self, tmp_path):
        bad = tmp_path / "race.py"
        bad.write_text(cross_shard_source("self.peer.drained = 0").replace(
            "    def tick(self, cycle):\n        self.peer",
            "    def tick(self, cycle):  # repro: noqa[SH501]\n        self.peer",
        ))
        report = lint_paths([bad], fail_on="warning")
        assert [f.rule for f in report.findings] == ["SH501"]

    def test_unknown_rule_name_is_a_typed_error(self, tmp_path):
        bad = tmp_path / "wall.py"
        bad.write_text("x = 1  # repro: noqa[DT999]\n")
        with pytest.raises(UnknownRuleError) as excinfo:
            lint_paths([bad])
        assert "DT999" in str(excinfo.value)
        assert "--list-rules" in str(excinfo.value)

    def test_unknown_rule_name_exits_two_from_cli(self, tmp_path, capsys):
        bad = tmp_path / "wall.py"
        bad.write_text("x = 1  # repro: noqa[ZZ000]\n")
        assert main(["lint", str(bad)]) == 2
        assert "ZZ000" in capsys.readouterr().err

    def test_docstrings_mentioning_noqa_are_inert(self, tmp_path):
        ok = tmp_path / "docs.py"
        ok.write_text(
            '"""Suppress with ``# repro: noqa[XX999]`` on the line."""\n'
            "x = 1\n"
        )
        report = lint_paths([ok])
        assert report.findings == [] and report.suppressed == 0
