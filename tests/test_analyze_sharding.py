"""Tests for the whole-program shard-safety analyzer.

Covers the dataflow layers (:mod:`repro.analyze.callgraph`,
:mod:`repro.analyze.stateflow`), the SH rules on the seeded fixture and
on the package's own source, and the noqa edge cases.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analyze import RULES, lint_paths
from repro.analyze.callgraph import CallGraph
from repro.analyze.index import load_index
from repro.analyze.partition import Partition
from repro.analyze.stateflow import StateFlow
from repro.cli import main
from repro.errors import UnknownRuleError

from conftest import cross_shard_source

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
SHARDING_FIXTURE = FIXTURES / "bad_sharding.py"
REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(scope="module")
def fixture_flow():
    return StateFlow(CallGraph(load_index([SHARDING_FIXTURE])))


@pytest.fixture(scope="module")
def src_partition():
    return Partition(StateFlow(CallGraph(load_index([REPO_SRC]))))


class TestCallGraph:
    def test_port_marker_classifies_the_call_edge(self, fixture_flow):
        sites = [
            site for site in fixture_flow.graph.clocked_sites("RacyProducer")
            if site.callee_method == "enqueue"
        ]
        assert sites and all(site.kind == "port" for site in sites)
        assert all("RxQueue" in site.targets for site in sites)

    def test_clocked_surface_reaches_tick_helpers(self, src_partition):
        graph = src_partition.flow.graph
        # _release_block is reached only via SubCore._dispatch ->
        # SMCore.warp_finished, i.e. across classes: the cross-class
        # fixpoint must still mark it clocked.
        assert "_release_block" in graph.clocked_methods("SMCore")


class TestStateFlow:
    def test_foreign_write_is_recorded(self, fixture_flow):
        assert {
            (write.cls, write.attr)
            for write in fixture_flow.foreign_writes
            if write.owners == frozenset({"RxQueue"})
        } == {("RacyProducer", "drained")}

    def test_retaining_port_param_escapes(self, fixture_flow):
        assert fixture_flow.escaping_params("RxQueue", "enqueue") == frozenset(
            {"payload"}
        )


class TestShardingRules:
    def test_fixture_plants_one_of_each(self):
        report = lint_paths([SHARDING_FIXTURE])
        assert sorted(f.rule for f in report.findings) == ["SH501", "SH502"]
        by_rule = {f.rule: f for f in report.findings}
        assert "drained" in by_rule["SH501"].message
        assert "enqueue" in by_rule["SH502"].message

    def test_colocated_modules_are_not_flagged(self):
        # SubCore writes sm.last_completion on the SM that ticks it; the
        # partition colocates them, so SH501 must stay silent there.
        report = lint_paths([REPO_SRC])
        assert [f for f in report.findings if f.rule.startswith("SH")] == []


class TestPartition:
    def test_src_splits_sm_side_from_memory_side(self, src_partition):
        domain = src_partition.domain_for
        # The LD/ST units tick with their SM; the memory systems they
        # call through ports are clock domains of their own.
        for unit in ("QueuedLDSTUnit", "AnalyticalLDSTUnit", "DetailedLDSTUnit"):
            assert domain(unit) == domain("SMCore")
        for memory in ("QueuedMemorySystem", "DetailedMemorySystem",
                       "AnalyticalMemoryModel", "BlockScheduler"):
            assert domain(memory) != domain("SMCore")

    def test_cross_domain_call_edges_are_all_ports(self, src_partition):
        graph = src_partition.flow.graph
        domain = src_partition.domain_for
        crossing = [
            site
            for cls in sorted(graph.module_names)
            for site in graph.clocked_sites(cls)
            if any(domain(target) != domain(cls) for target in site.targets
                   if target in graph.module_names)
        ]
        assert crossing and all(site.kind == "port" for site in crossing)
        # block_done is reached only via the cross-class clocked path.
        assert "block_done" in {site.callee_method for site in crossing}


class TestNoqaEdgeCases:
    def test_multiple_rules_in_one_comment(self, tmp_path):
        bad = tmp_path / "race.py"
        bad.write_text(cross_shard_source(
            "self.peer.drained = 0  # repro: noqa[DT203, SH501]"
        ))
        report = lint_paths([bad])
        assert report.findings == []
        assert report.suppressed == 1

    def test_noqa_on_def_header_does_not_cover_the_body(self, tmp_path):
        bad = tmp_path / "race.py"
        bad.write_text(cross_shard_source("self.peer.drained = 0").replace(
            "    def tick(self, cycle):\n        self.peer",
            "    def tick(self, cycle):  # repro: noqa[SH501]\n        self.peer",
        ))
        report = lint_paths([bad])
        assert [f.rule for f in report.findings] == ["SH501"]

    def test_unknown_rule_name_is_a_typed_error(self, tmp_path):
        bad = tmp_path / "wall.py"
        bad.write_text("x = 1  # repro: noqa[DT999]\n")
        with pytest.raises(UnknownRuleError) as excinfo:
            lint_paths([bad])
        assert "DT999" in str(excinfo.value)
        assert all(rule in str(excinfo.value) for rule in RULES)

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
