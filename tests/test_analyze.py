"""Tests for :mod:`repro.analyze`, the framework-contract linter.

The seeded fixture files under ``tests/data/lint_fixtures/`` plant one
example of every rule violation; ``good_module.py`` exercises the same
constructs done right and must stay silent.  The self-lint test at the
bottom is the real deliverable: the package's own source passes every
rule, with its one noqa waiver counted.  Which rules exist at all was
decided by seeding real bugs (``tests/test_modularity_trial.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analyze import RULES, lint_paths
from repro.check import MODES, static_check
from repro.cli import main
from repro.errors import CounterKindError
from repro.sim.module import Counters

from conftest import cross_shard_source

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: rule -> expected hit count in the seeded fixtures.
EXPECTED = {
    "DT203": 1,  # set iteration in tick
    "SH501": 1,  # RacyProducer writes RxQueue.drained directly
    "SH502": 1,  # scratch dict aliased across the enqueue port
}


@pytest.fixture(scope="module")
def fixture_report():
    return lint_paths([FIXTURES])


class TestSeededFixtures:
    def test_every_rule_fires_exactly_as_planted(self, fixture_report):
        counts = {}
        for finding in fixture_report.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        assert counts == EXPECTED
        assert sorted(EXPECTED) == sorted(RULES)

    def test_good_and_suppressed_files_stay_silent(self, fixture_report):
        flagged = {finding.path for finding in fixture_report.findings}
        assert not any("good_module" in path for path in flagged)
        assert not any("suppressed" in path for path in flagged)

    def test_noqa_suppression_is_counted_not_silent(self, fixture_report):
        assert fixture_report.suppressed == 1

    def test_gate_fails_on_fresh_errors(self, fixture_report):
        assert not fixture_report.ok
        assert f"FAIL: {sum(EXPECTED.values())} finding(s)" in (
            fixture_report.render()
        )


class TestNoqa:
    def test_scoped_noqa_only_covers_listed_rules(self, tmp_path):
        bad = tmp_path / "race.py"
        bad.write_text(cross_shard_source(
            "self.peer.drained = 0  # repro: noqa[DT203]"
        ))
        report = lint_paths([bad])
        assert [f.rule for f in report.findings] == ["SH501"]
        assert report.suppressed == 0

    def test_noqa_covers_only_its_own_line(self, tmp_path):
        bad = tmp_path / "race.py"
        bad.write_text(cross_shard_source(
            "self.peer.drained = (\n"
            "            0  # repro: noqa[SH501]\n"
            "        )"
        ))
        report = lint_paths([bad])
        assert [f.rule for f in report.findings] == ["SH501"]
        assert report.suppressed == 0


class TestCli:
    def test_lint_fixtures_exits_nonzero(self, capsys):
        assert main(["lint", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_json_report(self, tmp_path, capsys):
        json_path = tmp_path / "lint.json"
        assert main(["lint", str(FIXTURES), "--json", str(json_path)]) == 1
        capsys.readouterr()
        payload = json.loads(json_path.read_text())
        assert payload["ok"] is False
        assert payload["suppressed"] == 1
        assert {f["rule"] for f in payload["findings"]} == set(EXPECTED)

    def test_bad_fail_on_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", str(FIXTURES), "--fail-on", "everything"])

    @pytest.mark.parametrize("retired", [
        ["--baseline", "baseline.json"],
        ["--write-baseline", "baseline.json"],
        ["--prune-baseline"],
        ["--cache", "ast.cache"],
        ["--format", "json"],
        ["--rules", "DT"],
        ["--fail-on", "warning"],
        ["--list-rules"],
    ])
    def test_retired_flags_are_usage_errors(self, retired, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(FIXTURES), *retired])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestStaticPillar:
    def test_mode_is_registered(self):
        assert "static" in MODES

    def test_violations_map_from_lint_errors(self):
        findings = static_check(paths=[FIXTURES])
        assert sorted(f.message.split()[0] for f in findings) == sorted(
            EXPECTED
        )
        assert {f.severity for f in findings} == {"violation"}

    def test_package_source_is_a_clean_pillar(self):
        findings = static_check(paths=[REPO_SRC])
        assert [f for f in findings if f.severity == "violation"] == []
        assert any("clean" in f.message for f in findings)


class TestSelfLint:
    def test_repo_source_lints_clean(self):
        report = lint_paths([REPO_SRC])
        assert report.findings == [], "\n" + report.render()
        assert report.ok
        # The one waiver in src/ (an SH502 noqa) stays visible as a count.
        assert report.suppressed == 1

    def test_cli_self_lint_exit_zero(self, capsys):
        assert main(["lint", str(REPO_SRC)]) == 0
        assert "PASS" in capsys.readouterr().out


class TestCounterKinds:
    def test_add_then_peak_on_one_name_raises(self):
        counters = Counters()
        counters["issued"] += 1
        with pytest.raises(CounterKindError):
            counters.peak("issued", 5)

    def test_peak_then_add_on_one_name_raises(self):
        counters = Counters()
        counters.peak("occupancy", 3)
        with pytest.raises(CounterKindError):
            counters["occupancy"] += 1

    def test_same_kind_reuse_is_fine(self):
        counters = Counters()
        counters["issued"] += 2
        counters["issued"] += 3
        counters.peak("occupancy", 1)
        counters.peak("occupancy", 4)
        assert counters.get("issued") == 5
        assert counters.get("occupancy") == 4

    def test_reset_forgets_kinds(self):
        counters = Counters()
        counters["issued"] += 1
        counters.reset()
        counters.peak("issued", 7)
        assert counters.get("issued") == 7
