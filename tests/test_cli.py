"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.frontend.config_io import save_gpu_config

from conftest import make_tiny_gpu


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.json"
    save_gpu_config(make_tiny_gpu(), path)
    return str(path)


class TestInformational:
    def test_apps_lists_all(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in ("bfs", "gemm", "sm", "gru", "pagerank"):
            assert name in out
        for suite in ("rodinia", "polybench", "mars", "tango", "pannotia"):
            assert suite in out

    def test_presets(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "rtx2080ti" in out and "68 SMs" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out and "TABLE II" in out and "4352" in out


class TestSimulate:
    def test_simulate_preset_app(self, capsys, tiny_config_path):
        code = main([
            "simulate", "--app", "gemm", "--scale", "tiny",
            "--config", tiny_config_path, "--simulator", "swift-basic",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "swift-basic" in out and "ipc" in out

    def test_simulate_with_metrics_dump(self, capsys, tiny_config_path):
        code = main([
            "simulate", "--app", "sm", "--scale", "tiny",
            "--config", tiny_config_path, "--metrics",
        ])
        assert code == 0
        assert "instructions_committed" in capsys.readouterr().out

    def test_simulate_from_trace_file(self, capsys, tmp_path, tiny_config_path):
        trace_path = tmp_path / "app.trace"
        assert main(["trace", "--app", "nw", "--scale", "tiny",
                     "--out", str(trace_path)]) == 0
        capsys.readouterr()
        code = main([
            "simulate", "--trace", str(trace_path), "--config", tiny_config_path,
        ])
        assert code == 0
        assert "nw" in capsys.readouterr().out

    def test_unknown_app_exits_2(self, capsys):
        assert main(["simulate", "--app", "crysis"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_app_and_trace_exits_2(self, capsys):
        assert main(["simulate"]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_preset_exits_2(self, capsys):
        assert main(["simulate", "--app", "bfs", "--gpu", "voodoo2"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCompare:
    def test_compare_prints_all_simulators(self, capsys, tiny_config_path):
        code = main([
            "compare", "--app", "gemm", "--scale", "tiny",
            "--config", tiny_config_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("accel-like", "swift-basic", "swift-memory", "interval", "oracle"):
            assert name in out


class TestAnalyze:
    def test_analyze_prints_bottleneck_report(self, capsys, tiny_config_path):
        code = main([
            "analyze", "--app", "bfs", "--scale", "tiny",
            "--config", tiny_config_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bottleneck classification" in out
        assert "memory intensity" in out

    def test_simulate_with_interval_simulator(self, capsys, tiny_config_path):
        code = main([
            "simulate", "--app", "sm", "--scale", "tiny",
            "--config", tiny_config_path, "--simulator", "interval",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulator  : interval\n" in out


class TestEngineOnlyCommands:
    """``analyze`` and ``guard`` observe an engine: a closed-form tier is
    a typed error (exit 2), raised before the app is even resolved."""

    @pytest.fixture(autouse=True)
    def no_app(self, monkeypatch):
        import repro.cli as cli

        def resolve(args):
            raise AssertionError("the app was resolved")

        monkeypatch.setattr(cli, "_resolve_app", resolve)

    @pytest.mark.parametrize("simulator", ["swift-analytic", "interval"])
    @pytest.mark.parametrize("command", ["analyze", "guard"])
    def test_closed_form_tier_refused(self, capsys, tiny_config_path,
                                      command, simulator):
        code = main([
            command, "--app", "gemm", "--scale", "tiny",
            "--config", tiny_config_path, "--simulator", simulator,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{simulator} has no engine" in err
        assert "swift-basic" in err

    def test_guard_injection_is_refused_not_ignored(self, tmp_path,
                                                     tiny_config_path):
        bundles = tmp_path / "bundles"
        code = main([
            "guard", "--app", "gemm", "--scale", "tiny",
            "--config", tiny_config_path, "--simulator", "swift-analytic",
            "--inject", "stall", "--bundle-dir", str(bundles),
        ])
        assert code == 2
        assert not bundles.exists()


class TestReportCommand:
    def test_report_writes_file(self, capsys, tmp_path, monkeypatch):
        import repro.eval.report as report_module
        monkeypatch.setattr(
            report_module, "generate_report",
            lambda **kwargs: "# stub report\n",
        )
        out_path = tmp_path / "EXP.md"
        code = main(["report", "--scale", "tiny", "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text() == "# stub report\n"
        assert "wrote report" in capsys.readouterr().out


class TestCheckCommand:
    def test_check_all_modes_pass(self, capsys, tiny_config_path):
        code = main([
            "check", "--mode", "all", "--apps", "gemm",
            "--config", tiny_config_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS: no invariant violations" in out

    def test_check_writes_json_report(self, capsys, tmp_path, tiny_config_path):
        report_path = tmp_path / "check.json"
        code = main([
            "check", "--mode", "shadow-jump", "--apps", "sm",
            "--config", tiny_config_path, "--json", str(report_path),
        ])
        assert code == 0
        data = json.loads(report_path.read_text())
        assert data["ok"] is True
        assert data["mode"] == "shadow-jump"
        assert data["apps"] == ["sm"]
        assert data["violations"] == 0

    def test_check_verbose_shows_info_findings(self, capsys, tiny_config_path):
        code = main([
            "check", "--mode", "sanitize", "--apps", "gemm",
            "--config", tiny_config_path, "--verbose",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[info] sanitizer" in out

    def test_check_violations_exit_1(self, capsys, tiny_config_path):
        # An absurdly tight divergence bound makes the (healthy) hybrid
        # simulators violate it — exercising the failure exit path.
        code = main([
            "check", "--mode", "differential", "--apps", "bfs",
            "--config", tiny_config_path, "--tolerance", "0.0001",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "exceeds" in out

    def test_check_static_mode_is_gone_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--mode", "static"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'static'" in capsys.readouterr().err

    def test_check_unknown_suite_exits_2(self, capsys, tiny_config_path):
        code = main([
            "check", "--suite", "spec2017", "--config", tiny_config_path,
        ])
        assert code == 2
        assert "unknown suite" in capsys.readouterr().err


class TestRetiredCommands:
    @pytest.mark.parametrize("retired", [
        ["chaos", "--smoke"],
        ["guard", "--app", "bfs", "--inject-at", "5"],
        ["guard", "--app", "bfs", "--trace-window", "8"],
    ])
    def test_retired_command_and_flags_are_usage_errors(self, retired,
                                                        capsys):
        """`repro chaos` folded into `repro check --mode resilience` and
        `--mode guard`; the guard's injection cycle and event window are
        constants."""
        with pytest.raises(SystemExit) as exc:
            main(retired)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err


class TestFigures:
    def test_figure4_subset(self, capsys, monkeypatch):
        # Full presets are too slow for unit tests; patch the default GPU.
        import repro.eval.figures as figures
        monkeypatch.setattr(figures, "RTX_2080_TI", make_tiny_gpu())
        code = main(["figure4", "--scale", "tiny", "--apps", "gemm,sm"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FIGURE 4" in out and "gemm" in out and "MEAN/GEOMEAN" in out
