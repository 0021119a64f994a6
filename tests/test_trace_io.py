"""Unit tests for the textual trace format (save/parse round trips)."""

import pytest

from repro.errors import TraceError
from repro.frontend.trace_io import load_trace, parse_trace, save_trace
from repro.tracegen.suites import make_app

from conftest import alu, load, make_single_warp_app


class TestRoundTrip:
    def test_simple_round_trip(self, tmp_path):
        app = make_single_warp_app([
            alu(0, 4, (1, 2)),
            load(16, 5, [0x10000 + 4 * i for i in range(32)]),
        ])
        path = tmp_path / "t.trace"
        save_trace(app, path)
        reloaded = load_trace(path)
        assert reloaded.name == app.name
        assert len(reloaded.kernels) == 1
        original = app.kernels[0].blocks[0].warps[0].instructions
        parsed = reloaded.kernels[0].blocks[0].warps[0].instructions
        assert parsed == original

    def test_generated_app_round_trip(self, tmp_path):
        app = make_app("pathfinder", scale="tiny")
        path = tmp_path / "pf.trace"
        save_trace(app, path)
        reloaded = load_trace(path)
        assert reloaded.suite == app.suite
        assert reloaded.num_instructions == app.num_instructions
        for k_orig, k_new in zip(app.kernels, reloaded.kernels):
            assert k_new.name == k_orig.name
            assert k_new.grid_dim == k_orig.grid_dim
            for b_orig, b_new in zip(k_orig.blocks, k_new.blocks):
                assert b_new.shared_mem_bytes == b_orig.shared_mem_bytes
                assert b_new.regs_per_thread == b_orig.regs_per_thread
                for w_orig, w_new in zip(b_orig.warps, b_new.warps):
                    assert w_new.instructions == w_orig.instructions

    def test_partial_mask_round_trip(self, tmp_path):
        app = make_single_warp_app([
            load(0, 3, [0x100, 0x200], mask=0b101),
        ])
        path = tmp_path / "m.trace"
        save_trace(app, path)
        inst = load_trace(path).kernels[0].blocks[0].warps[0].instructions[0]
        assert inst.active_mask == 0b101
        assert list(inst.addresses) == [0x100, 0x200]


class TestGzip:
    def test_gz_round_trip(self, tmp_path):
        app = make_app("pathfinder", scale="tiny")
        path = tmp_path / "pf.trace.gz"
        save_trace(app, path)
        reloaded = load_trace(path)
        assert reloaded.num_instructions == app.num_instructions

    def test_gz_actually_compressed(self, tmp_path):
        app = make_app("gemm", scale="tiny")
        plain = tmp_path / "g.trace"
        compressed = tmp_path / "g.trace.gz"
        save_trace(app, plain)
        save_trace(app, compressed)
        assert compressed.stat().st_size < plain.stat().st_size
        # Magic bytes confirm it is a real gzip stream.
        assert plain.read_bytes()[:2] != b"\x1f\x8b"
        assert compressed.read_bytes()[:2] == b"\x1f\x8b"

    def test_corrupt_gz_raises_trace_error(self, tmp_path):
        path = tmp_path / "bad.trace.gz"
        path.write_bytes(b"\x1f\x8bnot really gzip")
        with pytest.raises(TraceError, match="cannot read"):
            load_trace(path)


class TestParserErrors:
    def test_missing_header(self):
        with pytest.raises(TraceError, match="header"):
            parse_trace("app x suite=\nkernel k grid=1,1,1\n")

    def test_missing_app_line(self):
        with pytest.raises(TraceError):
            parse_trace("#SWIFTSIM-TRACE v1\nkernel k grid=1,1,1\n")

    def test_kernel_without_blocks(self):
        text = "#SWIFTSIM-TRACE v1\napp a suite=s\nkernel k grid=1,1,1\n"
        with pytest.raises(TraceError, match="no blocks"):
            parse_trace(text)

    def test_unknown_field_rejected(self):
        text = (
            "#SWIFTSIM-TRACE v1\napp a suite=s\nkernel k grid=1,1,1\n"
            "block 0 smem=0 regs=32\nwarp 0\n0x0000 EXIT z=1\n"
        )
        with pytest.raises(TraceError, match="unknown instruction field"):
            parse_trace(text)

    def test_malformed_pc(self):
        text = (
            "#SWIFTSIM-TRACE v1\napp a suite=s\nkernel k grid=1,1,1\n"
            "block 0\nwarp 0\nzzzz EXIT\n"
        )
        with pytest.raises(TraceError, match="malformed PC"):
            parse_trace(text)

    def test_error_includes_line_number(self):
        text = (
            "#SWIFTSIM-TRACE v1\napp a suite=s\nkernel k grid=1,1,1\n"
            "block 0\nwarp 0\nzzzz EXIT\n"
        )
        with pytest.raises(TraceError, match=":6:"):
            parse_trace(text)

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "#SWIFTSIM-TRACE v1\n\napp a suite=s\n# a comment\n"
            "kernel k grid=1,1,1\nblock 0\nwarp 0\n\n0x0000 EXIT\n"
        )
        app = parse_trace(text)
        assert app.kernels[0].blocks[0].warps[0].instructions[0].opcode == "EXIT"

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            load_trace(tmp_path / "nope.trace")

    def test_trace_invariants_enforced_by_parser(self):
        # warp without EXIT
        text = (
            "#SWIFTSIM-TRACE v1\napp a suite=s\nkernel k grid=1,1,1\n"
            "block 0\nwarp 0\n0x0000 IADD3 d=1\n"
        )
        with pytest.raises(TraceError):
            parse_trace(text)


GOOD_KERNEL = "kernel good grid=1,1,1\nblock 0 smem=0 regs=32\nwarp 0\n0x0000 EXIT\n"
BAD_KERNEL = "kernel bad grid=1,1,1\nblock 0 smem=zzz regs=32\nwarp 0\n0x0000 EXIT\n"
TRUNCATED_KERNEL = "kernel torn grid=1,1,1\nblock 1 smem=0 regs=32\nwarp 0\n"
HEADER = "#SWIFTSIM-TRACE v1\napp a suite=s\n"


class TestTraceCorruption:
    def test_typed_error_with_context(self):
        from repro.errors import TraceCorruption

        with pytest.raises(TraceCorruption) as exc_info:
            parse_trace(HEADER + BAD_KERNEL, source="bad.trace")
        exc = exc_info.value
        assert exc.source == "bad.trace"
        assert exc.line > 0
        assert str(exc).startswith(f"bad.trace:{exc.line}:")

    def test_corruption_is_a_trace_error(self):
        from repro.errors import TraceCorruption

        assert issubclass(TraceCorruption, TraceError)

    def test_malformed_block_field_rejected(self):
        with pytest.raises(TraceError, match="malformed block field"):
            parse_trace(HEADER + BAD_KERNEL)


class TestSkipCorruptKernels:
    def test_corrupt_kernel_dropped_good_ones_kept(self):
        text = HEADER + GOOD_KERNEL + BAD_KERNEL + GOOD_KERNEL
        app = parse_trace(text, skip_corrupt_kernels=True)
        assert [k.name for k in app.kernels] == ["good", "good"]

    def test_truncated_tail_kernel_dropped(self):
        text = HEADER + GOOD_KERNEL + TRUNCATED_KERNEL
        app = parse_trace(text, skip_corrupt_kernels=True)
        assert [k.name for k in app.kernels] == ["good"]

    def test_all_kernels_corrupt_still_raises(self):
        from repro.errors import TraceCorruption

        with pytest.raises(TraceCorruption, match="every kernel"):
            parse_trace(HEADER + BAD_KERNEL, skip_corrupt_kernels=True)

    def test_header_corruption_never_degrades(self):
        with pytest.raises(TraceError, match="header"):
            parse_trace("garbage\n" + GOOD_KERNEL,
                        skip_corrupt_kernels=True)

    def test_load_trace_forwards_flag(self, tmp_path):
        path = tmp_path / "mixed.trace"
        path.write_text(HEADER + BAD_KERNEL + GOOD_KERNEL)
        with pytest.raises(TraceError):
            load_trace(path)
        app = load_trace(path, skip_corrupt_kernels=True)
        assert [k.name for k in app.kernels] == ["good"]

    def test_default_remains_strict(self):
        with pytest.raises(TraceError):
            parse_trace(HEADER + GOOD_KERNEL + BAD_KERNEL)
