"""The one-touch trace codec against the codec it replaced.

``trace_parser_reference.py`` is a frozen copy of the parser that
stripped every instruction line twice and of the writer that formatted
addresses through a generator of f-strings.  The live codec must write
byte-identical files, parse them to equal traces, and — on any malformed
input, with or without ``skip_corrupt_kernels`` — fail with the same
exception type and the same ``source:line: message`` text.
"""

import gzip

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceCorruption
from repro.frontend.trace import (
    ApplicationTrace,
    BlockTrace,
    KernelTrace,
    TraceInstruction,
    WarpTrace,
)
from repro.frontend.trace_io import _Parser, load_trace, parse_trace, save_trace
from repro.serve.keys import trace_hash
from repro.tracegen.suites import APPLICATIONS, make_app

import trace_parser_reference as reference

#: The four applications ``benchmarks/perf`` saves and loads at ``small``.
BENCHMARK_APPS = ("bfs", "adi", "pagerank", "atax")

CASES = [(name, "tiny") for name in sorted(APPLICATIONS)] + [
    (name, "small") for name in BENCHMARK_APPS
]


def contents(trace):
    """Everything a trace holds, as nested tuples (``trace_hash`` leaves
    out the application's name and suite and the warp ids).  Addresses
    are a typed array in memory; here they are the integers it holds."""
    return (trace.name, trace.suite, tuple(
        (kernel.name, kernel.grid_dim, tuple(
            (block.block_id, block.shared_mem_bytes, block.regs_per_thread, tuple(
                (warp.warp_id, tuple(
                    (inst.pc, inst.opcode, inst.dest_regs, inst.src_regs,
                     inst.active_mask, tuple(inst.addresses))
                    for inst in warp.instructions
                ))
                for warp in block.warps
            ))
            for block in kernel.blocks
        ))
        for kernel in trace.kernels
    ))


class TestWholeApplications:
    @pytest.mark.parametrize("name,scale", CASES)
    def test_files_are_byte_identical_and_parse_equal(self, name, scale, tmp_path):
        app = make_app(name, scale=scale)
        expected = reference.format_trace(app)

        plain = tmp_path / "app.trace"
        save_trace(app, plain)
        assert plain.read_bytes() == expected.encode()
        packed = tmp_path / "app.trace.gz"
        save_trace(app, packed)
        assert gzip.decompress(packed.read_bytes()) == expected.encode()

        frozen, skipped = reference.parse_trace(expected)
        assert skipped == []
        for live in (parse_trace(expected), load_trace(plain), load_trace(packed)):
            assert trace_hash(live) == trace_hash(frozen) == trace_hash(app)
            assert contents(live) == contents(frozen)


def _specimen() -> str:
    """A short valid trace with every construct the format has: three
    kernels (so resynchronisation has somewhere to land), two blocks of
    two warps each, register lists, partial masks, addresses, a barrier,
    comments and blank lines."""
    def warp(warp_id, base):
        return WarpTrace(warp_id, [
            TraceInstruction(0x00, "IADD3", dest_regs=[4], src_regs=[2, 3]),
            TraceInstruction(0x10, "LDG", dest_regs=[5], src_regs=[4],
                             active_mask=0x0000000F,
                             addresses=[base + 4 * lane for lane in range(4)]),
            TraceInstruction(0x20, "BAR.SYNC"),
            TraceInstruction(0x30, "STS", src_regs=[5, 6],
                             addresses=[8 * lane for lane in range(32)]),
            TraceInstruction(0x40, "EXIT"),
        ])

    kernels = [
        KernelTrace(f"k{index}", [
            BlockTrace(block_id, [warp(0, 0x1000 * index), warp(1, 0x2000)],
                       shared_mem_bytes=256 * block_id, regs_per_thread=24)
            for block_id in range(2)
        ])
        for index in range(3)
    ]
    lines = reference.format_trace(
        ApplicationTrace("specimen", kernels, suite="tests")
    ).splitlines()
    lines.insert(2, "# a comment between the app line and the first kernel")
    lines.insert(9, "")
    lines.insert(20, "   # an indented comment inside a warp")
    return "\n".join(lines) + "\n"


SPECIMEN = _specimen()
SPECIMEN_LINES = SPECIMEN.splitlines()

line_numbers = st.integers(0, len(SPECIMEN_LINES) - 1)

#: What a flipped byte becomes: format punctuation, digits that change a
#: number, letters that break one, and every kind of blank.
FLIP_ALPHABET = "0x9f=,#- \t\rwbkads  "

mutations = st.one_of(
    st.tuples(st.just("delete"), line_numbers),
    st.tuples(st.just("duplicate"), line_numbers),
    st.tuples(st.just("swap"), line_numbers, line_numbers),
    st.tuples(st.just("flip"), line_numbers, st.integers(0, 200),
              st.sampled_from(FLIP_ALPHABET)),
    st.tuples(st.just("insert"), line_numbers, st.sampled_from([
        "", "   ", "\t", "# injected comment", "  # indented comment",
        "warp", "block", "kernel", "kernel late grid=1,1,1", "0x0 EXIT",
    ])),
    st.tuples(st.just("tabs"), line_numbers),
    st.tuples(st.just("crlf"), line_numbers),
)


def mutate(lines, mutation):
    kind, at = mutation[0], min(mutation[1], len(lines) - 1)
    if kind == "delete":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "swap":
        other = min(mutation[2], len(lines) - 1)
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == "flip":
        line = lines[at]
        if line:
            column = mutation[2] % len(line)
            lines[at] = line[:column] + mutation[3] + line[column + 1:]
    elif kind == "insert":
        lines.insert(at, mutation[2])
    elif kind == "tabs":
        lines[at] = lines[at].replace(" ", "\t")
    elif kind == "crlf":
        lines[at] += "\r"


def outcome(parse, text, skip_corrupt_kernels):
    """What a parser made of ``text``: the trace and its skip list, or
    the exception it raised, message and all."""
    try:
        trace, skipped = parse(text, "fuzz.trace", skip_corrupt_kernels)
    except Exception as exc:  # the *same* exception is the contract
        return ("raised", type(exc), str(exc))
    return ("parsed", contents(trace), skipped)


def live_parse(text, source, skip_corrupt_kernels):
    parser = _Parser(text.splitlines(), source,
                     skip_corrupt_kernels=skip_corrupt_kernels)
    return parser.parse(), parser.skipped_kernels


class TestMalformedInput:
    @given(
        st.lists(mutations, min_size=1, max_size=4),
        st.one_of(st.none(), st.integers(0, len(SPECIMEN))),
        st.booleans(),
    )
    @settings(max_examples=600, deadline=None)
    def test_same_trace_or_same_error(self, steps, truncate_at, all_crlf):
        lines = list(SPECIMEN_LINES)
        for step in steps:
            if lines:
                mutate(lines, step)
        text = ("\r\n" if all_crlf else "\n").join(lines) + "\n"
        if truncate_at is not None:
            text = text[:truncate_at]
        for skip in (False, True):
            assert outcome(live_parse, text, skip) == outcome(
                reference.parse_trace, text, skip
            )

    @pytest.mark.parametrize("skip", (False, True))
    @pytest.mark.parametrize("number", range(len(SPECIMEN_LINES)))
    def test_every_single_line_deletion(self, number, skip):
        """Exhaustive where Hypothesis samples: each line's absence is
        reported at the same line by both parsers."""
        lines = SPECIMEN_LINES[:number] + SPECIMEN_LINES[number + 1:]
        text = "\n".join(lines) + "\n"
        assert outcome(live_parse, text, skip) == outcome(
            reference.parse_trace, text, skip
        )

    def test_an_off_by_one_line_number_would_fail(self):
        """The comparison has teeth: the message carries the line."""
        text = SPECIMEN.replace("0x0010 LDG", "0x0010 LDGX", 1)
        kind, error, message = outcome(live_parse, text, False)
        assert kind == "raised"
        bad = next(number for number, line in enumerate(text.splitlines(), 1)
                   if "LDGX" in line)
        assert message.startswith(f"fuzz.trace:{bad}: ")
        assert message == outcome(reference.parse_trace, text, False)[2]

    def test_skipping_resynchronises_identically(self):
        text = SPECIMEN.replace("kernel k1", "kernel k1 grid=9", 1)
        live = outcome(live_parse, text, True)
        assert live == outcome(reference.parse_trace, text, True)
        kind, trace, skipped = live
        assert kind == "parsed"
        assert [kernel[0] for kernel in trace[2]] == ["k0", "k2"]
        assert [name for name, __ in skipped] == ["k1"]


class TestAddressBoundary:
    """An address list is one unsigned 64-bit array, so the boundary is
    the constructor's: what does not fit fails closed as a
    ``TraceCorruption`` with its ``source:line:``, never as a Python big
    int that simulates, and costs only its kernel under
    ``skip_corrupt_kernels``.

    The frozen parser builds its instructions through the live
    ``TraceInstruction`` too, so it rejects these inputs with the same
    message and none of them needs carving out of the equivalence
    property; the reference check below says so by name.  (Before
    addresses were typed, both parsers accepted ``a=0x1ffffffffffffffff``.)
    """

    K1_LOAD = "a=0x1000,0x1004,0x1008,0x100c"

    CASES = {
        "does-not-fit-64-bits": ("a=0x1ffffffffffffffff,0x1004,0x1008,0x100c",
                                 "not a 64-bit integer"),
        "exactly-2-to-the-64": (f"a={1 << 64:#x},0x1004,0x1008,0x100c",
                                "not a 64-bit integer"),
        "negative": ("a=-0x4,0x1004,0x1008,0x100c", "negative address"),
        "count-mismatch": ("a=0x1000,0x1004,0x1008", "3 addresses for 4 active threads"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fails_closed_with_source_and_line(self, case):
        field, reason = self.CASES[case]
        text = SPECIMEN.replace(self.K1_LOAD, field, 1)
        bad = next(number for number, line in enumerate(text.splitlines(), 1)
                   if field in line)
        with pytest.raises(TraceCorruption) as caught:
            parse_trace(text, source="fuzz.trace")
        assert str(caught.value).startswith(f"fuzz.trace:{bad}: LDG at pc 0x10: ")
        assert reason in str(caught.value)
        assert (caught.value.source, caught.value.line) == ("fuzz.trace", bad)

        kind, trace, skipped = outcome(live_parse, text, True)
        assert kind == "parsed"
        assert [kernel[0] for kernel in trace[2]] == ["k0", "k2"]
        assert [name for name, __ in skipped] == ["k1"]
        assert reason in skipped[0][1]
        for skip in (False, True):
            assert outcome(live_parse, text, skip) == outcome(
                reference.parse_trace, text, skip
            )

    def test_the_largest_address_is_accepted(self):
        field = f"a={(1 << 64) - 1:#x},0x1004,0x1008,0x100c"
        trace = parse_trace(SPECIMEN.replace(self.K1_LOAD, field, 1))
        inst = trace.kernels[1].blocks[0].warps[0].instructions[1]
        assert list(inst.addresses) == [(1 << 64) - 1, 0x1004, 0x1008, 0x100c]
