"""Trace Parser: NVBit-style textual trace format.

The on-disk format is line-oriented, mirroring the structure of traces
produced by the paper's NVBit extension:

.. code-block:: text

    #SWIFTSIM-TRACE v1
    app bfs suite=rodinia
    kernel bfs_kernel grid=16,1,1
    block 0 smem=0 regs=24
    warp 0
    0x0000 IADD3 d=4 s=2,3
    0x0010 LDG d=5 s=4 m=0xffffffff a=0x10000,0x10004,...
    0x0020 EXIT

Blank lines and ``#`` comments are ignored.  Register lists, masks, and
addresses are optional per instruction; addresses are hexadecimal.
"""

from __future__ import annotations

import gzip
from itertools import repeat
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import TraceCorruption, TraceError
from repro.frontend.trace import (
    ApplicationTrace,
    BlockTrace,
    KernelTrace,
    TraceInstruction,
    WarpTrace,
)

_HEADER = "#SWIFTSIM-TRACE v1"

#: What ends a warp's instruction stream (besides the end of the trace).
_SECTION_STARTS = ("warp ", "block ", "kernel ")

#: ``int``'s base for every address of a line, for ``map``.
_HEX = repeat(16)


def _parse_addresses(text: str) -> Sequence[int]:
    """The addresses of one ``a=`` field.

    A run written by :func:`save_trace` (``hex`` of each lane) is read
    from its first two lanes and checked against the text, without
    parsing the others; any other text is parsed lane by lane.  Either
    way :class:`TraceInstruction` decides the stored form by value.
    Malformed text raises ``ValueError``."""
    lanes = text.split(",")
    count = len(lanes)
    if count > 2:
        first = int(lanes[0], 16)
        step = int(lanes[1], 16) - first
        if step:
            run = range(first, first + count * step, step)
            if lanes == list(map(hex, run)):
                return run
    return list(map(int, lanes, _HEX))


def save_trace(trace: ApplicationTrace, path: Union[str, Path]) -> None:
    """Serialize an application trace to the textual format.

    Paths ending in ``.gz`` are gzip-compressed transparently (real NVBit
    trace archives ship compressed; ours can too).
    """
    lines: List[str] = [_HEADER, f"app {trace.name} suite={trace.suite}"]
    for kernel in trace.kernels:
        gx, gy, gz = kernel.grid_dim
        lines.append(f"kernel {kernel.name} grid={gx},{gy},{gz}")
        for block in kernel.blocks:
            lines.append(
                f"block {block.block_id} smem={block.shared_mem_bytes} "
                f"regs={block.regs_per_thread}"
            )
            for warp in block.warps:
                lines.append(f"warp {warp.warp_id}")
                for inst in warp.instructions:
                    lines.append(_format_instruction(inst))
    text = "\n".join(lines) + "\n"
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "wt") as handle:
            handle.write(text)
    else:
        path.write_text(text)


def _format_instruction(inst: TraceInstruction) -> str:
    parts = [f"{inst.pc:#06x}", inst.opcode]
    if inst.dest_regs:
        parts.append("d=" + ",".join(map(str, inst.dest_regs)))
    if inst.src_regs:
        parts.append("s=" + ",".join(map(str, inst.src_regs)))
    if inst.active_mask != 0xFFFFFFFF:
        parts.append("m=" + hex(inst.active_mask))
    if inst.addresses:
        parts.append("a=" + ",".join(map(hex, inst.addresses)))
    return " ".join(parts)


class _Parser:
    """Single-pass recursive-descent parser over trace lines.

    Each line is stripped and classified once: :meth:`_peek` keeps the
    line it stopped on until :meth:`_next` consumes it, and the
    per-instruction loop of :meth:`_parse_warp` is the two unrolled.
    ``_index`` is what :meth:`_fail` reports, so where it rests is part
    of the contract: on the next significant line after a peek (the end
    of the trace if there is none), one past a line once it is consumed.
    ``tests/trace_parser_reference.py`` is the parser this one replaced;
    ``tests/test_trace_parser_equivalence.py`` holds the two to the same
    traces and the same ``source:line:`` messages.

    With ``skip_corrupt_kernels`` the parser degrades instead of dying:
    a kernel whose body is malformed or truncated is dropped, parsing
    reskews to the next ``kernel`` line, and the skip is recorded in
    ``skipped_kernels``.  Header/app-line corruption and a trace whose
    *every* kernel is corrupt still raise — there is nothing usable to
    degrade to.
    """

    def __init__(self, lines: List[str], source: str,
                 skip_corrupt_kernels: bool = False) -> None:
        self._lines = lines
        self._source = source
        self._index = 0
        #: The stripped line at ``_index`` while a peek is outstanding.
        self._ahead: Optional[str] = None
        self._skip_corrupt = skip_corrupt_kernels
        #: Address-free instructions of the kernel being parsed, by their
        #: stripped line: warps of a kernel repeat them, and a repeat is a
        #: lookup, not a parse.
        self._shared: Dict[str, TraceInstruction] = {}
        #: ``(kernel_name_or_?, error_message)`` per dropped kernel.
        self.skipped_kernels: List[tuple] = []

    def _fail(self, message: str) -> None:
        raise TraceCorruption(message, source=self._source,
                              line=self._index)

    def _peek(self) -> Optional[str]:
        if self._ahead is None:
            lines = self._lines
            index = self._index
            end = len(lines)
            while index < end:
                stripped = lines[index].strip()
                if stripped and stripped[0] != "#":
                    self._ahead = stripped
                    break
                index += 1
            self._index = index
        return self._ahead

    def _next(self) -> str:
        line = self._peek()
        if line is None:
            self._fail("unexpected end of trace")
        self._index += 1
        self._ahead = None
        return line  # type: ignore[return-value]

    def parse(self) -> ApplicationTrace:
        first_raw = self._lines[0].strip() if self._lines else ""
        if first_raw != _HEADER:
            self._fail(f"missing header {_HEADER!r}")
        self._index = 1
        app_line = self._next()
        if not app_line.startswith("app "):
            self._fail("expected 'app <name> suite=<suite>'")
        app_fields = app_line.split()
        if len(app_fields) < 2:
            self._fail("app line is missing the application name")
        app_name = app_fields[1]
        suite = ""
        for field in app_fields[2:]:
            if field.startswith("suite="):
                suite = field[len("suite="):]
        kernels: List[KernelTrace] = []
        while self._peek() is not None:
            if self._skip_corrupt:
                mark = self._index
                try:
                    kernels.append(self._parse_kernel())
                except TraceCorruption as exc:
                    self._record_skip(mark, exc)
                    self._skip_to_next_kernel(mark)
            else:
                kernels.append(self._parse_kernel())
        if not kernels:
            if self.skipped_kernels:
                first = self.skipped_kernels[0]
                self._fail(
                    f"every kernel in the trace is corrupt "
                    f"(first: kernel {first[0]!r}: {first[1]})"
                )
            self._fail("trace contains no kernels")
        return ApplicationTrace(app_name, kernels, suite=suite)

    def _record_skip(self, mark: int, exc: TraceCorruption) -> None:
        name = "?"
        if mark < len(self._lines):
            fields = self._lines[mark].split()
            if len(fields) >= 2 and fields[0] == "kernel":
                name = fields[1]
        self.skipped_kernels.append((name, str(exc)))

    def _skip_to_next_kernel(self, mark: int) -> None:
        """Reskew past a corrupt kernel: resume at the next ``kernel``
        line strictly after the one that failed."""
        self._ahead = None
        self._index = mark + 1
        while self._index < len(self._lines):
            if self._lines[self._index].strip().startswith("kernel "):
                return
            self._index += 1

    def _parse_kernel(self) -> KernelTrace:
        line = self._next()
        if not line.startswith("kernel "):
            self._fail(f"expected 'kernel', got {line!r}")
        self._shared = {}
        fields = line.split()
        if len(fields) < 2:
            self._fail("kernel line is missing the kernel name")
        name = fields[1]
        grid_dim = None
        for field in fields[2:]:
            if field.startswith("grid="):
                try:
                    gx, gy, gz = (int(v) for v in field[len("grid="):].split(","))
                except ValueError:
                    self._fail(f"malformed grid spec {field!r}")
                grid_dim = (gx, gy, gz)
        blocks: List[BlockTrace] = []
        while True:
            nxt = self._peek()
            if nxt is None or not nxt.startswith("block "):
                break
            blocks.append(self._parse_block())
        if not blocks:
            self._fail(f"kernel {name!r} has no blocks")
        return KernelTrace(name, blocks, grid_dim=grid_dim)

    def _parse_block(self) -> BlockTrace:
        line = self._next()
        fields = line.split()
        try:
            block_id = int(fields[1])
        except (IndexError, ValueError):
            self._fail(f"malformed block line {line!r}")
        shared_mem = 0
        regs = 32
        for field in fields[2:]:
            try:
                if field.startswith("smem="):
                    shared_mem = int(field[len("smem="):])
                elif field.startswith("regs="):
                    regs = int(field[len("regs="):])
            except ValueError:
                self._fail(f"malformed block field {field!r}")
        warps: List[WarpTrace] = []
        while True:
            nxt = self._peek()
            if nxt is None or not nxt.startswith("warp "):
                break
            warps.append(self._parse_warp())
        if not warps:
            self._fail(f"block {block_id} has no warps")
        return BlockTrace(block_id, warps, shared_mem_bytes=shared_mem, regs_per_thread=regs)

    def _parse_warp(self) -> WarpTrace:
        line = self._next()
        try:
            warp_id = int(line.split()[1])
        except (IndexError, ValueError):
            self._fail(f"malformed warp line {line!r}")
        instructions: List[TraceInstruction] = []
        shared = self._shared
        lines = self._lines
        index = self._index
        end = len(lines)
        while index < end:
            line = lines[index].strip()
            if not line or line[0] == "#":
                index += 1
            elif line.startswith(_SECTION_STARTS):
                self._ahead = line
                break
            else:
                index += 1
                inst = shared.get(line)
                if inst is None:
                    self._index = index
                    inst = self._parse_instruction(line)
                    if not inst.is_memory:
                        shared[line] = inst
                instructions.append(inst)
        self._index = index
        if not instructions:
            self._fail(f"warp {warp_id} has no instructions")
        return WarpTrace(warp_id, instructions)

    def _parse_instruction(self, line: str) -> TraceInstruction:
        fields = line.split()
        if len(fields) < 2:
            self._fail(f"malformed instruction line {line!r}")
        try:
            pc = int(fields[0], 16)
        except ValueError:
            self._fail(f"malformed PC {fields[0]!r}")
        dest_regs: Sequence[int] = ()
        src_regs: Sequence[int] = ()
        mask = 0xFFFFFFFF
        addresses: Sequence[int] = ()
        for field in fields[2:]:
            tag = field[:2]
            try:
                if tag == "d=":
                    dest_regs = [int(v) for v in field[2:].split(",")]
                elif tag == "s=":
                    src_regs = [int(v) for v in field[2:].split(",")]
                elif tag == "m=":
                    mask = int(field[2:], 16)
                elif tag == "a=":
                    addresses = _parse_addresses(field[2:])
                else:
                    self._fail(f"unknown instruction field {field!r}")
            except ValueError:
                self._fail(f"malformed field {field!r}")
        try:
            return TraceInstruction(
                pc, fields[1], dest_regs, src_regs, mask, addresses
            )
        except TraceError as exc:
            self._fail(str(exc))
        raise AssertionError("unreachable")


def load_trace(path: Union[str, Path],
               skip_corrupt_kernels: bool = False) -> ApplicationTrace:
    """Parse a (possibly gzipped) trace file into an :class:`ApplicationTrace`.

    ``skip_corrupt_kernels`` degrades instead of failing: kernels with
    malformed or truncated bodies are dropped (the CLI's
    ``--skip-corrupt-kernels``), raising only when no kernel survives.
    """
    path = Path(path)
    try:
        if path.suffix == ".gz":
            with gzip.open(path, "rt") as handle:
                text = handle.read()
        else:
            text = path.read_text()
    except FileNotFoundError:
        raise TraceError(f"trace file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from exc
    return parse_trace(text, source=str(path),
                       skip_corrupt_kernels=skip_corrupt_kernels)


def parse_trace(text: str, source: str = "<string>",
                skip_corrupt_kernels: bool = False) -> ApplicationTrace:
    """Parse trace text (see module docstring for the format)."""
    return _Parser(text.splitlines(), source,
                   skip_corrupt_kernels=skip_corrupt_kernels).parse()
