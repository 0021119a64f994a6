"""Frozen reference for the trace codec.

A copy of ``repro.frontend.trace_io`` as it stood before the parser was
made to touch each line once: ``_Parser._peek`` strips and classifies the
line under the cursor every time it is asked (twice per instruction line:
once from the ``_parse_warp`` loop, once inside ``_next``),
``_parse_instruction`` walks a four-way ``startswith`` chain per field
and calls the constructor by keyword, and ``_format_instruction`` formats
every register and address through a generator of f-strings.  It exists
only so that ``test_trace_parser_equivalence.py`` can hold the live codec
to it — byte-identical files, equal traces, and the same exception with
the same ``source:line:`` message on every malformed input; do not
optimise or otherwise edit it.

``_Parser`` and ``_format_instruction`` are verbatim; :func:`format_trace`
is the text ``save_trace`` wrote (everything but the file I/O), and
:func:`parse_trace` returns the parser's ``skipped_kernels`` beside the
trace so the resynchronisation path can be compared too.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import TraceCorruption, TraceError
from repro.frontend.trace import (
    ApplicationTrace,
    BlockTrace,
    KernelTrace,
    TraceInstruction,
    WarpTrace,
)

_HEADER = "#SWIFTSIM-TRACE v1"


def format_trace(trace: ApplicationTrace) -> str:
    """The file contents the frozen ``save_trace`` wrote for ``trace``."""
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
    return "\n".join(lines) + "\n"


def _format_instruction(inst: TraceInstruction) -> str:
    parts = [f"{inst.pc:#06x}", inst.opcode]
    if inst.dest_regs:
        parts.append("d=" + ",".join(str(r) for r in inst.dest_regs))
    if inst.src_regs:
        parts.append("s=" + ",".join(str(r) for r in inst.src_regs))
    if inst.active_mask != 0xFFFFFFFF:
        parts.append(f"m={inst.active_mask:#x}")
    if inst.addresses:
        parts.append("a=" + ",".join(f"{a:#x}" for a in inst.addresses))
    return " ".join(parts)


class _Parser:
    """Single-pass recursive-descent parser over trace lines.

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
        self._skip_corrupt = skip_corrupt_kernels
        #: ``(kernel_name_or_?, error_message)`` per dropped kernel.
        self.skipped_kernels: List[tuple] = []

    def _fail(self, message: str) -> None:
        raise TraceCorruption(message, source=self._source,
                              line=self._index)

    def _peek(self) -> Optional[str]:
        while self._index < len(self._lines):
            stripped = self._lines[self._index].strip()
            if stripped and not stripped.startswith("#"):
                return stripped
            self._index += 1
        return None

    def _next(self) -> str:
        line = self._peek()
        if line is None:
            self._fail("unexpected end of trace")
        self._index += 1
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
        self._index = mark + 1
        while self._index < len(self._lines):
            if self._lines[self._index].strip().startswith("kernel "):
                return
            self._index += 1

    def _parse_kernel(self) -> KernelTrace:
        line = self._next()
        if not line.startswith("kernel "):
            self._fail(f"expected 'kernel', got {line!r}")
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
        while True:
            nxt = self._peek()
            if nxt is None or nxt.startswith(("warp ", "block ", "kernel ")):
                break
            instructions.append(self._parse_instruction(self._next()))
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
        opcode = fields[1]
        dest_regs: List[int] = []
        src_regs: List[int] = []
        mask = 0xFFFFFFFF
        addresses: List[int] = []
        for field in fields[2:]:
            try:
                if field.startswith("d="):
                    dest_regs = [int(v) for v in field[2:].split(",")]
                elif field.startswith("s="):
                    src_regs = [int(v) for v in field[2:].split(",")]
                elif field.startswith("m="):
                    mask = int(field[2:], 16)
                elif field.startswith("a="):
                    addresses = [int(v, 16) for v in field[2:].split(",")]
                else:
                    self._fail(f"unknown instruction field {field!r}")
            except ValueError:
                self._fail(f"malformed field {field!r}")
        try:
            return TraceInstruction(
                pc=pc,
                opcode=opcode,
                dest_regs=dest_regs,
                src_regs=src_regs,
                active_mask=mask,
                addresses=addresses,
            )
        except TraceError as exc:
            self._fail(str(exc))
        raise AssertionError("unreachable")


def parse_trace(
    text: str, source: str = "<string>", skip_corrupt_kernels: bool = False
) -> Tuple[ApplicationTrace, List[tuple]]:
    """Parse with the frozen parser: ``(trace, skipped_kernels)``."""
    parser = _Parser(text.splitlines(), source,
                     skip_corrupt_kernels=skip_corrupt_kernels)
    return parser.parse(), parser.skipped_kernels
