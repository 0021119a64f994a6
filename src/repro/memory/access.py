"""Memory-access coalescing.

The LD/ST unit merges the per-thread byte addresses of one warp memory
instruction into the minimal set of 32-byte *sector transactions*
(Turing/Ampere L1s are sectored; a fully coalesced warp load of 4-byte
words touches 4 sectors = 128 bytes).  Divergent access patterns expand
into up to 32 transactions — the primary source of memory-bound behaviour
the simulators must capture.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


class SectorTransaction:
    """One coalesced sector access: (line address, sector index within line).

    ``line_addr`` is the byte address divided by the line size (i.e. a line
    *number*), so caches at every level with the same line size can share
    transactions directly.
    """

    __slots__ = ("line_addr", "sector", "thread_count")

    def __init__(self, line_addr: int, sector: int, thread_count: int) -> None:
        self.line_addr = line_addr
        self.sector = sector
        self.thread_count = thread_count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SectorTransaction):
            return NotImplemented
        return (
            self.line_addr == other.line_addr
            and self.sector == other.sector
            and self.thread_count == other.thread_count
        )

    def __hash__(self) -> int:
        return hash((self.line_addr, self.sector))

    def __repr__(self) -> str:
        return (
            f"SectorTransaction(line={self.line_addr:#x}, sector={self.sector}, "
            f"threads={self.thread_count})"
        )


def coalesce(
    addresses: Sequence[int], line_bytes: int = 128, sector_bytes: int = 32
) -> List[SectorTransaction]:
    """Coalesce per-thread byte addresses into sector transactions.

    Transactions are returned in first-touch order (the order the hardware
    generates them while walking lanes), each annotated with how many
    threads it serves.
    """
    sectors_per_line = line_bytes // sector_bytes
    # Keyed by sector number (byte address // sector size): one int per
    # lane, split into (line, sector) once per transaction.
    touched: Dict[int, int] = {}
    for addr in addresses:
        sector_addr = addr // sector_bytes
        touched[sector_addr] = touched.get(sector_addr, 0) + 1
    return [
        SectorTransaction(
            sector_addr // sectors_per_line, sector_addr % sectors_per_line, count
        )
        for sector_addr, count in touched.items()
    ]


def touched_sectors(addresses: Sequence[int], sector_bytes: int = 32) -> List[int]:
    """The distinct sector numbers (byte address // sector size) one warp
    memory instruction touches, in first-touch order.

    The sector number alone identifies a block of the address space, so
    a caller that only tracks which blocks are touched (reuse distance)
    takes these in place of :func:`coalesce`'s transaction objects; there
    is one transaction per sector returned.
    """
    return list(dict.fromkeys([addr // sector_bytes for addr in addresses]))
