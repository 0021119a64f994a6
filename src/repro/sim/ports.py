"""Fixed inter-module interfaces (the paper's "abstracted interfaces").

The key enabler of hybrid modeling is that modules interact only through
these contracts, so a cycle-accurate implementation and an analytical one
are interchangeable (paper §III-B2).  The central contract is the one the
paper describes between Warp Scheduler & Dispatch and the execution /
LD-ST units:

* the scheduler offers an instruction with :meth:`InstructionSink.try_issue`;
* the sink either rejects it for this cycle (structural hazard — return
  ``None``), accepts it with a completion cycle known immediately
  (analytical / hybrid units — return an ``int``), or accepts it with the
  completion to be announced later through a
  :class:`CompletionListener` callback (fully cycle-accurate memory —
  return :data:`PENDING`).

Either way the scheduler's view is identical: issue, then wait for the
"instruction completion acknowledgment".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Union, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.warp import WarpState
    from repro.frontend.trace import TraceInstruction


class _Pending:
    """Sentinel: instruction accepted, completion signaled via callback."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "PENDING"


#: Singleton returned by sinks that will acknowledge completion later.
PENDING = _Pending()

#: What :meth:`InstructionSink.try_issue` returns.
IssueResult = Optional[Union[int, _Pending]]


class InstructionSink(ABC):
    """Anything the warp scheduler can issue an instruction to."""

    @abstractmethod
    def try_issue(
        self, warp: "WarpState", inst: "TraceInstruction", cycle: int
    ) -> IssueResult:
        """Offer ``inst`` from ``warp`` at ``cycle``.

        Returns ``None`` when the sink cannot accept this cycle, an
        ``int`` completion cycle when the latency is resolved at issue,
        or :data:`PENDING` when completion arrives via callback.
        """


class CompletionListener(ABC):
    """Receiver of deferred instruction-completion acknowledgments."""

    @abstractmethod
    def on_complete(
        self, warp: "WarpState", inst: "TraceInstruction", cycle: int
    ) -> None:
        """Called by a sink when a :data:`PENDING` instruction finishes."""


class BlockSource(ABC):
    """Interface the SMs use to pull thread blocks from the Block Scheduler."""

    @abstractmethod
    def next_block(self, sm_id: int):
        """Return the next :class:`~repro.frontend.trace.BlockTrace` for
        ``sm_id``, or ``None`` when no blocks remain."""

    @abstractmethod
    def block_done(self, sm_id: int, block, cycle: int) -> None:
        """Report that ``block`` finished on ``sm_id`` at ``cycle``."""

    def peek_block(self):
        """The block :meth:`next_block` would hand out, without
        dispatching it, or ``None`` when none remain.  An SM takes a block
        only after peeking that it fits, so a source that has blocks to
        give overrides this; the default has nothing to show."""
        return None
