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


class ShardPortProxy:
    """Transparent wrapper for a port reference that crosses shards.

    In a sharded lockstep run the module graph is decomposed per the
    partition manifest, but port calls between shards remain direct
    Python calls (lockstep serializes ticks globally, so synchronous
    cross-shard calls are safe — the "synchronous-port conservative
    floor").  Wrapping the reference makes every cross-shard edge
    *observable*: calls to the declared port methods are tallied into a
    shared traffic dict keyed ``"<edge>.<method>"``, which the sharded
    check pillar and the speedup bench report.

    The proxy is deliberately NOT a :class:`~repro.sim.module.Module`:
    it must stay invisible to the metrics tree, ``engine.add``, and
    ``isinstance`` dispatch — callers keep the raw object for those and
    hand out the proxy only as a constructor argument.  Attribute reads
    (including mutation of the target's own state through returned
    objects) delegate untouched, so behaviour is bit-identical to the
    unwrapped reference.
    """

    #: The fixed inter-module interface surface (this module's
    #: contracts) plus the block-scheduler and memory entry points the
    #: assembled simulators call across the SM/memory boundary.
    PORT_METHODS = frozenset({
        "try_issue",
        "on_complete",
        "next_block",
        "block_done",
        "access_global",
        "issue_global",
        "access",
        "enqueue",
    })

    def __init__(self, target, edge: str, traffic: Optional[dict] = None):
        self._target = target
        self._edge = edge
        self._traffic = {} if traffic is None else traffic

    @property
    def raw(self):
        """The unwrapped reference (for identity checks and engine.add)."""
        return self._target

    def __getattr__(self, name: str):
        # Dunder lookups (pickle protocol probes, copy, repr fallbacks)
        # must never recurse into a half-built proxy.
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        target = self.__dict__.get("_target")
        if target is None:
            raise AttributeError(name)
        value = getattr(target, name)
        if name in self.PORT_METHODS and callable(value):
            traffic = self._traffic
            key = f"{self._edge}.{name}"

            def counted(*args, **kwargs):
                traffic[key] = traffic.get(key, 0) + 1
                return value(*args, **kwargs)

            return counted
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardPortProxy({self._edge}: {self._target!r})"


class BlockSource(ABC):
    """Interface the SMs use to pull thread blocks from the Block Scheduler."""

    @abstractmethod
    def next_block(self, sm_id: int):
        """Return the next :class:`~repro.frontend.trace.BlockTrace` for
        ``sm_id``, or ``None`` when no blocks remain."""

    @abstractmethod
    def block_done(self, sm_id: int, block, cycle: int) -> None:
        """Report that ``block`` finished on ``sm_id`` at ``cycle``."""

    def peek_block(self):  # repro: port
        """The block :meth:`next_block` would hand out, without
        dispatching it, or ``None`` when none remain.  An SM takes a block
        only after peeking that it fits, so a source that has blocks to
        give overrides this; the default has nothing to show."""
        return None

    @property
    def all_done(self) -> bool:  # repro: port
        """True once every block handed out has been reported done
        (per-cycle SMs keep ticking, empty, until then)."""
        return True
