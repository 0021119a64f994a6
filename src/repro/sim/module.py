"""Module base class and performance counters.

Every modeled GPU component — block scheduler, warp scheduler, execution
units, caches, NoC, DRAM — derives from :class:`Module`.  A module
declares which *component slot* it fills and at which
:class:`ModelLevel` it models that component, so an assembled simulator
can be introspected ("which parts of this GPU are analytical?") and the
Metrics Gatherer can walk the hierarchy generically.
"""

from __future__ import annotations

from enum import Enum, unique
from typing import Dict, Iterator, List, Optional

from repro.errors import CounterKindError


@unique
class ModelLevel(Enum):
    """How faithfully a module models its component."""

    CYCLE_ACCURATE = "cycle_accurate"
    HYBRID = "hybrid"          # fixed latencies + cycle-accurate contention
    ANALYTICAL = "analytical"  # closed-form latency/throughput equations


class Counters(dict):
    """A bag of named integer counters.

    The Metrics Gatherer reads these; modules only ever add to them
    (paper §III-C: "architects only need to update the code of the
    counter within modules to collect the desired metrics").

    Counting is a dict store: ``counters["sector_hits"] += 1``.  The dict
    itself holds the additive counters (a name's first ``+=`` reads 0
    through :meth:`__missing__` and creates it, ``+= 0`` included; a
    plain read of an unknown name creates nothing); high-water marks
    tracked with :meth:`peak` live beside it.  ``in``, iteration,
    :meth:`get`, :meth:`as_dict` and :meth:`reset` cover both kinds; the
    rest of the inherited mapping API sees the additive counters only.
    """

    __slots__ = ("_peaks",)

    # Counters sit on the hottest path in the whole simulator (every
    # issue, cache access, and queue push increments one), so the
    # steady-state count runs no Python frame at all, and the
    # add-vs-peak mixing check only costs anything the first time a
    # name appears.

    def __init__(self) -> None:
        super().__init__()
        self._peaks: Dict[str, int] = {}

    @staticmethod
    def _kind_error(name: str, prior: str, kind: str) -> CounterKindError:
        return CounterKindError(
            f"counter {name!r} already used with {prior} semantics; "
            f"mixing {prior} and {kind} on one name would produce a "
            f"meaningless value — use two counter names"
        )

    def __missing__(self, name: str) -> int:
        if name in self._peaks:
            raise self._kind_error(name, "peak()", "+=")
        return 0

    def peak(self, name: str, value: int) -> None:
        """Track the maximum of ``value`` seen under ``name``."""
        peaks = self._peaks
        current = peaks.get(name)
        if current is not None:
            if value > current:
                peaks[name] = value
        elif dict.__contains__(self, name):
            raise self._kind_error(name, "+=", "peak()")
        else:
            peaks[name] = value

    def get(self, name: str, default: int = 0) -> int:
        value = dict.get(self, name)
        if value is not None:
            return value
        return self._peaks.get(name, default)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters: adds in first-touch order, then peaks."""
        snapshot = dict.copy(self)
        snapshot.update(self._peaks)
        return snapshot

    def reset(self) -> None:
        self.clear()
        self._peaks.clear()

    def __contains__(self, name: object) -> bool:
        return dict.__contains__(self, name) or name in self._peaks

    def __iter__(self) -> Iterator[str]:
        yield from dict.__iter__(self)
        yield from self._peaks

    def __repr__(self) -> str:
        return f"Counters({self.as_dict()!r})"


class Module:
    """Base class for every modeled GPU component.

    Subclasses set ``component`` (the slot name, e.g. ``"warp_scheduler"``)
    and ``level``.  Modules form a tree via :meth:`add_child`; the
    Metrics Gatherer walks this tree.
    """

    #: Component slot this module fills (subclasses override).
    component: str = "module"
    #: Modeling fidelity (subclasses override).
    level: ModelLevel = ModelLevel.CYCLE_ACCURATE

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name if name is not None else type(self).__name__
        self.counters = Counters()
        self._children: List["Module"] = []
        self._claimed = False

    def add_child(self, child: "Module") -> "Module":
        """Attach a sub-module and return it (for chaining at build time)."""
        self._children.append(child)
        return child

    def claim(self) -> bool:
        """Claim this module for a single parent in the module tree.

        Modules shared between several owners (e.g. one shared-memory
        unit serving every sub-core of an SM) must appear in the metrics
        tree exactly once.  The first caller gets ``True`` and should
        :meth:`add_child` the module; later callers get ``False``.
        """
        if self._claimed:
            return False
        self._claimed = True
        return True

    @property
    def children(self) -> List["Module"]:
        return list(self._children)

    def walk(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth-first."""
        yield self
        for child in self._children:
            yield from child.walk()

    def reset(self) -> None:
        """Clear counters here and below (modules override to clear state too)."""
        self.counters.reset()
        for child in self._children:
            child.reset()

    def state_summary(self, max_repr: int = 120) -> Dict[str, str]:
        """JSON-safe rendering of the module's own attributes for forensic
        bundles: attribute name -> truncated ``repr``."""
        summary: Dict[str, str] = {}
        for key, value in sorted(vars(self).items()):
            rendered = repr(value)
            if len(rendered) > max_repr:
                rendered = rendered[: max_repr - 3] + "..."
            summary[key] = rendered
        return summary

    def invariants(self, cycle: int) -> List[str]:
        """Violated conservation properties at ``cycle`` (empty = healthy).

        Stateful modules override this with cheap self-checks (MSHRs
        within bounds, queue occupancy under capacity, credits conserved);
        :class:`repro.guard.InvariantGuard` polls it every K cycles when
        runtime guards are enabled.  Checks must read only the module's
        own state and must not mutate anything.
        """
        return []

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} [{self.level.value}]>"
