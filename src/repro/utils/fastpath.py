"""Global fast-path flags.

Every performance optimization that changes *how* a result is computed
(as opposed to a pure micro-refactor) lands behind a flag here, so
``tests/test_fastpath_equivalence.py`` can run the same workload with a
flag on and off and demand bit-identical cycles and counters.  The
flags are:

``fast_dispatch``
    :class:`~repro.sim.engine.Engine` uses a tightened dispatch loop
    (hoisted heap locals, inlined rescheduling) when no checker is
    attached.  Per-entry heap semantics are unchanged.
``cache_memo``
    :class:`~repro.memory.analytical.MemoryProfile` memoizes
    per-application profiling passes.
``trace_cache``
    :func:`~repro.tracegen.suites.make_app` memoizes generated
    application traces per ``(name, scale)`` so differential runs and
    benchmark sweeps do not re-materialize identical traces.

Flags default to *on*; ``REPRO_FASTPATH=0`` (or ``off``/``false``)
disables all of them for a process.  Tests toggle them with the
:func:`fastpaths` context manager.

This module sits in :mod:`repro.utils` — below ``sim``, ``memory`` and
``tracegen`` in the dependency graph — so hot-path modules can read the
flags without importing :mod:`repro.profile` (which imports them).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

_DISABLED_VALUES = {"0", "off", "false", "no"}


@dataclass(frozen=True)
class FastPaths:
    """Immutable snapshot of which fast paths are enabled."""

    fast_dispatch: bool = True
    cache_memo: bool = True
    trace_cache: bool = True

    @staticmethod
    def all_on() -> "FastPaths":
        return FastPaths()

    @staticmethod
    def all_off() -> "FastPaths":
        return FastPaths(fast_dispatch=False, cache_memo=False, trace_cache=False)

    def as_dict(self) -> dict:
        return {
            "fast_dispatch": self.fast_dispatch,
            "cache_memo": self.cache_memo,
            "trace_cache": self.trace_cache,
        }


def _default() -> FastPaths:
    raw = os.environ.get("REPRO_FASTPATH", "").strip().lower()
    if raw in _DISABLED_VALUES:
        return FastPaths.all_off()
    return FastPaths.all_on()


_active: FastPaths = _default()


def get_fastpaths() -> FastPaths:
    """The process-wide fast-path flags currently in effect."""
    return _active


def set_fastpaths(flags: FastPaths) -> FastPaths:
    """Replace the active flags; returns the previous snapshot."""
    global _active
    previous = _active
    _active = flags
    return previous


@contextmanager
def fastpaths(**overrides: bool) -> Iterator[FastPaths]:
    """Temporarily override individual flags::

        with fastpaths(fast_dispatch=False):
            result = simulator.simulate(app)
    """
    previous = set_fastpaths(replace(_active, **overrides))
    try:
        yield _active
    finally:
        set_fastpaths(previous)
