"""Cache replacement policies.

The paper's motivation section calls out that pure analytical cache
models are locked to LRU (reuse-distance theory), while a simulated cache
can swap policies freely — so the sectored cache takes its policy as a
pluggable object.  LRU, FIFO, and (deterministic) Random are provided.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

from repro.errors import ConfigError


class ReplacementPolicy(ABC):
    """Per-set victim selection. One policy instance serves one cache set."""

    @abstractmethod
    def on_fill(self, way: int) -> None:
        """A line was installed in ``way``."""

    @abstractmethod
    def on_access(self, way: int) -> None:
        """The line in ``way`` was hit."""

    @abstractmethod
    def victim(self, candidates: Sequence[int]) -> int:
        """Pick the way to evict among ``candidates`` (never empty)."""


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used: evict the candidate touched longest ago."""

    def __init__(self, assoc: int) -> None:
        self._stamp = 0
        self._last_use: List[int] = [-1] * assoc

    def on_fill(self, way: int) -> None:
        self._stamp += 1
        self._last_use[way] = self._stamp

    def on_access(self, way: int) -> None:
        self._stamp += 1
        self._last_use[way] = self._stamp

    def victim(self, candidates: Sequence[int]) -> int:
        if len(candidates) == 1:
            return candidates[0]
        # Bound-method key avoids a lambda frame per comparison.
        return min(candidates, key=self._last_use.__getitem__)


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: evict the candidate filled longest ago."""

    def __init__(self, assoc: int) -> None:
        self._stamp = 0
        self._fill_order: List[int] = [-1] * assoc

    def on_fill(self, way: int) -> None:
        self._stamp += 1
        self._fill_order[way] = self._stamp

    def on_access(self, way: int) -> None:
        # Hits do not affect FIFO ordering.
        pass

    def victim(self, candidates: Sequence[int]) -> int:
        if len(candidates) == 1:
            return candidates[0]
        return min(candidates, key=self._fill_order.__getitem__)


class RandomPolicy(ReplacementPolicy):
    """Pseudo-random victim selection with a per-set deterministic stream."""

    def __init__(self, assoc: int, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def on_fill(self, way: int) -> None:
        pass

    def on_access(self, way: int) -> None:
        pass

    def victim(self, candidates: Sequence[int]) -> int:
        return candidates[self._rng.randrange(len(candidates))]


def make_replacement_policy(
    name: str, assoc: int, seed: Optional[int] = None
) -> ReplacementPolicy:
    """Instantiate a policy by configuration name (``LRU``/``FIFO``/``RANDOM``)."""
    name = name.upper()
    if name == "LRU":
        return LRUPolicy(assoc)
    if name == "FIFO":
        return FIFOPolicy(assoc)
    if name == "RANDOM":
        return RandomPolicy(assoc, seed=0 if seed is None else seed)
    raise ConfigError(f"unknown replacement policy {name!r}")
