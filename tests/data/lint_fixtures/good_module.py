"""A fully conformant module: the linter must stay silent here."""

import random

from repro.sim.engine import ClockedModule
from repro.sim.module import ModelLevel
from repro.utils.rng import derive_seed


class WellBehaved(ClockedModule):
    """Declares its slot and level, ticks, keeps determinism hygiene."""

    component = "well_behaved"
    level = ModelLevel.CYCLE_ACCURATE

    def __init__(self, seed_root=2025):
        super().__init__("well_behaved")
        self.rng = random.Random(derive_seed(seed_root, "well_behaved"))
        self.pending = set()

    def tick(self, cycle):
        for item in sorted(self.pending):
            self.counters["drained"] += 1
        self.pending.clear()
        return None
