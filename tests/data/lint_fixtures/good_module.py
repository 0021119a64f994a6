"""A fully conformant module: the linter must stay silent here."""

from repro.sim.engine import ClockedModule
from repro.sim.module import ModelLevel


class WellBehaved(ClockedModule):
    """Iterates its pending set in sorted order and touches only itself."""

    component = "well_behaved"
    level = ModelLevel.CYCLE_ACCURATE

    def __init__(self):
        super().__init__("well_behaved")
        self.pending = set()

    def tick(self, cycle):
        for item in sorted(self.pending):
            self.counters["drained"] += 1
        self.pending.clear()
        return None
