"""Seeded determinism violation (DT203)."""

from repro.sim.engine import ClockedModule


class JitteryUnit(ClockedModule):
    """Drains its pending names in hash-seed order."""

    component = "jittery"

    def __init__(self):
        super().__init__("jittery")
        self.pending = set()

    def tick(self, cycle):
        for item in set(self.pending):  # DT203
            self.counters[item] += 1
        return None
