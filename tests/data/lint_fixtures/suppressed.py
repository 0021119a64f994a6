"""A violation with an explicit waiver: noqa must silence it."""

from repro.sim.engine import ClockedModule


class CountsAnyOrder(ClockedModule):
    """Sums over a set, where order cannot matter: a reviewed waiver."""

    component = "counts_any_order"

    def __init__(self):
        super().__init__("counts_any_order")
        self.sizes = set()

    def tick(self, cycle):
        for size in set(self.sizes):  # repro: noqa[DT203]
            self.counters["total"] += size
        return None
