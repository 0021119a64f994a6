"""Seeded shard-safety violations (SH501, SH502).

``RxQueue`` and ``RacyProducer`` land in different clock domains (wired
only by the port-marked ``enqueue``), so every direct touch between them
crosses a partition boundary.
"""

from repro.sim.engine import ClockedModule
from repro.sim.module import ModelLevel


class RxQueue(ClockedModule):
    """Memory-side receive queue; ``enqueue`` is its declared port."""

    component = "noc"
    level = ModelLevel.CYCLE_ACCURATE

    def __init__(self):
        super().__init__("rx_queue")
        self.inbox = []
        self.drained = 0

    def enqueue(self, payload, cycle):  # repro: port
        self.inbox.append(payload)  # retains the caller's object
        return True

    def tick(self, cycle):
        if self.inbox:
            self.inbox.pop(0)
            self.drained += 1
        return None


class RacyProducer(ClockedModule):
    """SM-side producer that touches the queue every way but the port."""

    component = "sm"
    level = ModelLevel.CYCLE_ACCURATE

    def __init__(self, peer: RxQueue):
        super().__init__("racy_producer")
        self.peer = peer
        self.scratch = {}

    def tick(self, cycle):
        self.peer.drained = 0  # SH501: cross-domain write, no port
        self.scratch["cycle"] = cycle
        self.peer.enqueue(self.scratch, cycle)  # SH502: aliases scratch
        return None
