"""SM <-> memory-partition interconnect.

Two timing models of the same crossbar:

* :class:`ReservedNoC` — Swift-Sim's hybrid form: each partition port
  (request and response direction separately) is a bandwidth-limited
  server whose next-free cycle is reserved at send time.  Contention is
  tracked cycle-accurately through the reservations; the per-flit walk is
  skipped.
* :class:`DetailedNoC` — the Accel-Sim-like form: per-cycle queues, one
  flit per port per cycle moved by an explicit :meth:`DetailedNoC.tick`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Tuple

from repro.frontend.config import NoCConfig
from repro.sim.module import ModelLevel, Module


class ReservedNoC(Module):
    """Reservation-based crossbar (hybrid modeling level)."""

    component = "noc"
    level = ModelLevel.HYBRID

    def __init__(self, config: NoCConfig, num_partitions: int, name: str = "noc") -> None:
        super().__init__(name)
        self.config = config
        self.num_partitions = num_partitions
        # A send runs once per memory transaction in both directions —
        # keep its constants off the config attribute chain.
        self._flits_per_cycle = config.flits_per_cycle
        self._latency = config.latency
        self._request_free = [0] * num_partitions
        self._response_free = [0] * num_partitions

    def reset(self) -> None:
        super().reset()
        self._request_free = [0] * self.num_partitions
        self._response_free = [0] * self.num_partitions

    # The two directions are the same reservation on their own port
    # table, spelled out twice so a send is one frame.

    def send_request(self, cycle: int, partition: int, flits: int = 1) -> int:
        """Inject a request toward ``partition``; return its arrival cycle."""
        free = self._request_free
        start = free[partition]
        if start < cycle:
            start = cycle
        else:
            self.counters["stall_cycles"] += start - cycle
        per_cycle = self._flits_per_cycle
        occupancy = (flits + per_cycle - 1) // per_cycle
        free[partition] = start + occupancy
        self.counters["flits"] += flits
        return start + occupancy - 1 + self._latency

    def send_response(self, cycle: int, partition: int, flits: int = 1) -> int:
        """Inject a response from ``partition``; return its arrival cycle."""
        free = self._response_free
        start = free[partition]
        if start < cycle:
            start = cycle
        else:
            self.counters["stall_cycles"] += start - cycle
        per_cycle = self._flits_per_cycle
        occupancy = (flits + per_cycle - 1) // per_cycle
        free[partition] = start + occupancy
        self.counters["flits"] += flits
        return start + occupancy - 1 + self._latency

    def invariants(self, cycle: int) -> List[str]:
        broken: List[str] = []
        for label, free in (("request", self._request_free),
                            ("response", self._response_free)):
            if len(free) != self.num_partitions:
                broken.append(
                    f"{label} reservation table has {len(free)} ports for "
                    f"{self.num_partitions} partitions"
                )
            elif any(value < 0 for value in free):
                broken.append(
                    f"{label} reservation table holds a negative "
                    f"next-free cycle"
                )
        return broken


class _Packet:
    __slots__ = ("flits_left", "payload")

    def __init__(self, flits: int, payload: object) -> None:
        self.flits_left = flits
        self.payload = payload


class DetailedNoC(Module):
    """Per-cycle crossbar with explicit queues (cycle-accurate level).

    Packets injected with :meth:`send_request` / :meth:`send_response`
    wait in a per-partition queue; every :meth:`tick` each port transmits
    ``flits_per_cycle`` flits, and a packet whose last flit has moved is
    delivered ``latency`` cycles later through the callback supplied at
    construction.
    """

    component = "noc"
    level = ModelLevel.CYCLE_ACCURATE

    def __init__(
        self,
        config: NoCConfig,
        num_partitions: int,
        deliver_request: Callable[[int, object, int], None],
        deliver_response: Callable[[int, object, int], None],
        name: str = "noc",
    ) -> None:
        super().__init__(name)
        self.config = config
        self.num_partitions = num_partitions
        self._deliver_request = deliver_request
        self._deliver_response = deliver_response
        self._request_queues: List[Deque[_Packet]] = [deque() for __ in range(num_partitions)]
        self._response_queues: List[Deque[_Packet]] = [deque() for __ in range(num_partitions)]
        self._in_flight: List[Tuple[int, int, bool, object]] = []  # (deliver_at, partition, is_request, payload)

    def reset(self) -> None:
        super().reset()
        for queue in self._request_queues:
            queue.clear()
        for queue in self._response_queues:
            queue.clear()
        self._in_flight.clear()

    def send_request(self, partition: int, payload: object, flits: int = 1) -> None:
        self._request_queues[partition].append(_Packet(flits, payload))
        self.counters["flits"] += flits

    def send_response(self, partition: int, payload: object, flits: int = 1) -> None:
        self._response_queues[partition].append(_Packet(flits, payload))
        self.counters["flits"] += flits

    @property
    def busy(self) -> bool:
        return bool(
            self._in_flight
            or any(self._request_queues)
            or any(self._response_queues)
        )

    def tick(self, cycle: int) -> None:
        """Move one cycle of flits and deliver matured packets."""
        matured = [entry for entry in self._in_flight if entry[0] <= cycle]
        if matured:
            self._in_flight = [entry for entry in self._in_flight if entry[0] > cycle]
            for deliver_at, partition, is_request, payload in matured:
                if is_request:
                    self._deliver_request(partition, payload, cycle)
                else:
                    self._deliver_response(partition, payload, cycle)
        for partition in range(self.num_partitions):
            queue = self._request_queues[partition]
            if queue:  # an empty port moves nothing and counts nothing
                self._advance(cycle, partition, queue, True)
            queue = self._response_queues[partition]
            if queue:
                self._advance(cycle, partition, queue, False)

    def _advance(
        self, cycle: int, partition: int, queue: Deque[_Packet], is_request: bool
    ) -> None:
        budget = self.config.flits_per_cycle
        while budget > 0 and queue:
            packet = queue[0]
            moved = min(budget, packet.flits_left)
            packet.flits_left -= moved
            budget -= moved
            if packet.flits_left == 0:
                queue.popleft()
                self._in_flight.append(
                    (cycle + self.config.latency + 1, partition, is_request, packet.payload)
                )
        if queue:
            self.counters["stall_cycles"] += 1

    def invariants(self, cycle: int) -> List[str]:
        broken: List[str] = []
        if (len(self._request_queues) != self.num_partitions
                or len(self._response_queues) != self.num_partitions):
            broken.append("per-partition queue count does not match "
                          "the partition count")
            return broken
        for queues in (self._request_queues, self._response_queues):
            for queue in queues:
                for packet in queue:
                    if packet.flits_left <= 0:
                        broken.append(
                            "flit conservation: a queued packet has "
                            f"{packet.flits_left} flits left (fully "
                            "transmitted packets must leave the queue)"
                        )
                        return broken
        for deliver_at, partition, __is_request, __payload in self._in_flight:
            if not 0 <= partition < self.num_partitions:
                broken.append(
                    f"in-flight packet addressed to partition {partition} "
                    f"of {self.num_partitions}"
                )
                return broken
            if deliver_at < 0:
                broken.append("in-flight packet with negative delivery cycle")
                return broken
        return broken
