"""The fully cycle-accurate baseline simulator (Accel-Sim stand-in).

Every component slot uses its cycle-accurate implementation and the
engine ticks every module that holds work every cycle (an SM that holds
no block, like one whose warps all await memory callbacks, is not in the
schedule): per-warp fetch/i-buffer front end, operand
collector with register-bank conflicts, stage-pipelined execution units
arbitrating a shared result bus, and the per-cycle detailed memory
pipeline (L1 MSHRs, NoC flits, L2 slices, DRAM row buffers).

The paper compares its hybrid simulators against Accel-Sim; since ours
must be pure Python, this baseline plays that role — same abstraction
level, same language, so the speedup *ratios* of the hybrid plans over
it are meaningful (see DESIGN.md, substitutions).
"""

from __future__ import annotations

from repro.sim.plan import ACCEL_LIKE_PLAN
from repro.simulators.base import PlanSimulator


class AccelSimLike(PlanSimulator):
    """Fully cycle-accurate GPU performance simulator."""

    plan = ACCEL_LIKE_PLAN
