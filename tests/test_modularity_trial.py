"""The lint trials' seeded bugs, each caught by the pinned harm probe.

The paper's hybrid modeling rests on modules that interact only through
fixed interfaces (§III-B2).  Three trials seeded real bugs of that kind
into copies of the *real* sources and asked which detector fires under
both ``PYTHONHASHSEED=0`` and ``1`` (docs/verification.md § "Static-rule
trials").  The last static rules survived only because no runtime pin
covered the configuration their seed harmed; ``tests/data/golden_probe.json``
now does, and this test keeps it that way.  Every seed below is applied
to a copy of the ``repro`` package, and the probe of
``tests/test_golden_probe.py`` runs over the copy in a fresh interpreter
under ``PYTHONHASHSEED=0`` and then ``1``; at least one of the two must
disagree with the fixture.

* W1–W5 — a module writes another module's attribute outside any port.
  W4 moves only a memory counter; W5 moves cycles only under RANDOM
  replacement.
* A1, A2, A3b — a port's callee keeps a mutable argument and reads it on
  a later call.  A3b moves only swift-memory's ``port_stall_cycles``.
* R3 — a module reads another's state, so what it counts depends on
  tick order.  It moves only accel-like per-SM ``blocks_completed``.
* D1 — a tick iterates a set of names.  The order depends on the hash
  seed: under ``0`` it moves accel-like counters, under ``1`` nothing.

An anchor that no longer matches exactly once fails loudly: re-seat the
seed on the refactored code, do not delete it.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).parent
PROBE = Path(__file__).with_name("test_golden_probe.py")

LDST = "core/ldst_unit.py"
SM = "core/sm.py"
HIERARCHY = "memory/hierarchy.py"
ANALYTICAL = "memory/analytical.py"

_QUEUED_CALL = (
    "        completion, transactions, port_cycles = self.memory.access_global(\n"
    "            self.sm_id, inst, cycle\n"
)
_QUEUED_SIGNATURE = (
    "        self, sm_id: int, inst: TraceInstruction, cycle: int\n"
    "    ) -> Tuple[int, int, int]:\n"
)
_QUEUED_INIT = "        self._last_l1_start = 0\n"
_QUEUED_BODY = (
    "        self._last_l1_start = cycle\n"
    "        for sector_addr in sectors:\n"
)
_ANALYTICAL_CALL = (
    "        completion, transactions = self.model.access_global("
    "self.sm_id, inst, cycle)\n"
)
_DETAILED_STAGES = (
    "        self._run_events(cycle)\n"
    "        self._tick_dram(cycle)\n"
    "        self._tick_l2(cycle)\n"
)
_BLOCK_DONE = "        self.block_source.block_done(self.sm_id, trace, cycle)\n"


def _retain(param: str, attr: str):
    """``QueuedMemorySystem.access_global`` keeps its extra argument and
    consults it on the next call; the caller passes ``param``."""
    return [
        (LDST, _QUEUED_CALL,
         _QUEUED_CALL.replace("inst, cycle\n", f"inst, cycle, {param}\n")),
        (HIERARCHY, _QUEUED_SIGNATURE,
         _QUEUED_SIGNATURE.replace("cycle: int\n", "cycle: int, caller\n")),
        (HIERARCHY, _QUEUED_INIT, _QUEUED_INIT + "        self._caller = None\n"),
        (HIERARCHY, _QUEUED_BODY,
         "        if self._caller is not None:\n"
         f"            cycle = max(cycle, self._caller.{attr})\n"
         "        self._caller = caller\n" + _QUEUED_BODY),
    ]


#: name -> edits; an edit is (file, anchor, replacement).
SEEDS = {
    "W1-sm-writes-block-scheduler-field": [
        (SM, _BLOCK_DONE,
         _BLOCK_DONE + "        self.block_source.last_completion_cycle = cycle + 8\n"),
    ],
    "W2-ldst-writes-analytical-model-field": [
        (LDST,
         "        self._port_free = cycle + 1\n"
         "        completion, transactions = self.model.access_global(",
         "        self._port_free = cycle + 1\n"
         "        self.model.issue_floor = cycle + 2\n"
         "        completion, transactions = self.model.access_global("),
        (ANALYTICAL,
         "        self._port_free = [0] * config.num_sms\n",
         "        self._port_free = [0] * config.num_sms\n"
         "        self.issue_floor = 0\n"),
        (ANALYTICAL,
         "        start = self._port_free[sm_id]\n",
         "        start = max(self._port_free[sm_id], self.issue_floor)\n"),
    ],
    "W3-ldst-mutates-memory-container": [
        (LDST, _QUEUED_CALL, "        self.memory.drams.reverse()\n" + _QUEUED_CALL),
    ],
    "W4-ldst-adds-to-memory-counter": [
        (LDST,
         "        self._port_free = cycle + occupancy\n",
         "        self._port_free = cycle + occupancy\n"
         "        self.memory.counters[\"sector_transactions\"] += transactions\n"),
    ],
    "W5-ldst-reseeds-its-l1": [
        (LDST, _QUEUED_CALL,
         "        self.memory.l1_caches[self.sm_id]._seed = 0\n" + _QUEUED_CALL),
    ],
    "A1-memory-retains-calling-unit": _retain("self", "port_free_cycle"),
    "A2-memory-retains-warp": _retain("warp", "ready_cycle"),
    "A3b-analytical-model-retains-ldst-unit": [
        (LDST, _ANALYTICAL_CALL, _ANALYTICAL_CALL.replace("cycle)", "cycle, self)")),
        (ANALYTICAL,
         "        self, sm_id: int, inst: TraceInstruction, cycle: int\n",
         "        self, sm_id: int, inst: TraceInstruction, cycle: int,"
         " caller=None\n"),
        (ANALYTICAL,
         "        self._port_free = [0] * config.num_sms\n",
         "        self._port_free = [0] * config.num_sms\n"
         "        self._caller = None\n"),
        (ANALYTICAL,
         "        self.counters[\"global_instructions\"] += 1\n",
         "        if self._caller is not None and self._caller.port_free_cycle > cycle:\n"
         "            self.counters[\"port_stall_cycles\"] += 1\n"
         "        self._caller = caller\n"
         "        self.counters[\"global_instructions\"] += 1\n"),
    ],
    "R3-sm-counts-a-block-only-if-first-this-cycle": [
        (SM, _BLOCK_DONE + "        self.counters[\"blocks_completed\"] += 1\n",
         "        first = self.block_source.last_completion_cycle < cycle\n"
         + _BLOCK_DONE
         + "        if first:\n"
         "            self.counters[\"blocks_completed\"] += 1\n"),
    ],
    "D1-memory-stages-from-a-name-set": [
        (HIERARCHY, _DETAILED_STAGES,
         "        for stage in {\"_run_events\", \"_tick_dram\", \"_tick_l2\"}:\n"
         "            getattr(self, stage)(cycle)\n"),
    ],
}


def _seeded_copy(name: str, destination: Path) -> Path:
    tree = destination / "repro"
    shutil.copytree(PACKAGE, tree, ignore=shutil.ignore_patterns("__pycache__"))
    for relative, anchor, replacement in SEEDS[name]:
        path = tree / relative
        text = path.read_text()
        assert text.count(anchor) == 1, (
            f"{name}: anchor in {relative} matches {text.count(anchor)} "
            f"times, not once — the code moved; re-seat the seed:\n{anchor}"
        )
        path.write_text(text.replace(anchor, replacement))
    return destination


def _probe(src: Path, hash_seed: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(PROBE)],
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_seed_fails_the_probe_pin(name, tmp_path):
    src = _seeded_copy(name, tmp_path)
    for hash_seed in ("0", "1"):
        child = _probe(src, hash_seed)
        # A difference line reads "<run>: <what> <pinned> -> <got>"; a
        # crash or an import error is not the pin firing.
        if child.returncode == 1 and " -> " in child.stdout:
            return
        assert child.returncode == 0, child.stdout + child.stderr
    pytest.fail(f"{name}: the probe matches the fixture under both hash seeds")
