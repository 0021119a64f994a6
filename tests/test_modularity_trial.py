"""The lint trials: seeded bugs vs the rules that survived them.

The paper's hybrid modeling rests on modules that interact only through
fixed interfaces (§III-B2).  These seeds are the measurements that
decided which static rules exist (docs/parallel-engine.md § "Measurement
2", docs/static-analysis.md § "Trial"); each is a few lines edited into
a copy of the *real* ``core/`` and ``memory/`` sources.

* Seven port-contract violations — a cross-module state write that
  bypasses its port, a mutable port argument the far side retains, a
  tick-order-dependent read.  The golden cycle pins fire on all seven,
  as on any timing change, and no runtime pillar kept today reports
  any of them; the SH rules name every one.
* One hash-seed-dependent iteration order in a tick.  Under
  ``PYTHONHASHSEED=0`` it moves a pinned counter, under ``1`` every
  tier-1 test and every pillar passes; DT203 is the one detector that
  fires under both.

Each seed must be reported by exactly its rule at the seeded line, and
the unseeded copy must be clean.  An anchor that no longer matches
exactly once fails loudly: re-seat the seed on the refactored code, do
not delete it.
"""

import shutil
from pathlib import Path

import pytest

import repro
from repro.analyze import lint_paths

PACKAGE = Path(repro.__file__).parent
#: Enough of the tree for the analyzer to type every seeded line.
SUBPACKAGES = ("core", "memory", "sim")

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
_DETAILED_ISSUE = (
    "        # The memory system retains listener/warp/inst until completion:\n"
)
_DETAILED_ACCEPT = (
    "        self._port_free = cycle + 1\n"
    "        self.counters[\"instructions\"] += 1\n"
    "        return PENDING\n"
)
_DETAILED_TICK = (
    "        self._tick_l1(cycle)\n"
    "        return cycle + 1 if self.busy else None\n"
)
_DETAILED_STAGES = (
    "        self._run_events(cycle)\n"
    "        self._tick_dram(cycle)\n"
    "        self._tick_l2(cycle)\n"
)


def _retain(param: str, attr: str):
    """``QueuedMemorySystem.access_global`` keeps its extra argument and
    consults it on the next call (the SH502 shape); the caller passes
    ``param``."""
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


def _contend(condition: str):
    """``DetailedLDSTUnit.try_issue`` samples ``condition`` off the memory
    system before issuing and holds its port a cycle longer when it was
    true (the SH503 shape: the answer depends on which ticked first)."""
    return [
        (LDST, _DETAILED_ISSUE,
         f"        contended = {condition}\n" + _DETAILED_ISSUE),
        (LDST, _DETAILED_ACCEPT,
         _DETAILED_ACCEPT.replace("cycle + 1\n", "cycle + 1 + contended\n")),
    ]


#: name -> (rule, (file, text unique to the seeded line), edits); an edit
#: is (file, anchor, replacement).
SEEDS = {
    "W1-sm-writes-block-scheduler-field": (
        "SH501", (SM, "self.block_source.last_completion_cycle = cycle + 8"),
        [(SM,
          "        self.block_source.block_done(self.sm_id, trace, cycle)\n",
          "        self.block_source.block_done(self.sm_id, trace, cycle)\n"
          "        self.block_source.last_completion_cycle = cycle + 8\n")],
    ),
    "W2-ldst-writes-analytical-model-field": (
        "SH501", (LDST, "self.model.issue_floor = cycle + 2"),
        [(LDST,
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
          "        start = max(self._port_free[sm_id], self.issue_floor)\n")],
    ),
    "W3-ldst-mutates-memory-container": (
        "SH501", (LDST, "self.memory.drams.reverse()"),
        [(LDST, _QUEUED_CALL,
          "        self.memory.drams.reverse()\n" + _QUEUED_CALL)],
    ),
    "A1-memory-retains-calling-unit": (
        "SH502", (LDST, "= self.memory.access_global("),
        _retain("self", "port_free_cycle"),
    ),
    "A2-memory-retains-warp": (
        "SH502", (LDST, "= self.memory.access_global("),
        _retain("warp", "ready_cycle"),
    ),
    "R1-ldst-reads-memory-busy-property": (
        "SH503", (LDST, "contended = self.memory.busy"),
        _contend("self.memory.busy"),
    ),
    "R2-ldst-reads-attribute-set-in-memory-tick": (
        "SH503", (LDST, "contended = self.memory.last_tick == cycle - 1"),
        _contend("self.memory.last_tick == cycle - 1") + [
            (HIERARCHY, _DETAILED_TICK,
             "        self.last_tick = cycle\n" + _DETAILED_TICK),
            (HIERARCHY,
             "        self._dram_busy = [0] * config.memory_partitions\n",
             "        self._dram_busy = [0] * config.memory_partitions\n"
             "        self.last_tick = -1\n"),
        ],
    ),
    "D1-memory-stages-from-a-name-set": (
        "DT203", (HIERARCHY, "for stage in {"),
        [(HIERARCHY, _DETAILED_STAGES,
          "        for stage in {\"_run_events\", \"_tick_dram\", \"_tick_l2\"}:\n"
          "            getattr(self, stage)(cycle)\n")],
    ),
}


def _copy_tree(destination: Path) -> Path:
    for sub in SUBPACKAGES:
        shutil.copytree(PACKAGE / sub, destination / sub,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return destination


def _findings(tree: Path):
    report = lint_paths([tree], root=tree, fail_on="warning")
    return [
        (finding.rule, finding.path, finding.line) for finding in report.findings
    ]


def test_unseeded_copy_has_no_findings(tmp_path):
    assert _findings(_copy_tree(tmp_path)) == []


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_seed_is_named_by_exactly_its_rule(name, tmp_path):
    rule, (seeded_file, seeded_text), edits = SEEDS[name]
    tree = _copy_tree(tmp_path)
    for relative, anchor, replacement in edits:
        path = tree / relative
        text = path.read_text()
        assert text.count(anchor) == 1, (
            f"{name}: anchor in {relative} matches {text.count(anchor)} "
            f"times, not once — the code moved; re-seat the seed:\n{anchor}"
        )
        path.write_text(text.replace(anchor, replacement))
    seeded_lines = [
        number for number, line
        in enumerate((tree / seeded_file).read_text().splitlines(), 1)
        if seeded_text in line
    ]
    assert len(seeded_lines) == 1
    assert _findings(tree) == [(rule, seeded_file, seeded_lines[0])]
