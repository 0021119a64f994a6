"""The lint trials: seeded bugs vs the rules that survived them.

The paper's hybrid modeling rests on modules that interact only through
fixed interfaces (§III-B2).  Which static rules exist was decided by
seeding real bugs into a copy of the *real* ``core/`` and ``memory/``
sources and recording which detector fires under both
``PYTHONHASHSEED=0`` and ``1`` (docs/static-analysis.md § "Trial").
Three seeds are the reason a rule exists — no golden pin, no other
tier-1 test and no runtime pillar reported them:

* W5 — the swift-basic LD/ST unit resets its L1's replacement seed.
  Cycles move only under RANDOM replacement, which nothing pins; SH501
  names the write.
* A3b — the analytical memory model keeps the calling LD/ST unit and
  reads its port on the next call.  Only the model's
  ``port_stall_cycles`` counter moves; SH502 names the retained alias.
* D1 — one hash-seed-dependent iteration order in a tick.  Under
  ``PYTHONHASHSEED=0`` it moves a pinned counter, under ``1`` every
  tier-1 test and every pillar passes; DT203 is the one detector that
  fires under both.

The first trial's cross-module writes (W1–W3) and retained port
arguments (A1, A2) stay as lint cases because SH501 and SH502 still
name them, though the golden pins catch each of them too.  Its two
tick-order-dependent reads, and both module registration-order
permutations, were caught by the pins under both hash seeds; the rule
that named the reads is deleted, so they live in the docs table only.

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
_ANALYTICAL_CALL = (
    "        completion, transactions = self.model.access_global("
    "self.sm_id, inst, cycle)\n"
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
    "W5-ldst-reseeds-its-l1": (
        "SH501", (LDST, "._seed = 0"),
        [(LDST, _QUEUED_CALL,
          "        self.memory.l1_caches[self.sm_id]._seed = 0\n"
          + _QUEUED_CALL)],
    ),
    "A1-memory-retains-calling-unit": (
        "SH502", (LDST, "= self.memory.access_global("),
        _retain("self", "port_free_cycle"),
    ),
    "A2-memory-retains-warp": (
        "SH502", (LDST, "= self.memory.access_global("),
        _retain("warp", "ready_cycle"),
    ),
    "A3b-analytical-model-retains-ldst-unit": (
        "SH502", (LDST, "self.model.access_global(self.sm_id, inst, cycle, self)"),
        [(LDST, _ANALYTICAL_CALL,
          _ANALYTICAL_CALL.replace("cycle)", "cycle, self)")),
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
          "        self.counters[\"global_instructions\"] += 1\n")],
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
    report = lint_paths([tree], root=tree)
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
