"""Forensic bundles: the crime-scene dump for guard violations.

When the watchdog declares a stall or an invariant guard trips, the
interesting state is about to be destroyed by the exception unwinding.
A bundle preserves it on disk first:

.. code-block:: text

    <bundle_dir>/bundle_<kind>_c<cycle>/
        manifest.json       kind, cycle, diagnosis, run meta (config hash)
        modules.json        per-module state_summary() + counters
        trace_window.jsonl  trailing engine events (tick/wake), one per line

Everything is JSON so a human (or a later triage script) can read it
without unpickling anything, and deterministic (sorted keys, no
wall-clock timestamps) so two runs of the same failure produce
byte-identical bundles.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.engine import Engine


def _module_records(engine: Engine) -> List[Dict[str, object]]:
    records: List[Dict[str, object]] = []
    for root in engine.modules:
        for module in root.walk():
            records.append(
                {
                    "name": module.name,
                    "component": module.component,
                    "level": module.level.value,
                    "counters": dict(
                        sorted(module.counters.as_dict().items())
                    ),
                    "state": module.state_summary(),
                }
            )
    return records


def write_bundle(
    bundle_dir: Path,
    kind: str,
    cycle: int,
    engine: Engine,
    diagnosis: Optional[Dict[str, object]] = None,
    events: Optional[Iterable[Tuple[int, str, str]]] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Path:
    """Write one forensic bundle; returns the bundle directory.

    ``kind`` is ``"stall"`` or ``"invariant"`` (anything short and
    filesystem-safe works).  ``events`` is the watchdog's trailing
    ``(cycle, event, module)`` window, if one was being kept.
    """
    bundle_dir = Path(bundle_dir)
    target = bundle_dir / f"bundle_{kind}_c{cycle:012d}"
    # A re-raised violation at the same cycle (e.g. a retry) should not
    # clobber the original evidence; suffix until free.
    suffix = 0
    final = target
    while final.exists():
        suffix += 1
        final = Path(f"{target}_{suffix}")
    final.mkdir(parents=True)

    manifest: Dict[str, object] = {
        "kind": kind,
        "cycle": cycle,
        "engine_cycle": engine.cycle,
        "modules": sum(1 for root in engine.modules for _ in root.walk()),
        "diagnosis": diagnosis or {},
    }
    if meta:
        manifest["run"] = dict(meta)
    (final / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2, default=repr) + "\n",
        encoding="utf-8",
    )
    (final / "modules.json").write_text(
        json.dumps(_module_records(engine), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    with (final / "trace_window.jsonl").open("w", encoding="utf-8") as handle:
        for event_cycle, event, module_name in events or ():
            handle.write(
                json.dumps(
                    {
                        "cycle": event_cycle,
                        "event": event,
                        "module": module_name,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    return final
