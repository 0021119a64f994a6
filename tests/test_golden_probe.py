"""The harm probe, pinned: every architectural counter of 28 full runs.

The golden cycle pins (``test_golden.py`` and friends) cover the default
replacement policy, one hash seed and the cycle counts of a few apps.
This pin covers the configurations they leave out, counter by counter:

* bfs, gemm, sm, nw, hotspot and backprop at ``tiny`` on the RTX 2080 Ti
  preset, on accel-like, swift-basic and swift-memory;
* bfs on the 4-SM test GPU (``conftest.make_tiny_gpu``), on all three;
* bfs and gemm with the preset's L1 under RANDOM replacement, on all
  three;
* bfs at ``small`` on swift-memory.

Each run records ``total_cycles``, every kernel's (start, end) and every
per-module counter except ``repro.check.shadow.TICK_OBSERVER_COUNTERS``
— the only counters a change of clocking may move — as one JSON line of
``tests/data/golden_probe.json``.  The probe runs once in this process
and once in a fresh interpreter under each of ``PYTHONHASHSEED=0`` and
``1``, so an order that depends on the hash seed fails whichever seed
the suite itself runs under.

Run as a script (``PYTHONPATH=src python tests/test_golden_probe.py``)
it checks the fixture and stops at the first run that differs: exit 0
when everything matches, 1 with the differences on stdout.
``tests/test_modularity_trial.py`` runs it that way over seeded copies
of the package.

When a deliberate modeling change moves these numbers, regenerate with:

    PYTHONPATH=src python - <<'EOF'
    import json, sys; sys.path.insert(0, "tests")
    from test_golden_probe import FIXTURE, probe
    FIXTURE.write_text("".join(json.dumps(r, sort_keys=True) + "\\n"
                               for r in probe()))
    EOF

and explain the shift in the commit message.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import get_preset, make_app
from repro.check.shadow import TICK_OBSERVER_COUNTERS
from repro.simulators import SIMULATORS

from conftest import make_tiny_gpu

FIXTURE = Path(__file__).parent / "data" / "golden_probe.json"
SRC = str(Path(repro.__file__).resolve().parent.parent)

TIERS = ("accel-like", "swift-basic", "swift-memory")
APPS = ("bfs", "gemm", "sm", "nw", "hotspot", "backprop")

#: Differences listed per failing run, at most.
SHOWN = 20


def runs():
    """(run name, GPU config, tier, app, scale) for every probed run."""
    rtx = get_preset("rtx2080ti")
    random_l1 = rtx.with_l1(replacement="RANDOM")
    for app in APPS:
        for tier in TIERS:
            yield f"rtx2080ti/{tier}/{app}/tiny", rtx, tier, app, "tiny"
    for tier in TIERS:
        yield f"tiny-gpu/{tier}/bfs/tiny", make_tiny_gpu(), tier, "bfs", "tiny"
    for app in ("bfs", "gemm"):
        for tier in TIERS:
            yield f"random-l1/{tier}/{app}/tiny", random_l1, tier, app, "tiny"
    yield "rtx2080ti/swift-memory/bfs/small", rtx, "swift-memory", "bfs", "small"


def probe():
    """One record per run, in :func:`runs` order."""
    traces = {}
    for name, gpu, tier, app, scale in runs():
        if (app, scale) not in traces:
            traces[app, scale] = make_app(app, scale=scale)
        result = SIMULATORS[tier](gpu).simulate(traces[app, scale])
        yield {
            "run": name,
            "total_cycles": result.total_cycles,
            "kernels": [[k.start_cycle, k.end_cycle] for k in result.kernels],
            "counters": {
                f"{module}.{counter}": value
                for module, counters in sorted(result.metrics.as_dict().items())
                for counter, value in sorted(counters.items())
                if counter not in TICK_OBSERVER_COUNTERS
            },
        }


def load_fixture():
    with FIXTURE.open() as handle:
        return [json.loads(line) for line in handle]


def differences(got, pinned):
    """What moved between two records of the same run, one line each."""
    lines = [
        f"{got['run']}: {field} {pinned[field]} -> {got[field]}"
        for field in ("total_cycles", "kernels")
        if got[field] != pinned[field]
    ]
    for key in sorted(set(got["counters"]) | set(pinned["counters"])):
        before = pinned["counters"].get(key)
        after = got["counters"].get(key)
        if before != after:
            lines.append(f"{got['run']}: {key} {before} -> {after}")
    return lines


def first_mismatch():
    """The differences of the first run that disagrees with the fixture
    (``[]`` when all agree); stops probing there."""
    pinned = load_fixture()
    for expected, got in zip(pinned, probe()):
        if got["run"] != expected["run"]:
            return [f"run {got['run']} where the fixture has {expected['run']}"]
        moved = differences(got, expected)
        if moved:
            return moved
    return []


def test_probe_matches_fixture():
    pinned = load_fixture()
    assert [record["run"] for record in pinned] == [run[0] for run in runs()]
    moved = []
    for got, expected in zip(probe(), pinned):
        moved += differences(got, expected)[:SHOWN]
    assert not moved, (
        "the model moved (regenerate only if intended, see module "
        "docstring):\n" + "\n".join(moved)
    )


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_probe_matches_fixture_under_hash_seed(hash_seed):
    child = subprocess.run(
        [sys.executable, __file__],
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed},
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout + child.stderr


if __name__ == "__main__":
    moved = first_mismatch()
    print("\n".join(moved[:SHOWN]) or "probe matches the fixture")
    sys.exit(1 if moved else 0)
