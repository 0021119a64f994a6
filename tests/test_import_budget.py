"""What a fresh process loads before it does what it was started for.

``import repro`` once loaded 103 ``repro`` modules, numpy, asyncio and
multiprocessing whatever the entry point.  The aggregating packages now
resolve their exports on first use (``repro/_lazy.py``), so the cost of
an entry point is the modules it needs — pinned here as exact counts of
``repro.*`` modules, with the heavy third parties and the apparatus
trees forbidden where the entry point has no use for them.  A new eager
edge fails the count; the assertion message lists what was loaded.

Every case runs in a fresh ``sys.executable -c`` child that prints its
``sys.modules``: this process has long since imported everything.

The last test is the rule that keeps laziness from moving cost somewhere
worse — a long-lived process imports before it forks: once ``repro
serve`` has built its service, running a job on any registered simulator
or the degraded fallback imports nothing more.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Third-party and stdlib weight no engine-tier entry point needs.
HEAVY = {"numpy", "asyncio", "multiprocessing"}

#: Apparatus around the simulator; an entry point may load from these
#: only what its row allows by name.
APPARATUS = ("repro.analyze", "repro.check", "repro.eval", "repro.guard",
             "repro.oracle", "repro.profile", "repro.serve")

#: The two ``choices=`` tuples the CLI parser lists live in modules
#: that import no pillar, rule or harness (the second is in
#: ``repro.resilience.policy``, outside the apparatus).
PARSER_CHOICES = {"repro.check", "repro.check.report"}

QUIET = "import contextlib, io, sys\nwith contextlib.redirect_stdout(io.StringIO()):\n    "

#: id -> (statements, exact number of repro.* modules, apparatus allowed)
ENTRY_POINTS = {
    "import-repro": ("import repro", 2, set()),
    "benchmark-set-up-child": (
        "from repro import load_trace, make_app, save_trace\n"
        "from repro.serve.keys import trace_hash",
        22, {"repro.serve", "repro.serve.keys"},
    ),
    "library-quickstart": (
        "from repro import SwiftSimBasic, get_preset, make_app", 52, set(),
    ),
    "socket-client": (
        "from repro.serve.client import SweepClient",
        17, {"repro.serve", "repro.serve.client"},
    ),
    "registry-names": (
        "from repro.simulators import SIMULATORS\n"
        "assert sorted(SIMULATORS)[0] == 'accel-like' and len(SIMULATORS) == 5\n"
        "assert 'interval' in SIMULATORS and 'nope' not in SIMULATORS\n"
        "assert SIMULATORS.get('nope') is None\n"
        "try:\n    SIMULATORS['nope']\n"
        "except KeyError:\n    pass\n"
        "else:\n    raise AssertionError('no KeyError')",
        3, set(),
    ),
    "cli-apps": (
        QUIET + "import repro.cli; assert repro.cli.main(['apps']) == 0",
        26, PARSER_CHOICES,
    ),
    "cli-simulate": (
        QUIET + "import repro.cli; assert repro.cli.main("
        "['simulate', '--app', 'gemm', '--scale', 'tiny']) == 0",
        57, PARSER_CHOICES,
    ),
}


@functools.lru_cache(maxsize=None)
def modules_loaded_by(statements: str) -> list:
    """Run ``statements`` in a fresh interpreter; its ``sys.modules``
    (one child per distinct ``statements``, shared between tests)."""
    code = statements + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_loads_what_it_needs(entry):
    statements, budget, allowed = ENTRY_POINTS[entry]
    loaded = modules_loaded_by(statements)
    roots = {name.split(".")[0] for name in loaded}
    assert not HEAVY & roots
    ours = [name for name in loaded if name.split(".")[0] == "repro"]
    apparatus = {
        name for name in ours
        if name.startswith(tuple(tree + "." for tree in APPARATUS))
        or name in APPARATUS
    }
    assert apparatus <= allowed, sorted(apparatus - allowed)
    assert len(ours) == budget, (
        f"{entry} loads {len(ours)} repro modules, budget {budget}: {ours}"
    )


def test_socket_client_does_not_need_the_engine():
    """``repro submit`` talks JSON lines to a server; the simulator
    assembly stays out of the client process."""
    loaded = modules_loaded_by(ENTRY_POINTS["socket-client"][0])
    engine = [
        name for name in loaded
        if name.startswith(("repro.simulators", "repro.core", "repro.memory",
                            "repro.sim", "repro.eval", "numpy"))
    ]
    assert engine == []


#: ``repro serve`` up to the moment it would bind its socket, on the real
#: ``_cmd_serve``: ``asyncio.run`` is replaced by a probe that takes the
#: service off the coroutine it was handed, runs what a worker forked
#: from this process could run, and reports every module that arrived.
SERVE_PROBE = """
import asyncio, json, sys, tempfile
import repro.cli


def probe(coroutine):
    service = coroutine.cr_frame.f_locals["self"]
    coroutine.close()
    from repro.frontend.config_io import gpu_config_to_dict
    from repro.frontend.presets import get_preset
    from repro.serve.jobs import JobRequest
    from repro.serve.worker import execute_job
    from repro.simulators import SIMULATORS

    explicit = gpu_config_to_dict(get_preset("rtx3060"))
    before = set(sys.modules)
    for name in SIMULATORS:
        execute_job("gemm", "tiny", None, "rtx2080ti", name)
        execute_job("bfs", "tiny", explicit, "rtx2080ti", name)
    request = JobRequest.from_dict(
        {"app": "gemm", "scale": "tiny", "simulator": "swift-basic"}
    )
    service._run_degraded(request, service.identify(request))
    print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)


asyncio.run = probe
with tempfile.TemporaryDirectory(prefix="repro-import-budget-") as home:
    assert repro.cli.main([
        "serve", "--socket", home + "/s.sock", "--store", home + "/store",
        "--journal", home + "/journal", "--workers", "2",
    ]) == 0
"""


def test_a_server_has_imported_everything_before_it_can_fork():
    pytest.importorskip("numpy")  # the degraded runner is swift-analytic
    child = subprocess.run(
        [sys.executable, "-c", SERVE_PROBE],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    arrived_late = json.loads(child.stderr.splitlines()[-1])
    assert arrived_late == []
