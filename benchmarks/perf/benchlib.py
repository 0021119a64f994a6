"""Shared plumbing of the perf benchmark: paths, the per-run context,
the span tracer, the repetition loop, child processes and profiling
buckets.

Nothing here imports ``repro`` at module level — ``worker.py`` measures
``import repro`` itself, and ``run.py`` must be able to refuse a
checkout without ``src/`` before touching the package.
"""

from __future__ import annotations

import gc
import json
import os
import pstats
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from hostspin import SPIN_REFERENCE_S, host_spin

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
PACKAGE_DIR = SRC_DIR / "repro"

#: Passes of a non-quick measurement: one warm-up plus at least two kept.
MIN_PASSES = 3


def child_env() -> Dict[str, str]:
    """Environment of every child: the checkout's ``src`` on the path and
    a pinned hash seed, so set/dict iteration order cannot differ between
    repetitions."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def relative(path: Path) -> str:
    """``path`` relative to the current directory when it lies below it.

    Unix socket paths are capped near 100 bytes, and a checkout can sit
    arbitrarily deep; the harness runs from the checkout root, so the
    relative form stays short.
    """
    try:
        return str(Path(path).resolve().relative_to(Path.cwd().resolve()))
    except ValueError:
        return str(path)


# ----------------------------------------------------------------------
# statistics


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation beyond the samples)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * len(ordered))) - 1))
    return float(ordered[rank])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


# ----------------------------------------------------------------------
# tracing


class Tracer:
    """In-memory span recorder.

    A span is ``{id, name, start, end, parent, run_id, attrs, counts}``
    with times in seconds since the tracer was created.  Spans nest by
    the ``with`` structure; ``parent`` is the enclosing span's id.  A
    disabled tracer hands out a scratch dict and records nothing, so the
    timed repetitions and the traced one share their code.
    """

    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self._origin

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield {"counts": {}}
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "start": self.now(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "attrs": attrs,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = self.now()

    def adopt(self, parent: Dict, child_spans: Iterable[Sequence]) -> None:
        """Attach ``(name, start, end)`` spans a child process measured on
        its own clock (seconds since it was spawned) below ``parent``."""
        if not self.enabled:
            return
        for name, start, end in child_spans:
            self.spans.append({
                "id": len(self.spans),
                "name": name,
                "start": parent["start"] + start,
                "end": parent["start"] + end,
                "parent": parent["id"],
                "run_id": self.run_id,
                "attrs": {"clock": "child"},
                "counts": {},
            })

    def total(self, name: str) -> float:
        """Summed duration of every finished span called ``name``."""
        return sum(
            s["end"] - s["start"] for s in self.spans
            if s["name"] == name and s["end"] is not None
        )


def self_times(spans: Sequence[Dict]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# ----------------------------------------------------------------------
# the per-run context


@dataclass
class Ctx:
    """One run of one workload: its inputs and its correctness ledger."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    workdir: Path
    tracer: Tracer
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Host-calibration samples, taken between the items of the timed passes.
    spins: List[float] = field(default_factory=list)

    @property
    def scale(self) -> str:
        return "tiny" if self.quick else "small"

    def rng(self, *stream) -> random.Random:
        """A generator for one named decision stream of this seed."""
        return random.Random(f"{self.seed}/{self.workload}/" + "/".join(map(str, stream)))

    def spin(self) -> None:
        """Sample the host's speed now (see :func:`host_spin`)."""
        self.spins.append(host_spin())

    def slowdown(self) -> float:
        """How much slower than the reference host this run's host was."""
        return median(self.spins) / SPIN_REFERENCE_S

    def check(self, ok: bool, message: str) -> bool:
        """Count one operation or comparison; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)
        return ok


def run_passes(ctx: Ctx, one_pass: Callable[[int], Dict]) -> List[Dict]:
    """Repeat ``one_pass`` for ``ctx.seconds`` and drop the warm-up pass.

    A pass is started only while the slowest pass seen so far would still
    finish inside the budget.  ``--quick`` and the untraced baseline of a
    traced run take two passes instead: the warm-up and one kept.
    """
    limit = 2 if (ctx.quick or ctx.trace) else None
    started = time.perf_counter()
    slowest = 0.0
    passes: List[Dict] = []
    while True:
        gc.collect()
        began = time.perf_counter()
        passes.append(one_pass(len(passes)))
        slowest = max(slowest, time.perf_counter() - began)
        if limit is not None:
            if len(passes) >= limit:
                break
        elif len(passes) >= MIN_PASSES and (
            time.perf_counter() - started + slowest > ctx.seconds
        ):
            break
    return passes[1:]


# ----------------------------------------------------------------------
# processes and host


def run_worker(args: Sequence[str], timeout: float = 170.0) -> Tuple[Dict, float]:
    """Run ``worker.py`` with ``args`` to completion.

    Returns its JSON report and the wall time from spawn to exit.  The
    worker learns its spawn time from ``--t0`` so that what it reports
    includes interpreter start-up.
    """
    began = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(PERF_DIR / "worker.py"), *args, "--t0", repr(time.time())],
        env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    wall = time.perf_counter() - began
    if completed.returncode != 0:
        raise RuntimeError(
            f"worker {args[0]} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-500:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1]), wall


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# profile bucketing


def profile_buckets(profile, modules: Sequence[str]) -> Dict[str, Tuple[float, int]]:
    """Sum a ``cProfile`` run's self time and call counts per layer.

    A function belongs to the package its file sits in below
    ``src/repro`` (``sim``, ``core``, ...); everything else — stdlib,
    numpy, builtins, the harness — is ``python``.  ``modules`` names
    ``package.module`` files that additionally get a bucket of their own
    (``sim.engine`` is also counted inside ``sim``).
    """
    buckets: Dict[str, List] = {}

    def add(name: str, seconds: float, calls: int) -> None:
        slot = buckets.setdefault(name, [0.0, 0])
        slot[0] += seconds
        slot[1] += calls

    prefix = str(PACKAGE_DIR) + os.sep
    for (filename, __, ___), (____, calls, self_seconds, *_rest) in (
        pstats.Stats(profile).stats.items()
    ):
        if not filename.startswith(prefix):
            add("python", self_seconds, calls)
            continue
        parts = filename[len(prefix):].split(os.sep)
        if len(parts) < 2:
            add("python", self_seconds, calls)
            continue
        add(parts[0], self_seconds, calls)
        module = f"{parts[0]}.{parts[1][:-3]}"
        if module in modules:
            add(module, self_seconds, calls)
    return {name: (slot[0], slot[1]) for name, slot in buckets.items()}
