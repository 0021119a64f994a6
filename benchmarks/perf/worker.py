"""Child-process side of the perf benchmark.

``run.py`` starts this file as a fresh interpreter for the two things a
user pays cold: the set-up of a simulation workload (``setup``: import,
generate traces, ``save_trace``, ``load_trace``) and one design-space
sweep on the closed-form tier (``sweep``).  It reaches ``repro`` through
its public entry points only and prints one JSON report as its last
line.  Span times are seconds since the parent spawned this process
(``--t0`` carries the parent's ``time.time()``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from hostspin import host_spin


class Clock:
    """Span recorder on the child's own clock, zero at spawn time.

    After every recorded span it also takes a host-calibration sample
    (``spins``): the parent is blocked while this process works, so only
    samples taken here say how fast the host was for this work.
    """

    def __init__(self, spawned_at: float, calibrate: bool) -> None:
        self._offset = time.time() - spawned_at - time.perf_counter()
        self._calibrate = calibrate
        self.spans = []
        self.spins = []

    def now(self) -> float:
        return time.perf_counter() + self._offset

    def record(self, name: str, start: float, spin: bool = True) -> None:
        self.spans.append((name, start, self.now()))
        if spin and self._calibrate:
            self.spins.append(host_spin())


def cmd_setup(args, clock: Clock) -> dict:
    from repro import load_trace, make_app, save_trace
    from repro.serve.keys import trace_hash

    clock.record("repro.import", 0.0)
    hashes_match = {}
    for name in args.apps.split(","):
        start = clock.now()
        app = make_app(name, scale=args.scale)
        clock.record("tracegen.make_app", start, spin=False)
        path = f"{args.dir}/{name}.trace"
        start = clock.now()
        save_trace(app, path)
        clock.record("frontend.save_trace", start, spin=False)
        start = clock.now()
        loaded = load_trace(path)
        clock.record("frontend.load_trace", start)
        hashes_match[name] = trace_hash(loaded) == trace_hash(app)
    return {"hashes_match": hashes_match}


def cmd_sweep(args, clock: Clock) -> dict:
    import repro  # noqa: F401  (timed: the cold start a CLI user pays)

    import_seconds = clock.now()
    clock.record("repro.import", 0.0)
    profile = None
    if args.profile:
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
    from repro import get_preset, make_app
    from repro.eval.sweep import DesignSpaceSweep
    from repro.frontend.precharacterize import precharacterize
    from repro.tracegen import app_names

    grid = json.loads(args.grid)
    start = clock.now()
    apps = [make_app(name, scale=args.scale) for name in app_names()]
    clock.record("tracegen.make_app", start)
    start = clock.now()
    for app in apps:
        precharacterize(app)
    clock.record("frontend.precharacterize", start)
    start = clock.now()
    result = DesignSpaceSweep(get_preset(args.gpu), grid).run_batched(apps)
    clock.record("eval.run_batched", start)
    if profile is not None:
        profile.disable()

    # run_batched books each app's evaluate_batch wall evenly on its lanes.
    evaluate_seconds = sum(point.wall_seconds for point in result.points)
    digest = hashlib.sha256()
    for point in result.points:
        digest.update(f"{point.app_name} {point.total_cycles}\n".encode("ascii"))
    report = {
        "import_s": import_seconds,
        "evaluate_batch_s": evaluate_seconds,
        "points": len(result.points),
        "apps": len(apps),
        "digest": digest.hexdigest(),
        "sample": [
            {
                "overrides": dict(result.points[index].overrides),
                "app": result.points[index].app_name,
                "cycles": result.points[index].total_cycles,
            }
            for index in json.loads(args.sample)
        ],
    }
    if profile is not None:
        from benchlib import profile_buckets

        report["buckets"] = profile_buckets(profile, ())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("setup", "sweep"))
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scale", default="small")
    parser.add_argument("--gpu", default="rtx2080ti")
    parser.add_argument("--apps", default="")
    parser.add_argument("--dir", default=".")
    parser.add_argument("--grid", default="{}")
    parser.add_argument("--sample", default="[]")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    # The loop would show up in the profile as time of the ``python`` layer.
    clock = Clock(args.t0, calibrate=not args.profile)
    report = (cmd_setup if args.command == "setup" else cmd_sweep)(args, clock)
    report["spans"] = clock.spans
    report["spins"] = clock.spins
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
