"""Serve verification: the sweep service's robustness contracts.

Three contracts from ``docs/serving.md``, each exercised against real
server subprocesses over a unix socket:

* **kill/resume convergence** — a sweep interrupted by SIGKILL (the
  deterministic ``--die-at-job`` stand-in: an exit at a journaled job
  boundary) and resumed on restart produces results bit-identical to an
  uninterrupted server's;
* **cache effectiveness** — re-submitting a completed grid is >90%
  cache hits;
* **degradation tagging** — with chaos crashing every exact attempt,
  answers come from the analytic tier carrying ``degraded=true`` and
  the documented error bound, degradation-refusing requests get a
  typed error, and the exact-result store stays empty throughout.

Unlike the other pillars this one spawns subprocesses and binds
sockets, so it runs only when explicitly requested
(``repro check --mode serve``), not under ``--mode all``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

import repro
from repro.errors import ServeError
from repro.frontend.config import GPUConfig
from repro.serve.client import SweepClient, build_grid, replay_grid
from repro.serve.store import ResultStore
from repro.check.report import CheckFinding, info, violation

_CHECK = "serve"

#: Grid the pillar sweeps: 2 config points x the app selection.
GRID = {"num_sms": ["34", "68"]}

#: The acceptance bar for re-submitting a completed grid.
MIN_HIT_RATIO = 0.90


def _spawn_server(
    socket_path: str,
    store_dir: str,
    journal_path: str,
    extra_args: Sequence[str] = (),
) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", socket_path, "--store", store_dir,
         "--journal", journal_path, *extra_args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)


def _result_signature(result: Dict) -> tuple:
    """The bit-identity view of a result dict: cycles and kernel spans,
    wall times excluded (they legitimately differ run to run)."""
    return (
        result["total_cycles"],
        tuple(
            (k["name"], k["start_cycle"], k["end_cycle"], k["instructions"])
            for k in result.get("kernels", ())
        ),
    )


def _submit_all(client: SweepClient, requests: Sequence[Dict]) -> Dict:
    return replay_grid(client, requests)


def _check_kill_resume(
    config: GPUConfig,
    app_names: Sequence[str],
    scale: str,
    workdir: str,
) -> List[CheckFinding]:
    findings: List[CheckFinding] = []
    requests = build_grid(config, GRID, app_names, scale, "swift-basic")
    die_at = max(2, len(requests) // 2)

    # Reference: an uninterrupted server over the same grid.
    ref_dir = os.path.join(workdir, "ref")
    os.makedirs(ref_dir)
    ref_socket = os.path.join(ref_dir, "s.sock")
    proc = _spawn_server(ref_socket, os.path.join(ref_dir, "store"),
                         os.path.join(ref_dir, "serve.journal"))
    try:
        with SweepClient(ref_socket) as client:
            reference = _submit_all(client, requests)
            client.drain()
    finally:
        _stop_server(proc)
    if reference["errors"]:
        return [violation(
            _CHECK, "kill-resume",
            f"uninterrupted reference sweep had {reference['errors']} "
            f"error(s); cannot establish the convergence baseline",
        )]

    # Interrupted run: the server exits(9) right after admitting job
    # ``die_at``, leaving it journaled but unsettled.
    run_dir = os.path.join(workdir, "killed")
    os.makedirs(run_dir)
    socket_path = os.path.join(run_dir, "s.sock")
    store_dir = os.path.join(run_dir, "store")
    journal_path = os.path.join(run_dir, "serve.journal")
    proc = _spawn_server(socket_path, store_dir, journal_path,
                         ["--die-at-job", str(die_at)])
    died_mid_sweep = False
    try:
        client = SweepClient(socket_path)
        client.connect()
        for request in requests:
            try:
                client.submit(request)
            except (ServeError, OSError):
                died_mid_sweep = True
                break
        client.close()
    finally:
        _stop_server(proc)
    if not died_mid_sweep:
        findings.append(violation(
            _CHECK, "kill-resume",
            f"server with --die-at-job {die_at} completed the whole "
            f"{len(requests)}-job sweep; the kill stand-in never fired",
        ))

    # Restart on the same store/journal: recovery must settle the debt,
    # then the resubmitted grid must match the reference bit-for-bit.
    proc = _spawn_server(socket_path, store_dir, journal_path)
    try:
        with SweepClient(socket_path) as client:
            resumed = _submit_all(client, requests)
            rerun = _submit_all(client, requests)
            client.drain()
    finally:
        _stop_server(proc)

    if resumed["errors"] or resumed["degraded"]:
        findings.append(violation(
            _CHECK, "kill-resume",
            f"resumed sweep had {resumed['errors']} error(s) and "
            f"{resumed['degraded']} degraded answer(s); expected clean "
            f"exact results",
        ))
    mismatches = 0
    for index, (ref, res) in enumerate(
        zip(reference["responses"], resumed["responses"])
    ):
        if ref.get("status") != "ok" or res.get("status") != "ok":
            continue
        if (_result_signature(ref["result"])
                != _result_signature(res["result"])):
            mismatches += 1
            findings.append(violation(
                _CHECK, "kill-resume",
                f"job {index} ({requests[index]['app']}) diverged after "
                f"kill+resume: {ref['result']['total_cycles']} vs "
                f"{res['result']['total_cycles']} cycles",
            ))
    if not mismatches and died_mid_sweep:
        findings.append(info(
            _CHECK, "kill-resume",
            f"SIGKILL at job {die_at}/{len(requests)} + restart "
            f"converged bit-identically to the uninterrupted sweep",
        ))

    if rerun["hit_ratio"] < MIN_HIT_RATIO:
        findings.append(violation(
            _CHECK, "cache",
            f"re-submitting the completed grid hit the cache for only "
            f"{rerun['hits']}/{rerun['total']} jobs "
            f"(ratio {rerun['hit_ratio']:.2f} < {MIN_HIT_RATIO})",
        ))
    else:
        findings.append(info(
            _CHECK, "cache",
            f"grid re-submission: {rerun['hits']}/{rerun['total']} "
            f"cache hits (ratio {rerun['hit_ratio']:.2f})",
        ))
    return findings


def _check_degradation(
    config: GPUConfig,
    app_names: Sequence[str],
    scale: str,
    workdir: str,
) -> List[CheckFinding]:
    findings: List[CheckFinding] = []
    run_dir = os.path.join(workdir, "degraded")
    os.makedirs(run_dir)
    socket_path = os.path.join(run_dir, "s.sock")
    store_dir = os.path.join(run_dir, "store")
    requests = build_grid(config, {}, app_names, scale, "swift-basic")
    refused = dict(requests[0])
    refused["allow_degraded"] = False
    # Crash every exact attempt; one failure opens the circuit.
    proc = _spawn_server(
        socket_path, store_dir, os.path.join(run_dir, "serve.journal"),
        ["--crash-rate", "1.0", "--max-attempts", "2",
         "--breaker-threshold", "1"],
    )
    try:
        with SweepClient(socket_path) as client:
            summary = _submit_all(client, requests)
            refusal = client.submit(refused)
            client.drain()
    finally:
        _stop_server(proc)

    for index, response in enumerate(summary["responses"]):
        if response.get("status") != "ok":
            findings.append(violation(
                _CHECK, "degrade",
                f"job {index} under total chaos returned "
                f"{response.get('kind')!r} instead of a degraded answer: "
                f"{response.get('message')}",
            ))
            continue
        if not response.get("degraded"):
            findings.append(violation(
                _CHECK, "degrade",
                f"job {index} under total chaos returned an exact-tagged "
                f"answer; the exact tier cannot have succeeded",
            ))
        elif "error_bound_pct" not in response:
            findings.append(violation(
                _CHECK, "degrade",
                f"degraded response for job {index} is missing its "
                f"error_bound_pct — the tagging contract requires the "
                f"documented bound on every degraded answer",
            ))
    if refusal.get("status") != "error" or refusal.get("degraded"):
        findings.append(violation(
            _CHECK, "degrade",
            f"allow_degraded=false under total chaos should yield a "
            f"typed error, got {refusal.get('status')!r} "
            f"(kind {refusal.get('kind')!r})",
        ))

    stored = len(ResultStore(store_dir))
    if stored:
        findings.append(violation(
            _CHECK, "degrade",
            f"{stored} entr(y/ies) appeared in the exact-result store "
            f"during an all-degraded run; degraded values must never be "
            f"cached",
        ))
    if not findings:
        findings.append(info(
            _CHECK, "degrade",
            f"{len(requests)} degraded answer(s) correctly tagged with "
            f"error bounds, refusal path typed, store stayed empty",
        ))
    return findings


def serve_check(
    config: GPUConfig,
    app_names: Sequence[str],
    scale: str = "tiny",
    workdir: Optional[str] = None,
) -> List[CheckFinding]:
    """Run the serve contracts; see module doc.

    ``workdir`` (a scratch directory) is created when not given.  Unix
    socket paths must stay under the OS limit (~104 bytes), so the
    default scratch lives in the system temp directory.
    """
    from repro.frontend.precharacterize import numpy_available

    findings: List[CheckFinding] = []
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-serve-check-")
    findings.extend(
        _check_kill_resume(config, app_names, scale, workdir)
    )
    if numpy_available():
        findings.extend(
            _check_degradation(config, app_names, scale, workdir)
        )
    else:
        findings.append(info(
            _CHECK, "degrade",
            "numpy unavailable: the analytic fallback tier cannot run, "
            "so the degradation contract is skipped on this host",
        ))
    return findings
