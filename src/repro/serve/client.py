"""Synchronous client for the sweep service, plus grid helpers.

The client is deliberately synchronous (plain ``socket``): the
consumers — the ``repro submit`` CLI, the ``serve`` check pillar, and
the CI smoke — are scripts that want a blocking call, and the protocol
is one JSON line per request/response.

:func:`build_grid` turns a ``DesignSpaceSweep``-style grid spec
(``"l1.size_bytes=16384,65536;num_sms=34,68"``) into the request list a
Fig. 4-scale replay submits; :func:`replay_grid` submits it and reports
the cache-hit ratio the acceptance gate checks.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError, ServeError
from repro.frontend.config import GPUConfig, apply_override
from repro.frontend.config_io import gpu_config_to_dict


class SweepClient:
    """One connection to a sweep server's unix socket."""

    def __init__(self, socket_path: str, timeout: float = 300.0) -> None:
        self.socket_path = str(socket_path)
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._recv_buffer = b""

    # ------------------------------------------------------------------
    # connection

    def connect(self, retries: int = 50, delay: float = 0.1) -> None:
        """Connect, polling while the server finishes recovery/bind."""
        last_error: Optional[OSError] = None
        for __ in range(max(1, retries)):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            try:
                sock.connect(self.socket_path)
            except OSError as exc:
                sock.close()
                last_error = exc
                time.sleep(delay)
                continue
            self._sock = sock
            return
        raise ServeError(
            f"could not connect to sweep server at {self.socket_path!r}: "
            f"{last_error}"
        )

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "SweepClient":
        if self._sock is None:
            self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # protocol

    def call(self, payload: Dict) -> Dict:
        """One request/response round trip."""
        if self._sock is None:
            self.connect()
        line = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._sock.sendall(line)
        raw = self._read_line()
        try:
            response = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServeError(f"unparsable server response: {exc}")
        if not isinstance(response, dict):
            raise ServeError("server response is not an object")
        return response

    def _read_line(self) -> bytes:
        while b"\n" not in self._recv_buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ServeError(
                    "server closed the connection mid-response (crashed "
                    "or draining); reconnect after it restarts"
                )
            self._recv_buffer += chunk
        line, __, self._recv_buffer = self._recv_buffer.partition(b"\n")
        return line

    # ------------------------------------------------------------------
    # operations

    def ping(self) -> bool:
        return self.call({"op": "ping"}).get("pong", False) is True

    def stats(self) -> Dict:
        return self.call({"op": "stats"})

    def drain(self) -> Dict:
        return self.call({"op": "drain"})

    def submit(self, job: Dict) -> Dict:
        payload = dict(job)
        payload["op"] = "submit"
        return self.call(payload)


def parse_grid_spec(spec: str) -> Dict[str, List[str]]:
    """Parse ``"path=v1,v2;path2=v3"`` into an override table."""
    grid: Dict[str, List[str]] = {}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ConfigError(
                f"grid clause {clause!r} is not 'path=v1,v2,...'"
            )
        path, values_text = clause.split("=", 1)
        values = [v.strip() for v in values_text.split(",") if v.strip()]
        if not values:
            raise ConfigError(f"grid clause {clause!r} lists no values")
        grid[path.strip()] = values
    if not grid:
        raise ConfigError(f"grid spec {spec!r} defines no axes")
    return grid


def _coerce(value: str):
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def grid_points(base: GPUConfig, grid: Dict[str, List[str]]) -> List[GPUConfig]:
    """Every configuration in the cartesian grid, in axis-sorted order."""
    points = [base]
    for path in sorted(grid):
        points = [
            apply_override(point, path, _coerce(value))
            for point in points
            for value in grid[path]
        ]
    return points


def build_grid(
    base: GPUConfig,
    grid: Dict[str, List[str]],
    apps: Sequence[str],
    scale: str,
    simulator: str,
    *,
    allow_degraded: bool = True,
) -> List[Dict]:
    """The submit payloads for one (apps x grid) sweep."""
    requests = []
    for config in grid_points(base, grid):
        config_dict = gpu_config_to_dict(config)
        for app in apps:
            requests.append({
                "app": app,
                "scale": scale,
                "simulator": simulator,
                "config": config_dict,
                "allow_degraded": allow_degraded,
            })
    return requests


def replay_grid(client: SweepClient, requests: Sequence[Dict]) -> Dict:
    """Submit every request and summarize the sweep.

    The summary's ``hit_ratio`` is what the serve acceptance gate
    checks: resubmitting an already-computed grid must be >90% cache
    hits.
    """
    responses = []
    hits = degraded = errors = 0
    for request in requests:
        response = client.submit(request)
        responses.append(response)
        if response.get("status") != "ok":
            errors += 1
        elif response.get("degraded"):
            degraded += 1
        elif response.get("cached"):
            hits += 1
    total = len(responses)
    return {
        "total": total,
        "hits": hits,
        "degraded": degraded,
        "errors": errors,
        "hit_ratio": (hits / total) if total else 0.0,
        "responses": responses,
    }
