"""Job execution: the function the service hands to the Supervisor.

Lives at module level (not a closure) so it pickles by reference to the
service's kept Supervisor workers — the same constraint the sweep
driver's tasks obey.  Each execution rebuilds everything from the
request's value form (app name, scale, config dict): a job shares no
in-memory state with the server or with the jobs its worker ran before,
which is what makes a crashed worker retryable and a crashed *server*
recoverable from the journal alone.

Importing this module imports every registered simulator.  The registry
resolves a class on lookup, and the service forks its workers after it
has started serving: a class first looked up inside :func:`execute_job`
would be imported again by every worker on the cold path.  A long-lived
process imports before it forks (``docs/architecture.md`` § "Lazy
exports"; ``tests/test_import_budget.py`` holds the server to it).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigError, ServeError
from repro.frontend.config import GPUConfig
from repro.frontend.config_io import gpu_config_from_dict
from repro.frontend.presets import get_preset
from repro.resilience.journal import result_to_dict
from repro.simulators import SIMULATORS
from repro.tracegen.suites import make_app

tuple(SIMULATORS.values())  # the import-before-fork rule, see module doc


def resolve_gpu(config: Optional[Dict], gpu_preset: str) -> GPUConfig:
    """The request's GPU: an explicit config dict, else a preset."""
    if config is not None:
        return gpu_config_from_dict(config)
    return get_preset(gpu_preset)


def execute_job(
    app_name: str,
    scale: str,
    config: Optional[Dict],
    gpu_preset: str,
    simulator_name: str,
) -> Dict:
    """Run one job to completion and return the journal-form result.

    Returns a plain dict (:func:`~repro.resilience.journal.result_to_dict`
    form) rather than a ``SimulationResult`` so the payload crosses the
    worker pipe, the journal, and the store without re-serialization.
    """
    simulator_cls = SIMULATORS.get(simulator_name)
    if simulator_cls is None:
        raise ConfigError(
            f"unknown simulator {simulator_name!r}; "
            f"known: {sorted(SIMULATORS)}"
        )
    gpu = resolve_gpu(config, gpu_preset)
    app = make_app(app_name, scale=scale)
    # The journal form keeps no counters, so none are gathered.
    return result_to_dict(simulator_cls(gpu).simulate(app, gather_metrics=False))


def validate_result_payload(payload: Dict) -> Dict:
    """Reject worker payloads that are not a result dict (e.g. chaos
    corruption) before they reach the store."""
    if not isinstance(payload, dict) or "total_cycles" not in payload:
        raise ServeError(f"worker returned a non-result payload: "
                         f"{str(payload)[:80]!r}")
    return payload
