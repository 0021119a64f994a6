"""Configuration file I/O.

Configurations are stored as JSON with one object per component, mirroring
the dataclass tree in :mod:`repro.frontend.config`.  This is the
"configuration files" half of the Hardware Configuration Collector:
architects edit the file, the collector parses and validates it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, Union

from repro.errors import ConfigError
from repro.frontend.config import (
    CacheConfig,
    DRAMConfig,
    ExecUnitConfig,
    GPUConfig,
    NoCConfig,
    SMConfig,
)
from repro.frontend.isa import UnitClass

_FORMAT_VERSION = 1


def gpu_config_to_dict(config: GPUConfig) -> Dict[str, Any]:
    """Serialize a :class:`GPUConfig` to plain JSON-compatible data."""
    data = asdict(config)
    data["format_version"] = _FORMAT_VERSION
    for unit_entry in data["sm"]["exec_units"]:
        unit_entry["unit"] = unit_entry["unit"].value
    return data


def gpu_config_from_dict(data: Dict[str, Any]) -> GPUConfig:
    """Build and validate a :class:`GPUConfig` from parsed JSON data."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    payload = dict(data)
    version = payload.pop("format_version", _FORMAT_VERSION)
    if version != _FORMAT_VERSION:
        raise ConfigError(f"unsupported config format version {version}")
    try:
        sm_data = dict(payload.pop("sm"))
        exec_units = tuple(
            ExecUnitConfig(
                unit=UnitClass(entry["unit"]),
                lanes=entry["lanes"],
                latency=entry["latency"],
            )
            for entry in sm_data.pop("exec_units")
        )
        sm = SMConfig(exec_units=exec_units, **sm_data)
        l1 = CacheConfig(**payload.pop("l1"))
        l2 = CacheConfig(**payload.pop("l2"))
        noc = NoCConfig(**payload.pop("noc"))
        dram = DRAMConfig(**payload.pop("dram"))
        config = GPUConfig(sm=sm, l1=l1, l2=l2, noc=noc, dram=dram, **payload)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed GPU configuration: {exc}") from exc
    _require_int_fields(config)
    return config


def _require_int_fields(config: Any) -> None:
    """Every field declared ``int`` in ``config``'s dataclass tree holds
    an ``int``; a ``bool`` is not one.

    The range checks of :mod:`repro.frontend.config` pass ``2.5`` and
    ``true`` for a count: read from a file, ``2.5`` would then fail in
    the middle of a simulation and ``true`` would silently mean 1.
    """
    for spec in fields(config):
        value = getattr(config, spec.name)
        for part in value if isinstance(value, tuple) else (value,):
            if is_dataclass(part):
                _require_int_fields(part)
        if spec.type == "int" and (
            isinstance(value, bool) or not isinstance(value, int)
        ):
            raise ConfigError(
                f"{type(config).__name__}.{spec.name} must be an integer, "
                f"got {value!r}"
            )


def save_gpu_config(config: GPUConfig, path: Union[str, Path]) -> None:
    """Write ``config`` to ``path`` as formatted JSON."""
    Path(path).write_text(
        json.dumps(gpu_config_to_dict(config), indent=2, sort_keys=True) + "\n"
    )


def load_gpu_config(path: Union[str, Path]) -> GPUConfig:
    """Read and validate a GPU configuration file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers too long to
        # convert; RecursionError, nesting too deep to parse.
        raise ConfigError(
            f"configuration file {path} is not valid JSON: {exc}"
        ) from exc
    return gpu_config_from_dict(raw)
