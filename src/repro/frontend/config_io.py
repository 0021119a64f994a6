"""Configuration file I/O.

Configurations are stored as JSON with one object per component, mirroring
the dataclass tree in :mod:`repro.frontend.config`.  This is the
"configuration files" half of the Hardware Configuration Collector:
architects edit the file, the collector parses and validates it.
:func:`config_hash` is a configuration's content identity, over the
:func:`canonical_json` form the sweep service also hashes requests by.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, Union

from repro.errors import ConfigError, ServeError
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


def canonical(value):
    """Recursively normalize ``value`` for hashing.

    Fixes the two ways semantically-equal configs diverge textually:
    dict keys are sorted at every nesting level, and a float with an
    integral value collapses to an int (``2.0`` and ``2`` hash alike; a
    non-integral float keeps Python's shortest ``repr``).  NaN and the
    infinities cannot round-trip JSON and never appear in a valid
    config: they are refused.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ServeError(
                f"cannot canonicalize non-finite float {value!r}"
            )
        if value.is_integer():
            return int(value)
        return value
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise ServeError(
                    f"cannot canonicalize non-string dict key {key!r}"
                )
        return {key: canonical(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    raise ServeError(
        f"cannot canonicalize value of type {type(value).__name__}"
    )


def canonical_json(value) -> str:
    """The canonical wire/hash form: sorted keys, compact separators."""
    try:
        return json.dumps(
            canonical(value), sort_keys=True, separators=(",", ":"),
            allow_nan=False,
        )
    except RecursionError:
        raise ServeError(
            "cannot canonicalize a value nested this deeply"
        ) from None


def config_hash(config) -> str:
    """sha256 of a GPU configuration (accepts ``GPUConfig`` or the
    ``gpu_config_to_dict`` form): the one config identity the result
    store, the ``repro eval`` journal and forensic bundles record."""
    # Imported here: hashlib maps OpenSSL (3.5 MiB resident, CPython 3.11
    # on Linux), and every simulation imports this module but hashes nothing.
    import hashlib

    if isinstance(config, GPUConfig):
        config = gpu_config_to_dict(config)
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()
