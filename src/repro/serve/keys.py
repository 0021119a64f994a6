"""Content-addressed identity for sweep jobs.

A job is identified by ``(trace_hash, config_hash, simulator)`` — hash
the *content*, not the invocation, so two clients asking the same
question share one cache entry and one in-flight execution.  Soundness
rests on the determinism contract (``docs/verification.md``): equal
hashes imply bit-identical results.

Hashing goes through :func:`canonical_json`, which fixes the two ways
semantically-equal configs diverge textually:

* **dict ordering** — keys are sorted at every nesting level;
* **float formatting** — floats with integral values collapse to ints
  (``2.0`` and ``2`` hash alike; non-integral floats use Python's
  shortest ``repr``, so ``0.1`` and ``0.10`` already agree after
  parsing).  NaN and infinities are rejected: they cannot round-trip
  JSON and never appear in a valid config.

The property suite (``tests/test_serve_properties.py``) holds these
invariants under Hypothesis: key order and float spelling never change
a hash; materially distinct configs never collide on canonical form.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable

from repro.errors import ServeError
from repro.frontend.config import GPUConfig
from repro.frontend.config_io import gpu_config_to_dict
from repro.frontend.trace import ApplicationTrace


def canonical(value):
    """Recursively normalize ``value`` for hashing (see module doc)."""
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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_hash(config) -> str:
    """sha256 of a GPU configuration (accepts ``GPUConfig`` or the
    ``gpu_config_to_dict`` form)."""
    if isinstance(config, GPUConfig):
        config = gpu_config_to_dict(config)
    return _sha256(canonical_json(config))


def trace_fingerprint(trace: ApplicationTrace) -> dict:
    """A structural digest of an application trace.

    Hashes every dynamic instruction (pc, opcode, masks, addresses)
    per warp, so any change to the workload — not just its shape —
    changes the fingerprint.  Cheap relative to simulating the trace.
    """
    hasher = hashlib.sha256()
    num_instructions = 0
    for kernel in trace.kernels:
        hasher.update(f"K {kernel.name} {kernel.grid_dim}\n".encode("utf-8"))
        for block in kernel.blocks:
            hasher.update(
                f"B {block.block_id} {block.shared_mem_bytes} "
                f"{block.regs_per_thread}\n".encode("utf-8")
            )
            for warp in block.warps:
                for inst in warp.instructions:
                    hasher.update(
                        f"{inst.pc} {inst.opcode} {inst.dest_regs} "
                        f"{inst.src_regs} {inst.active_mask} "
                        f"{tuple(inst.addresses)}\n".encode("utf-8")
                    )
                    num_instructions += 1
    return {
        "name": trace.name,
        "kernels": len(trace.kernels),
        "instructions": num_instructions,
        "digest": hasher.hexdigest(),
    }


def trace_hash(trace: ApplicationTrace) -> str:
    """sha256 identity of an application trace's full content."""
    return trace_fingerprint(trace)["digest"]


def workload_hash(app_names: Iterable[str], scale: str) -> str:
    """Identity of a sweep's workload *specification* (app set + scale).

    Used by ``repro eval --resume`` to refuse resuming a journal under
    a different workload; cheaper than generating and hashing every
    trace, and sufficient because trace generation is deterministic in
    (app, scale).
    """
    return _sha256(canonical_json({
        "apps": sorted(set(app_names)),
        "scale": str(scale),
    }))


def job_key(trace_hash_hex: str, config_hash_hex: str, simulator: str) -> str:
    """The content address of one job: what the store and the in-flight
    dedupe table key on."""
    return _sha256(canonical_json({
        "trace": trace_hash_hex,
        "config": config_hash_hex,
        "simulator": simulator,
    }))
