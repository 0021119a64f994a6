"""Content-addressed identity for sweep jobs.

A job is identified by ``(trace_hash, config_hash, simulator)`` — hash
the *content*, not the invocation, so two clients asking the same
question share one cache entry and one in-flight execution.  Soundness
rests on the determinism contract (``docs/verification.md``): equal
hashes imply bit-identical results.

Hashing goes through :func:`~repro.frontend.config_io.canonical_json`,
which sorts keys at every level and spells an integral float as an int;
``config_hash`` lives beside it, so a forensic bundle records the same
hash as the store and the ``repro eval`` journal without importing this
package.

The property suite (``tests/test_serve_properties.py``) holds these
invariants under Hypothesis: key order and float spelling never change
a hash; materially distinct configs never collide on canonical form.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.frontend.config_io import canonical_json, config_hash
from repro.frontend.trace import ApplicationTrace


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
