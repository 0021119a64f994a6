"""Partition manifest: propose a PDES sharding from the dataflow graphs.

Groups every :class:`~repro.sim.module.Module` subclass into shards by
union-find over the relations that *require* colocation:

* resolved non-port call edges on a clocked path (caller invokes the
  callee synchronously every cycle — splitting them would serialize the
  shards anyway);
* containment (``add_child``): a module tree ticks hierarchically, so a
  parent and its children share one clock domain by construction;
* construction: a module that builds another owns its lifecycle.

Port-contract calls (:mod:`repro.sim.ports` methods and anything marked
``# repro: port``) deliberately do **not** colocate: they are the
declared synchronization points the PDES core serializes, i.e. the only
edges allowed to cross shards.  By construction, every cross-shard call
edge in the manifest is therefore a port edge; anything else that
crosses (a direct foreign write or an unsynchronized read) lands in the
manifest's ``unsynchronized_*`` lists — the exact set the SH rules flag
and CI gates on.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set

from repro.analyze.index import ANALYZER_VERSION, ProgramIndex
from repro.analyze.stateflow import ForeignAccess, StateFlow, build_stateflow

#: Manifest format tag (bump on breaking schema changes).
MANIFEST_FORMAT = "repro-partition/v1"

#: Component names that belong on the compute (SM) side of the paper's
#: SM-side / memory-side decomposition, and on the memory side.
SM_SIDE = frozenset({
    "sm", "warp_scheduler", "alu_pipeline", "ldst_unit", "shared_memory",
    "frontend", "operand_collector",
})
MEM_SIDE = frozenset({"memory", "noc", "cache", "dram"})


@dataclass(frozen=True)
class PortEdge:
    """One declared synchronization edge (a port call site, per target)."""

    caller: str
    caller_method: str
    callee: str
    target: str
    from_shard: str
    to_shard: str
    path: str
    line: int

    @property
    def cross(self) -> bool:
        return self.from_shard != self.to_shard

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": "port",
            "caller": self.caller,
            "caller_method": self.caller_method,
            "callee": self.callee,
            "target": self.target,
            "from_shard": self.from_shard,
            "to_shard": self.to_shard,
            "path": self.path,
            "line": self.line,
        }


@dataclass
class Shard:
    """One proposed shard: a clock domain the PDES core may own."""

    name: str
    classes: List[str]
    components: List[str]

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "classes": self.classes,
            "components": self.components,
        }


class Partition:
    """The proposed sharding plus every edge that touches a boundary."""

    def __init__(self, flow: StateFlow) -> None:
        self.flow = flow
        graph = flow.graph
        members = sorted(
            name for name in graph.module_names if name in graph.models
        )
        parent = {name: name for name in members}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        def union(a: str, b: str) -> None:
            if a in parent and b in parent:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

        for cls in members:
            for site in graph.clocked_sites(cls):
                if site.kind == "port":
                    continue
                for target in site.targets:
                    union(cls, target)
            self._colocate_owned(cls, union)

        groups: Dict[str, List[str]] = {}
        for name in members:
            groups.setdefault(find(name), []).append(name)

        self.shard_of: Dict[str, str] = {}
        self.shards: List[Shard] = []
        taken: Dict[str, int] = {}
        for _, classes in sorted(groups.items()):
            classes = sorted(classes)
            components = sorted({
                self._component_of(cls) for cls in classes
            })
            name = _shard_name(components)
            taken[name] = taken.get(name, 0) + 1
            if taken[name] > 1:
                name = f"{name}-{taken[name]}"
            self.shards.append(Shard(name, classes, components))
            for cls in classes:
                self.shard_of[cls] = name

        self.edges: List[PortEdge] = []
        seen: Set[tuple] = set()
        for cls in members:
            for site in graph.clocked_sites(cls):
                if site.kind != "port":
                    continue
                for target in sorted(site.targets):
                    edge = PortEdge(
                        caller=cls,
                        caller_method=site.caller_method,
                        callee=site.callee_method,
                        target=target,
                        from_shard=self.shard_for(cls),
                        to_shard=self.shard_for(target),
                        path=site.path,
                        line=site.line,
                    )
                    key = (edge.caller, edge.callee, edge.target, edge.line)
                    if key not in seen:
                        seen.add(key)
                        self.edges.append(edge)

    # ------------------------------------------------------------------

    def shard_for(self, cls: str) -> str:
        """Shard of ``cls``; unknown classes are their own shard."""
        return self.shard_of.get(cls, cls)

    def crosses(self, cls: str, owners: FrozenSet[str]) -> List[str]:
        """Owner classes whose shard differs from ``cls``'s shard."""
        mine = self.shard_for(cls)
        return sorted(o for o in owners if self.shard_for(o) != mine)

    def _colocate_owned(self, cls: str, union) -> None:
        graph = self.flow.graph
        model = graph.models[cls]
        for method in model.info.methods.values():
            env = graph.seed_env(model, method)
            for node in ast.walk(method):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "add_child"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                ):
                    for arg in node.args:
                        types = frozenset(
                            graph.value_types(arg, model, env).direct
                        )
                        for owner in self.flow.module_owners(types):
                            union(cls, owner)
                elif (
                    isinstance(func, ast.Name)
                    and func.id in graph.module_names
                ):
                    union(cls, func.id)

    def _component_of(self, cls: str) -> str:
        info = self.flow.graph.models[cls].info
        chain = [info] + list(self.flow.index.ancestry(info))
        for entry in chain:
            for stmt in entry.node.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "component"
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                ):
                    return stmt.value.value
        return cls.lower()

    # ------------------------------------------------------------------
    # the manifest document

    def manifest(self, index: ProgramIndex) -> Dict[str, object]:
        """The JSON-able partition manifest.

        Unsynchronized accesses that carry a justified ``noqa`` are
        excluded — a suppression is an explicit human sign-off that the
        alias is a designed channel, and the CI gate must not refuse a
        partition the code owners have already vouched for.
        """
        files = {source.path: source for source in index.files}

        def live(access: ForeignAccess, rule: str) -> bool:
            source = files.get(access.path)
            return source is None or not source.suppressed(access.line, rule)

        unsync_writes: List[Dict[str, object]] = []
        unsync_reads: List[Dict[str, object]] = []
        for access in self.flow.foreign:
            if access.synchronized:
                continue
            cross = self.crosses(access.cls, access.owners)
            if not cross:
                continue
            entry = {
                "class": access.cls,
                "method": access.method,
                "owners": sorted(access.owners),
                "attr": access.attr,
                "path": access.path,
                "line": access.line,
                "from_shard": self.shard_for(access.cls),
                "to_shards": sorted({self.shard_for(o) for o in cross}),
            }
            if access.kind == "write":
                if live(access, "SH501"):
                    unsync_writes.append(entry)
            else:
                writers = [
                    o for o in cross
                    if self.flow.writes_on_clock(o, access.attr)
                ]
                if writers and live(access, "SH503"):
                    unsync_reads.append(entry)

        cross_edges = [edge for edge in self.edges if edge.cross]
        return {
            "format": MANIFEST_FORMAT,
            "analyzer_version": ANALYZER_VERSION,
            "shards": [shard.as_dict() for shard in self.shards],
            "cross_shard_edges": [edge.as_dict() for edge in cross_edges],
            "unsynchronized_writes": unsync_writes,
            "unsynchronized_reads": unsync_reads,
            "summary": {
                "modules": len(self.shard_of),
                "shards": len(self.shards),
                "port_edges": len(self.edges),
                "cross_shard_edges": len(cross_edges),
                "unsynchronized_writes": len(unsync_writes),
                "unsynchronized_reads": len(unsync_reads),
            },
        }


def _shard_name(components: List[str]) -> str:
    comps = set(components)
    if comps and comps <= SM_SIDE:
        return "sm"
    if comps and comps <= MEM_SIDE:
        return "memory"
    if len(comps) == 1:
        return next(iter(comps))
    return "+".join(sorted(comps))


def build_partition(index: ProgramIndex) -> Partition:
    """Build (and memoize on ``index``) the proposed partition."""
    cached = index.analysis_cache.get("partition")
    if cached is None:
        cached = Partition(build_stateflow(index))
        index.analysis_cache["partition"] = cached
    return cached


def write_manifest(manifest: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
