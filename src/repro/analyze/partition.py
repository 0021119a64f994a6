"""Clock domains: which modules the shard-safety rules treat as one.

Groups every :class:`~repro.sim.module.Module` subclass by union-find
over the relations that *require* colocation:

* resolved non-port call edges on a clocked path (caller invokes the
  callee synchronously every cycle);
* containment (``add_child``): a module tree ticks hierarchically, so a
  parent and its children share one clock domain by construction;
* construction: a module that builds another owns its lifecycle.

Port-contract calls (:mod:`repro.sim.ports` methods and anything marked
``# repro: port``) deliberately do **not** colocate: they are the
declared interfaces between modules.  A direct write or a retained
alias between two domains bypasses them, and that is what SH501 and
SH502 flag; inside one domain it is ordinary coupling.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List

from repro.analyze.stateflow import StateFlow


class Partition:
    """The clock domain of every module class."""

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
        #: class -> the alphabetically first class name of its domain
        self.domain_of: Dict[str, str] = {name: find(name) for name in members}

    def domain_for(self, cls: str) -> str:
        """Domain of ``cls``; unknown classes are their own domain."""
        return self.domain_of.get(cls, cls)

    def crosses(self, cls: str, owners: FrozenSet[str]) -> List[str]:
        """Owner classes whose domain differs from ``cls``'s domain."""
        mine = self.domain_for(cls)
        return sorted(o for o in owners if self.domain_for(o) != mine)

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
