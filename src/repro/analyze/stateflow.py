"""State-access dataflow over the clocked surface of every module.

Built on the :class:`~repro.analyze.callgraph.CallGraph`, this computes,
per :class:`~repro.sim.module.Module` subclass:

* **foreign writes** — assignments to, and in-place mutations of,
  *another module's* state through module-typed references on the
  class's clocked surface (``self.peer.count += 1``, mutator calls like
  ``self.peer.queue.append(...)``);
* **escapes** — which parameters of a method are *retained* by the
  callee (stored into ``self`` state, pushed into an owned container, or
  captured by a constructed object).  A port call whose argument escapes
  on the far side is a shared mutable object crossing a shard boundary.

The shard-safety rules (SH501, SH502) and the partition are thin
consumers of this structure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.analyze.callgraph import CallGraph, ClassModel, LocalEnv, render_expr
from repro.analyze.index import ProgramIndex

#: Method names that mutate their receiver in place.
MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "add", "update",
    "insert", "remove", "discard", "pop", "popleft", "popitem", "clear",
    "setdefault", "push", "sort", "reverse",
})


@dataclass(frozen=True)
class ForeignWrite:
    """A clocked write to *another* module's state."""

    cls: str             #: writing class
    method: str
    owners: FrozenSet[str]  #: candidate owning module classes
    attr: str
    path: str
    line: int
    receiver: str        #: rendered receiver expression


class StateFlow:
    """Per-module state-access graph over the whole program."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.index: ProgramIndex = graph.index
        #: every clocked foreign write, program-wide
        self.foreign_writes: List[ForeignWrite] = []
        self._escapes: Dict[Tuple[str, str], Set[str]] = {}
        for name in sorted(graph.module_names):
            model = graph.models.get(name)
            if model is not None:
                self._analyze_class(model)

    # ------------------------------------------------------------------
    # queries

    def escaping_params(self, cls: str, method: str) -> Set[str]:
        """Parameter names of ``cls.method`` retained past the call."""
        key = (cls, method)
        if key not in self._escapes:
            self._escapes[key] = self._compute_escapes(cls, method)
        return self._escapes[key]

    def module_owners(self, recv_types: FrozenSet[str]) -> Set[str]:
        """Module classes a receiver of ``recv_types`` may be — the
        types themselves plus module subclasses of ABC-typed receivers."""
        owners: Set[str] = set()
        if not recv_types:
            return owners
        for name in self.graph.module_names:
            if name in recv_types:
                owners.add(name)
                continue
            model = self.graph.models.get(name)
            if model is not None and (
                recv_types & self.index.root_names(model.info)
            ):
                owners.add(name)
        return owners

    # ------------------------------------------------------------------
    # per-class analysis

    def _analyze_class(self, model: ClassModel) -> None:
        for method_name in self.graph.clocked_methods(model.name):
            method = model.info.methods.get(method_name)
            if method is None:
                continue
            env = self.graph.seed_env(model, method)
            for node in ast.walk(method):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        self._record_write_target(
                            model, method_name, target, env
                        )
                if isinstance(node, ast.Call):
                    self._record_mutator(model, method_name, node, env)

    def _record_write_target(
        self,
        model: ClassModel,
        method_name: str,
        target: ast.expr,
        env: LocalEnv,
    ) -> None:
        if isinstance(target, ast.Tuple):
            for elt in target.elts:
                self._record_write_target(model, method_name, elt, env)
            return
        # Unwrap subscripts: ``self.x[i] = ...`` writes attribute x.
        while isinstance(target, ast.Subscript):
            target = target.value
        if not isinstance(target, ast.Attribute):
            return
        self._record_foreign_write(
            model, method_name, target.value, target.attr, target.lineno, env
        )

    def _record_mutator(
        self,
        model: ClassModel,
        method_name: str,
        node: ast.Call,
        env: LocalEnv,
    ) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in MUTATORS):
            return
        recv = func.value
        while isinstance(recv, ast.Subscript):
            recv = recv.value
        if not isinstance(recv, ast.Attribute):
            return
        self._record_foreign_write(
            model, method_name, recv.value, recv.attr, node.lineno, env
        )

    def _record_foreign_write(
        self,
        model: ClassModel,
        method_name: str,
        base: ast.expr,
        attr: str,
        line: int,
        env: LocalEnv,
    ) -> None:
        if isinstance(base, ast.Name) and base.id == "self":
            return  # own state
        recv_types = frozenset(
            self.graph.value_types(base, model, env).direct
        )
        owners = {
            owner for owner in self.module_owners(recv_types)
            if (owner_model := self.graph.models.get(owner)) is not None
            and (
                self.index.declares(owner_model.info, attr)
                or attr in owner_model.info.methods
            )
        }
        if owners:
            self.foreign_writes.append(ForeignWrite(
                cls=model.name,
                method=method_name,
                owners=frozenset(owners),
                attr=attr,
                path=model.info.path,
                line=line,
                receiver=render_expr(base),
            ))

    # ------------------------------------------------------------------
    # escape analysis

    def _compute_escapes(self, cls: str, method_name: str) -> Set[str]:
        model = self.graph.models.get(cls)
        if model is None:
            return set()
        method = model.info.methods.get(method_name)
        if method is None:
            return set()
        args = method.args
        params = {
            p.arg
            for p in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if p.arg != "self"
        }
        if not params:
            return set()
        escapes: Set[str] = set()
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                stored = any(
                    isinstance(t, ast.Attribute)
                    or isinstance(t, ast.Subscript)
                    for t in node.targets
                )
                if stored:
                    escapes |= params & _names_in(node.value)
            elif isinstance(node, ast.Call):
                called = node.func
                arg_names = set()
                for arg in (*node.args, *(kw.value for kw in node.keywords)):
                    arg_names |= _names_in(arg)
                if isinstance(called, ast.Name) and called.id in self.index.classes:
                    # Captured by a constructed object (e.g. a pending-
                    # instruction record) — retained past the call.
                    escapes |= params & arg_names
                elif isinstance(called, ast.Attribute) and called.attr in MUTATORS:
                    if _rooted_in_self(called.value):
                        escapes |= params & arg_names
                elif any(_rooted_in_self(arg) for arg in node.args):
                    # heappush(self._pipeline, (..., param, ...))-style:
                    # a call fed owned state plus a *record literal*
                    # wrapping the parameter.  Bare params alongside a
                    # self-attr (``f(x, self.k)``) are consumed, not
                    # retained, so they do not count.
                    for arg in (
                        *node.args, *(kw.value for kw in node.keywords)
                    ):
                        if isinstance(
                            arg, (ast.Tuple, ast.List, ast.Set, ast.Dict)
                        ):
                            escapes |= params & _names_in(arg)
        # Locals assigned from escaping constructors widen one step:
        # ``pending = Record(param); self.q.append(pending)``.
        local_holders: Set[str] = set()
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in self.index.classes
                and params & _names_in(node.value)
            ):
                local_holders.add(node.targets[0].id)
        if local_holders:
            for node in ast.walk(method):
                if isinstance(node, ast.Call):
                    called = node.func
                    if (
                        isinstance(called, ast.Attribute)
                        and called.attr in MUTATORS
                        and _rooted_in_self(called.value)
                    ):
                        names = set()
                        for arg in node.args:
                            names |= _names_in(arg)
                        if names & local_holders:
                            for other in ast.walk(method):
                                if (
                                    isinstance(other, ast.Assign)
                                    and len(other.targets) == 1
                                    and isinstance(other.targets[0], ast.Name)
                                    and other.targets[0].id in (names & local_holders)
                                ):
                                    escapes |= params & _names_in(other.value)
        return escapes


def _names_in(node: ast.expr) -> Set[str]:
    """Bare names appearing anywhere inside an expression."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _rooted_in_self(node: ast.expr) -> bool:
    """Is an attribute/subscript chain anchored at ``self``?"""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"
