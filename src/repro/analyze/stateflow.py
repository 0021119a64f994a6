"""State-access dataflow over the clocked surface of every module.

Built on the :class:`~repro.analyze.callgraph.CallGraph`, this computes,
per :class:`~repro.sim.module.Module` subclass:

* **own accesses** — which ``self.<attr>`` state is read and written on
  the class's clocked surface (``tick``, declared ports, callbacks, and
  everything self-call-reachable from them);
* **foreign accesses** — reads and writes of *another module's* state
  through module-typed references (``self.peer.count += 1``, mutator
  calls like ``self.peer.queue.append(...)``, ``getattr(self.src,
  "blocks_remaining")``, and property reads, which dispatch to the owner's
  property method).  Each is tagged ``synchronized`` when it goes
  through a ``# repro: port``-marked member — the declared cross-shard
  channels the PDES core will serialize;
* **escapes** — which parameters of a method are *retained* by the
  callee (stored into ``self`` state, pushed into an owned container, or
  captured by a constructed object).  A port call whose argument escapes
  on the far side is a shared mutable object crossing a shard boundary.

The sharding rules (SH family) and the partition manifest are thin
consumers of this structure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analyze.callgraph import (
    CallGraph,
    ClassModel,
    LocalEnv,
    build_callgraph,
    render_expr,
)
from repro.analyze.index import ProgramIndex

#: Method names that mutate their receiver in place.
MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "add", "update",
    "insert", "remove", "discard", "pop", "popleft", "popitem", "clear",
    "setdefault", "push", "sort", "reverse",
})


@dataclass(frozen=True)
class StateAccess:
    """One access to a module's *own* state on its clocked surface."""

    cls: str
    method: str
    attr: str
    kind: str            #: "read" | "write"
    path: str
    line: int


@dataclass(frozen=True)
class ForeignAccess:
    """A clocked access to *another* module's state."""

    cls: str             #: accessing class
    method: str
    owners: FrozenSet[str]  #: candidate owning module classes
    attr: str
    kind: str            #: "read" | "write"
    path: str
    line: int
    receiver: str        #: rendered receiver expression
    synchronized: bool   #: True when through a ``# repro: port`` member
    via_property: bool = False


class StateFlow:
    """Per-module state-access graph over the whole program."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.index: ProgramIndex = graph.index
        #: cls -> attr -> own accesses on the clocked surface
        self.own_writes: Dict[str, Dict[str, List[StateAccess]]] = {}
        self.own_reads: Dict[str, Dict[str, List[StateAccess]]] = {}
        #: every clocked foreign access, program-wide
        self.foreign: List[ForeignAccess] = []
        self._escapes: Dict[Tuple[str, str], Set[str]] = {}
        for name in sorted(graph.module_names):
            model = graph.models.get(name)
            if model is not None:
                self._analyze_class(model)

    # ------------------------------------------------------------------
    # queries

    def writes_on_clock(self, cls: str, attr: str) -> bool:
        """Does ``cls`` write ``attr`` (or the state behind a property of
        that name) on its own clocked surface?"""
        writes = self.own_writes.get(cls, {})
        if attr in writes:
            return True
        model = self.graph.models.get(cls)
        if model is None:
            return False
        prop = model.info.methods.get(attr)
        if prop is not None and _is_property(prop):
            # A property read exposes whatever attributes its body reads.
            for node in ast.walk(prop):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in writes
                ):
                    return True
        return False

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
        name = model.name
        self.own_writes.setdefault(name, {})
        self.own_reads.setdefault(name, {})
        for method_name in self.graph.clocked_methods(name):
            method = model.info.methods.get(method_name)
            if method is None:
                continue
            env = self.graph.seed_env(model, method)
            self._analyze_method(model, method_name, method, env)

    def _analyze_method(
        self,
        model: ClassModel,
        method_name: str,
        method: ast.FunctionDef,
        env: LocalEnv,
    ) -> None:
        # Attributes serving as the callee of a call are call edges
        # (callgraph territory), not state reads.
        call_funcs = {
            id(node.func) for node in ast.walk(method)
            if isinstance(node, ast.Call)
        }
        # Attributes being assigned are writes, not reads.
        write_targets: Set[int] = set()
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for sub in ast.walk(target):
                        write_targets.add(id(sub))
                    self._record_write_target(model, method_name, target, env)
            if isinstance(node, ast.Call):
                self._record_mutator(model, method_name, node, env)
                self._record_getattr_read(model, method_name, node, env)
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in call_funcs
                and id(node) not in write_targets
            ):
                self._record_read(model, method_name, node, env)

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
        base = target.value
        if isinstance(base, ast.Name) and base.id == "self":
            self._add_own(model, method_name, target.attr, "write", target.lineno)
            return
        owners = self._foreign_owners(base, target.attr, model, env,
                                      want_state=True)
        if owners:
            self.foreign.append(ForeignAccess(
                cls=model.name,
                method=method_name,
                owners=frozenset(owners),
                attr=target.attr,
                kind="write",
                path=model.info.path,
                line=target.lineno,
                receiver=render_expr(base),
                synchronized=False,
            ))

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
        base = recv.value
        if isinstance(base, ast.Name) and base.id == "self":
            self._add_own(model, method_name, recv.attr, "write", node.lineno)
            return
        owners = self._foreign_owners(base, recv.attr, model, env,
                                      want_state=True)
        if owners:
            self.foreign.append(ForeignAccess(
                cls=model.name,
                method=method_name,
                owners=frozenset(owners),
                attr=recv.attr,
                kind="write",
                path=model.info.path,
                line=node.lineno,
                receiver=render_expr(base),
                synchronized=False,
            ))

    def _record_getattr_read(
        self,
        model: ClassModel,
        method_name: str,
        node: ast.Call,
        env: LocalEnv,
    ) -> None:
        if not (isinstance(node.func, ast.Name) and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)):
            return
        attr = node.args[1].value
        self._record_foreign_read(
            model, method_name, node.args[0], attr, node.lineno, env
        )

    def _record_read(
        self,
        model: ClassModel,
        method_name: str,
        node: ast.Attribute,
        env: LocalEnv,
    ) -> None:
        base = node.value
        if isinstance(base, ast.Name) and base.id == "self":
            self._add_own(model, method_name, node.attr, "read", node.lineno)
            return
        self._record_foreign_read(
            model, method_name, base, node.attr, node.lineno, env
        )

    def _record_foreign_read(
        self,
        model: ClassModel,
        method_name: str,
        base: ast.expr,
        attr: str,
        line: int,
        env: LocalEnv,
    ) -> None:
        recv_types = frozenset(
            self.graph.value_types(base, model, env).direct
        )
        owners = self.module_owners(recv_types)
        state_owners: Set[str] = set()
        prop_owners: Set[str] = set()
        synchronized = False
        for owner in owners:
            owner_model = self.graph.models.get(owner)
            if owner_model is None:
                continue
            prop = owner_model.info.methods.get(attr)
            if prop is not None:
                if _is_property(prop):
                    prop_owners.add(owner)
                    if self.index.port_marked(owner_model.info, attr):
                        synchronized = True
                # Plain bound-method reference (callback wiring): the
                # call graph owns it, not the state graph.
                continue
            if self.index.declares(owner_model.info, attr):
                state_owners.add(owner)
        matched = state_owners | prop_owners
        if not matched:
            return
        self.foreign.append(ForeignAccess(
            cls=model.name,
            method=method_name,
            owners=frozenset(matched),
            attr=attr,
            kind="read",
            path=model.info.path,
            line=line,
            receiver=render_expr(base),
            synchronized=synchronized,
            via_property=bool(prop_owners),
        ))

    def _foreign_owners(
        self,
        base: ast.expr,
        attr: str,
        model: ClassModel,
        env: LocalEnv,
        want_state: bool,
    ) -> Set[str]:
        recv_types = frozenset(
            self.graph.value_types(base, model, env).direct
        )
        owners = self.module_owners(recv_types)
        if not want_state:
            return owners
        matched: Set[str] = set()
        for owner in owners:
            owner_model = self.graph.models.get(owner)
            if owner_model is not None and (
                self.index.declares(owner_model.info, attr)
                or attr in owner_model.info.methods
            ):
                matched.add(owner)
        return matched

    def _add_own(
        self, model: ClassModel, method: str, attr: str, kind: str, line: int
    ) -> None:
        store = self.own_writes if kind == "write" else self.own_reads
        store[model.name].setdefault(attr, []).append(StateAccess(
            cls=model.name, method=method, attr=attr, kind=kind,
            path=model.info.path, line=line,
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


def _is_property(node: ast.FunctionDef) -> bool:
    for decorator in node.decorator_list:
        name = decorator.id if isinstance(decorator, ast.Name) else (
            decorator.attr if isinstance(decorator, ast.Attribute) else None
        )
        if name in ("property", "cached_property"):
            return True
    return False


def build_stateflow(index: ProgramIndex) -> StateFlow:
    """Build (and memoize on ``index``) the state-access graph."""
    cached = index.analysis_cache.get("stateflow")
    if cached is None:
        cached = StateFlow(build_callgraph(index))
        index.analysis_cache["stateflow"] = cached
    return cached
