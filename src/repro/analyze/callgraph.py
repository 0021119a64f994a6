"""Interprocedural call graph over module entry points.

The shard-safety rules (``rules_sharding``) and the partition need a
*whole-program* view: which methods run on a module's clocked path
(``tick``, declared ports, checker hooks), what the receiver of every
call may be, and which call edges cross the fixed ``repro.sim.ports``
interfaces.  This module builds that view from the
:class:`~repro.analyze.index.ProgramIndex`:

* a :class:`ClassModel` per class — attribute and local *type lattices*
  inferred from constructor calls, annotations (string annotations and
  container/``Callable`` generics included), comprehensions, and factory
  return types;
* resolved :class:`CallSite` edges — ``self.memory.access_global(...)``
  becomes an edge to every in-index class that concretely defines
  ``access_global`` and matches the inferred receiver types, widened to
  subclasses so ABC-typed attributes dispatch to their implementors;
* the *port* classification — an edge is a ``port`` edge when its callee
  is one of the abstract ``repro.sim.ports`` contract methods or carries
  an explicit ``# repro: port`` marker.  Port edges are the declared
  interfaces between modules; everything else is assumed to stay inside
  one clock domain.

The analysis is deliberately conservative-but-cheap: a flow-insensitive
type lattice over ``ast`` with no fixpoint iteration.  For the modeled
module graph (constructor-wired, annotation-rich) this resolves every
receiver that matters; unresolved receivers calling a known port name
fall back to dispatching over all concrete implementors, so a port edge
is never silently dropped.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analyze.index import (
    MODULE_ROOTS,
    SINK_ROOTS,
    ClassInfo,
    ProgramIndex,
    called_name,
)

#: :class:`repro.sim.engine.EngineChecker` hook names — engine-side
#: observation entry points (always invoked at cycle barriers).
CHECKER_HOOKS = frozenset({
    "on_add", "on_schedule", "on_wake", "on_cycle_start",
    "on_tick", "on_tick_end", "on_run_end",
})

#: Abstract port-method names of the ``repro.sim.ports`` contracts.
#: Hardcoded as a floor so fixture sets that subclass the ABCs *by name*
#: without including ``ports.py`` still classify these as port calls.
PORT_CONTRACT_METHODS = frozenset({
    "try_issue", "on_complete", "next_block", "block_done",
})

#: Methods that are build/teardown plumbing, never clocked entry points.
NON_ENTRY_METHODS = frozenset({
    "__init__", "reset", "attach_engine",
})

#: Framework base-class names excluded from analysis targets: they *are*
#: the synchronization substrate, not shardable model state.
FRAMEWORK_CLASSES = frozenset(
    MODULE_ROOTS | SINK_ROOTS | {"Engine", "EngineChecker", "CompositeChecker"}
)

_WRAPPER_GENERICS = frozenset({"Optional", "Final", "ClassVar", "Annotated"})
_UNION_GENERICS = frozenset({"Union"})
_CONTAINER_GENERICS = frozenset({
    "List", "Sequence", "MutableSequence", "Iterable", "Iterator", "Set",
    "MutableSet", "FrozenSet", "Tuple", "Deque", "Collection",
    "list", "set", "frozenset", "tuple", "deque",
})
_MAPPING_GENERICS = frozenset({
    "Dict", "Mapping", "MutableMapping", "DefaultDict", "OrderedDict",
    "dict", "defaultdict",
})

#: Callables whose result is an *element* of their first argument.
_ELEMENT_BUILTINS = frozenset({"min", "max", "next", "sorted"})

#: Constructors of mutable containers (for shared-payload typing).
_MUTABLE_FACTORIES = frozenset({"list", "dict", "set", "deque", "defaultdict"})


def _attr_base(node: ast.expr) -> Optional[str]:
    """Name/Attribute last segment, for annotation bases."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def render_expr(node: ast.expr) -> str:
    """Compact source-ish rendering of an expression for messages."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse exists on 3.9+
        return "<expr>"


@dataclass
class TypeSet:
    """A (direct, element) pair of candidate class-name sets.

    ``direct`` types the expression itself; ``element`` types what
    iterating/indexing it yields (one container level deep — enough for
    the module graph, which never nests modules twice).
    """

    direct: Set[str] = field(default_factory=set)
    element: Set[str] = field(default_factory=set)

    def update(self, other: "TypeSet") -> None:
        self.direct |= other.direct
        self.element |= other.element


def annotation_types(node: Optional[ast.expr], index: ProgramIndex) -> TypeSet:
    """Resolve an annotation expression to candidate class names.

    Handles string annotations, ``Optional``/``Union``/``|``, container
    generics (element position), mappings (value position), and
    ``Callable[..., T]`` (the *return* type — factory attributes type as
    what they build).
    """
    result = TypeSet()
    if node is None:
        return result
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return result
        return annotation_types(parsed, index)
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = _attr_base(node)
        if name is not None and name in index.classes:
            result.direct.add(name)
        return result
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        result.update(annotation_types(node.left, index))
        result.update(annotation_types(node.right, index))
        return result
    if isinstance(node, ast.Subscript):
        base = _attr_base(node.value)
        slc = node.slice
        # Py3.8 compat not needed (>=3.9): slice is the expression itself.
        args = list(slc.elts) if isinstance(slc, ast.Tuple) else [slc]
        if base in _WRAPPER_GENERICS or base in _UNION_GENERICS:
            for arg in args:
                result.update(annotation_types(arg, index))
        elif base in _CONTAINER_GENERICS:
            for arg in args:
                inner = annotation_types(arg, index)
                result.element |= inner.direct | inner.element
        elif base in _MAPPING_GENERICS:
            if args:
                inner = annotation_types(args[-1], index)
                result.element |= inner.direct | inner.element
        elif base == "Callable" and args:
            inner = annotation_types(args[-1], index)
            result.direct |= inner.direct
            result.element |= inner.element
        return result
    return result


@dataclass
class ClassModel:
    """Per-class typing facts the call graph and stateflow consume."""

    info: ClassInfo
    #: ``self.<attr>`` -> candidate class names of the attribute value
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    #: ``self.<attr>`` -> element types when the attribute is a container
    attr_elem: Dict[str, Set[str]] = field(default_factory=dict)
    #: attrs assigned a mutable container (list/dict/set literal or
    #: factory) somewhere — shared-payload candidates for SH502
    mutable_attrs: Set[str] = field(default_factory=set)
    #: methods referenced as bound values (``self.m`` outside a call) —
    #: callback registrations, treated as extra entry points
    callback_methods: Set[str] = field(default_factory=set)
    #: clocked entry points: tick, declared ports, checker hooks, callbacks
    entry_points: Set[str] = field(default_factory=set)

    @property
    def name(self) -> str:
        return self.info.name


@dataclass(frozen=True)
class CallSite:
    """One resolved (or port-dispatched) call edge."""

    caller: str          #: calling class name
    caller_method: str
    callee_method: str
    targets: FrozenSet[str]  #: candidate callee class names
    kind: str            #: "self" | "call" | "port"
    path: str
    line: int
    receiver: str        #: rendered receiver expression
    node: ast.Call = field(compare=False, hash=False, repr=False, default=None)


class LocalEnv:
    """Flow-light local type environment for one method body."""

    def __init__(self) -> None:
        self.direct: Dict[str, Set[str]] = {}
        self.elem: Dict[str, Set[str]] = {}
        #: local name -> (receiver types, method name) from two-step
        #: ``peek = getattr(self.x, "peek_block", None); peek()`` patterns
        self.bound: Dict[str, Tuple[FrozenSet[str], str]] = {}

    def set(self, name: str, types: TypeSet) -> None:
        if types.direct:
            self.direct[name] = set(types.direct)
        if types.element:
            self.elem[name] = set(types.element)


class CallGraph:
    """Whole-program call graph over clocked entry points."""

    def __init__(self, index: ProgramIndex) -> None:
        self.index = index
        #: first definition per bare class name
        self.models: Dict[str, ClassModel] = {}
        #: names of Module subclasses (the shardable state owners)
        self.module_names: Set[str] = {
            info.name for info in index.module_classes()
        }
        #: abstract port names + every ``# repro: port``-marked method
        self.port_names: Set[str] = set(PORT_CONTRACT_METHODS)
        #: module-level function name -> return TypeSet (factory helpers)
        self.func_returns: Dict[str, TypeSet] = {}
        self.edges: List[CallSite] = []
        self._edges_from: Dict[Tuple[str, str], List[CallSite]] = {}
        self._clocked: Dict[str, Set[str]] = {}

        for root in SINK_ROOTS:
            for info in index.classes.get(root, []):
                self.port_names.update(info.methods)
        for source in index.files:
            for node in source.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.func_returns[node.name] = annotation_types(
                        node.returns, index
                    )
        for name, definitions in index.classes.items():
            info = definitions[0]
            if name in FRAMEWORK_CLASSES:
                continue
            self.models[name] = ClassModel(info=info)
        for model in self.models.values():
            self.port_names.update(model.info.port_methods)
        for model in self.models.values():
            self._build_model(model)
        for model in self.models.values():
            self._extract_edges(model)
        for site in self.edges:
            self._edges_from.setdefault(
                (site.caller, site.caller_method), []
            ).append(site)
        for model in self.models.values():
            self._clocked[model.name] = self._closure(model)
        self._propagate_clocked()

    def _propagate_clocked(self) -> None:
        """Cross-class fixpoint: a method invoked from *another* module's
        clocked path is itself clocked, along with its own self-call
        closure (``SubCore._dispatch`` → ``SMCore.warp_finished`` →
        ``_release_block`` → the ``block_done`` port)."""
        work: List[Tuple[str, str]] = [
            (cls, method)
            for cls, methods in self._clocked.items()
            for method in methods
        ]
        while work:
            cls, method = work.pop()
            for site in self._edges_from.get((cls, method), []):
                if site.kind == "port":
                    continue  # the far side is an entry point already
                targets = (cls,) if site.kind == "self" else site.targets
                for target in targets:
                    clocked = self._clocked.get(target)
                    target_model = self.models.get(target)
                    if clocked is None or target_model is None:
                        continue
                    if (
                        site.callee_method in target_model.info.methods
                        and site.callee_method not in clocked
                    ):
                        clocked.add(site.callee_method)
                        work.append((target, site.callee_method))

    # ------------------------------------------------------------------
    # model construction

    def _is_checker(self, info: ClassInfo) -> bool:
        return "EngineChecker" in self.index.root_names(info)

    def _build_model(self, model: ClassModel) -> None:
        info = model.info
        for class_stmt in info.node.body:
            if isinstance(class_stmt, ast.AnnAssign) and isinstance(
                class_stmt.target, ast.Name
            ):
                types = annotation_types(class_stmt.annotation, self.index)
                self._record_attr(model, class_stmt.target.id, types)
        for method in info.methods.values():
            env = self.seed_env(model, method)
            for node in ast.walk(method):
                if isinstance(node, ast.AnnAssign):
                    target = node.target
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        types = annotation_types(node.annotation, self.index)
                        self._record_attr(model, target.attr, types)
                        if node.value is not None:
                            self._note_mutable(model, target.attr, node.value)
                elif isinstance(node, ast.Assign):
                    value_types = self.value_types(node.value, model, env)
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            self._record_attr(model, target.attr, value_types)
                            self._note_mutable(model, target.attr, node.value)
                elif isinstance(node, ast.Attribute):
                    if (
                        isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and node.attr in info.methods
                        and isinstance(node.ctx, ast.Load)
                    ):
                        model.callback_methods.add(node.attr)
        # A bare ``self.m`` that is the func of a Call is a plain
        # self-call, not a callback registration; prune those.
        for method in info.methods.values():
            for node in ast.walk(method):
                if isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                    ):
                        model.callback_methods.discard(func.attr)
        model.entry_points = self._entry_points(model)

    def _record_attr(self, model: ClassModel, attr: str, types: TypeSet) -> None:
        if types.direct:
            model.attr_types.setdefault(attr, set()).update(types.direct)
        if types.element:
            model.attr_elem.setdefault(attr, set()).update(types.element)

    def _note_mutable(self, model: ClassModel, attr: str, value: ast.expr) -> None:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            model.mutable_attrs.add(attr)
        elif isinstance(value, ast.Call):
            name = called_name(value.func)
            if name in _MUTABLE_FACTORIES:
                model.mutable_attrs.add(attr)

    def _entry_points(self, model: ClassModel) -> Set[str]:
        info = model.info
        entries: Set[str] = set()
        defined = set(info.methods)
        if "tick" in defined:
            entries.add("tick")
        for name in defined & self.port_names:
            entries.add(name)
        for name in defined:
            if self.index.port_marked(info, name):
                entries.add(name)
        if self._is_checker(info):
            entries.update(defined & CHECKER_HOOKS)
        entries.update(model.callback_methods & defined)
        return entries - NON_ENTRY_METHODS

    # ------------------------------------------------------------------
    # type inference

    def seed_env(self, model: ClassModel, method: ast.FunctionDef) -> LocalEnv:
        env = LocalEnv()
        args = method.args
        params = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for param in params:
            if param.arg == "self":
                env.direct["self"] = {model.name}
                continue
            env.set(param.arg, annotation_types(param.annotation, self.index))
        # One ordered pass over simple assignment/loop statements.
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    bound = self._bound_method(node.value, model, env)
                    if bound is not None:
                        env.bound[target.id] = bound
                    else:
                        env.set(
                            target.id, self.value_types(node.value, model, env)
                        )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if isinstance(node.target, ast.Name):
                    iter_types = self.value_types(node.iter, model, env)
                    env.direct.setdefault(node.target.id, set()).update(
                        iter_types.element
                    )
        return env

    def _bound_method(
        self, value: ast.expr, model: ClassModel, env: LocalEnv
    ) -> Optional[Tuple[FrozenSet[str], str]]:
        """``getattr(recv, "name"[, default])`` -> (recv types, name)."""
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "getattr"
                and len(value.args) >= 2
                and isinstance(value.args[1], ast.Constant)
                and isinstance(value.args[1].value, str)):
            return None
        recv_types = self.value_types(value.args[0], model, env).direct
        return frozenset(recv_types), value.args[1].value

    def value_types(
        self, node: ast.expr, model: ClassModel, env: LocalEnv
    ) -> TypeSet:
        """Candidate types of an expression under ``env`` in ``model``."""
        result = TypeSet()
        if isinstance(node, ast.Name):
            result.direct |= env.direct.get(node.id, set())
            result.element |= env.elem.get(node.id, set())
            return result
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                result.direct |= model.attr_types.get(node.attr, set())
                result.element |= model.attr_elem.get(node.attr, set())
                return result
            # Depth-2: the attribute of a typed expression, via the
            # owner's model (e.g. ``warp.block`` with warp: WarpState).
            owner_types = self.value_types(node.value, model, env).direct
            for owner in owner_types:
                owner_model = self.models.get(owner)
                if owner_model is not None:
                    result.direct |= owner_model.attr_types.get(node.attr, set())
                    result.element |= owner_model.attr_elem.get(node.attr, set())
            return result
        if isinstance(node, ast.Subscript):
            base = self.value_types(node.value, model, env)
            result.direct |= base.element
            return result
        if isinstance(node, ast.Call):
            name = called_name(node.func)
            if name is None:
                return result
            if name in self.index.classes:
                result.direct.add(name)
                return result
            if name in _ELEMENT_BUILTINS and node.args:
                inner = self.value_types(node.args[0], model, env)
                if name == "sorted":
                    result.element |= inner.element
                else:
                    result.direct |= inner.element
                return result
            if isinstance(node.func, ast.Name):
                if node.func.id in env.direct:
                    # Calling a local factory: Callable annotations put
                    # the *return* type in the direct set already.
                    result.direct |= env.direct[node.func.id]
                    return result
                result.update(self.func_returns.get(name, TypeSet()))
                return result
            if isinstance(node.func, ast.Attribute):
                func_value = node.func.value
                if isinstance(func_value, ast.Name) and func_value.id == "self":
                    # self.helper(...) -> the helper's return annotation.
                    helper = model.info.methods.get(name)
                    if helper is not None:
                        return annotation_types(helper.returns, self.index)
                    return result
                # attr-typed factory: self.ldst_factory(...)-style calls
                # resolve through the Callable return type in attr_types.
                recv = self.value_types(func_value, model, env)
                if name in ("pop", "popleft"):
                    result.direct |= recv.element
                return result
            return result
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            for elt in node.elts:
                if isinstance(elt, ast.Starred):
                    inner = self.value_types(elt.value, model, env)
                    result.element |= inner.element
                else:
                    result.element |= self.value_types(elt, model, env).direct
            return result
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            comp_env = LocalEnv()
            comp_env.direct.update(env.direct)
            comp_env.elem.update(env.elem)
            for gen in node.generators:
                if isinstance(gen.target, ast.Name):
                    iter_types = self.value_types(gen.iter, model, comp_env)
                    comp_env.direct.setdefault(gen.target.id, set()).update(
                        iter_types.element
                    )
            result.element |= self.value_types(node.elt, model, comp_env).direct
            return result
        if isinstance(node, ast.IfExp):
            result.update(self.value_types(node.body, model, env))
            result.update(self.value_types(node.orelse, model, env))
            return result
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                result.update(self.value_types(value, model, env))
            return result
        if isinstance(node, ast.Await):
            return self.value_types(node.value, model, env)
        return result

    # ------------------------------------------------------------------
    # edge extraction

    def _extract_edges(self, model: ClassModel) -> None:
        info = model.info
        for method_name, method in info.methods.items():
            env = self.seed_env(model, method)
            for node in ast.walk(method):
                if not isinstance(node, ast.Call):
                    continue
                site = self._classify_call(model, method_name, node, env)
                if site is not None:
                    self.edges.append(site)

    def _classify_call(
        self,
        model: ClassModel,
        method_name: str,
        node: ast.Call,
        env: LocalEnv,
    ) -> Optional[CallSite]:
        func = node.func
        path = model.info.path
        if isinstance(func, ast.Name):
            bound = env.bound.get(func.id)
            if bound is None:
                return None
            recv_types, callee = bound
            receiver = func.id
        elif isinstance(func, ast.Attribute):
            callee = func.attr
            receiver = render_expr(func.value)
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                return CallSite(
                    caller=model.name,
                    caller_method=method_name,
                    callee_method=callee,
                    targets=frozenset({model.name}),
                    kind="self",
                    path=path,
                    line=node.lineno,
                    receiver="self",
                    node=node,
                )
            recv_types = frozenset(
                self.value_types(func.value, model, env).direct
            )
        else:
            return None
        targets = self.resolve_targets(recv_types, callee)
        if not targets:
            if callee in self.port_names:
                # Unresolved receiver on a declared port name: dispatch
                # over every concrete implementor so the edge survives.
                targets = frozenset(
                    name for name, target in self.models.items()
                    if callee in target.info.methods
                    and not target.info.is_abstract
                )
            if not targets:
                return None
        kind = "port" if self.is_port_edge(callee, targets) else "call"
        return CallSite(
            caller=model.name,
            caller_method=method_name,
            callee_method=callee,
            targets=targets,
            kind=kind,
            path=path,
            line=node.lineno,
            receiver=receiver,
            node=node,
        )

    def resolve_targets(
        self, recv_types: FrozenSet[str], callee: str
    ) -> FrozenSet[str]:
        """Candidate defining classes for ``callee`` on ``recv_types``,
        widened to subclasses (ABC-typed receivers dispatch to their
        concrete implementors)."""
        targets: Set[str] = set()
        for recv in recv_types:
            for name, model in self.models.items():
                if callee not in model.info.methods:
                    continue
                if name == recv or recv in self.index.root_names(model.info):
                    targets.add(name)
            # The static type itself may define the method higher up the
            # chain (inherited concrete method) — keep the static type
            # when the index can see a concrete definition anywhere.
            recv_model = self.models.get(recv)
            if recv_model is not None and self.index.defines_method(
                recv_model.info, callee
            ):
                targets.add(recv)
        return frozenset(targets)

    def is_port_edge(self, callee: str, targets: FrozenSet[str]) -> bool:
        if callee in PORT_CONTRACT_METHODS:
            return True
        for name in targets:
            model = self.models.get(name)
            if model is not None and self.index.port_marked(model.info, callee):
                return True
        return False

    # ------------------------------------------------------------------
    # reachability

    def _closure(self, model: ClassModel) -> Set[str]:
        """Methods of ``model`` reachable from its entry points via
        self-call edges (the class's clocked surface)."""
        reachable: Set[str] = set()
        stack = [m for m in model.entry_points if m in model.info.methods]
        while stack:
            method = stack.pop()
            if method in reachable:
                continue
            reachable.add(method)
            for site in self._edges_from.get((model.name, method), []):
                if site.kind == "self" and site.callee_method in model.info.methods:
                    stack.append(site.callee_method)
        return reachable

    def clocked_methods(self, cls_name: str) -> Set[str]:
        """The clocked surface of ``cls_name`` (empty for unknown)."""
        return self._clocked.get(cls_name, set())

    def clocked_sites(self, cls_name: str) -> List[CallSite]:
        """Every call site on the clocked surface of ``cls_name``."""
        sites: List[CallSite] = []
        for method in self.clocked_methods(cls_name):
            sites.extend(self._edges_from.get((cls_name, method), []))
        return sites

