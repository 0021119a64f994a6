"""Shard-safety rules (SH501, SH502): the fixed-interface claim, checked.

Hybrid modeling rests on modules that interact only through fixed
interfaces (paper §III-B2): the :mod:`repro.sim.ports` contract methods
plus anything marked ``# repro: port``.  These two rules flag the ways
module code goes around them on a clocked path:

* **SH501** — a clocked method writes another module's state directly
  (attribute assignment, ``+=``, or an in-place container mutator).
  The owner's ports no longer describe how its state changes, so
  neither side can be swapped for another modeling level safely.
* **SH502** — a mutable object (``self``, an owned container, a live
  instance of an indexed class) is passed across a port and the far
  side *retains* it.  The port call itself is the interface, but the
  retained alias is a back-channel both sides can touch later.

Each was the only detector of a seeded bug that did harm
(``docs/static-analysis.md`` § "Trial"): SH501 of a write that moves
cycles only under RANDOM replacement, SH502 of a retained alias that
moves only a counter.  Both fire only when the access crosses a clock
domain of :class:`~repro.analyze.partition.Partition`: modules it
colocates (a parent and the children it ticks, classes wired by
synchronous calls) share one domain, where a direct access is ordinary
coupling.  ``EngineChecker`` observers run at cycle barriers and stay
out of scope.  Counter updates (``peer.counters[...] += 1``) are not
seen: ``counters`` is declared by the framework base class, which the
analysis does not treat as module state.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analyze.callgraph import CallGraph, ClassModel, LocalEnv, render_expr
from repro.analyze.findings import LintFinding
from repro.analyze.index import ProgramIndex
from repro.analyze.partition import Partition
from repro.analyze.stateflow import StateFlow


def check_shard_safety(index: ProgramIndex) -> Iterator[LintFinding]:
    """SH501 and SH502 findings, over one call graph and partition."""
    flow = StateFlow(CallGraph(index))
    partition = Partition(flow)
    yield from _cross_module_writes(flow, partition)
    yield from _shared_across_ports(index, flow, partition)


def _cross_module_writes(
    flow: StateFlow, partition: Partition
) -> Iterator[LintFinding]:
    for access in flow.foreign_writes:
        cross = partition.crosses(access.cls, access.owners)
        if not cross:
            continue
        owners = "/".join(cross)
        yield LintFinding(
            rule="SH501", path=access.path,
            line=access.line, scope=f"{access.cls}.{access.method}",
            message=(
                f"clocked write to {access.receiver}.{access.attr} mutates "
                f"state owned by {owners} outside any declared port — add "
                f"a port method on {owners} or move the state to the writer"
            ),
        )


def _shared_across_ports(
    index: ProgramIndex, flow: StateFlow, partition: Partition
) -> Iterator[LintFinding]:
    graph = flow.graph
    for cls in sorted(graph.module_names):
        model = graph.models.get(cls)
        if model is None:
            continue
        for site in graph.clocked_sites(cls):
            if site.kind != "port":
                continue
            method_node = model.info.methods.get(site.caller_method)
            if method_node is None:
                continue
            env = graph.seed_env(model, method_node)
            retained: List[Tuple[str, str, str]] = []
            seen = set()
            for target in sorted(site.targets):
                if partition.domain_for(target) == partition.domain_for(cls):
                    continue
                target_model = graph.models.get(target)
                if target_model is None:
                    continue
                target_def = target_model.info.methods.get(site.callee_method)
                if target_def is None:
                    continue
                escapes = flow.escaping_params(target, site.callee_method)
                if not escapes:
                    continue
                params = _param_names(target_def)
                for name in sorted(escapes):
                    arg = _arg_for(site.node, params, name)
                    if arg is None:
                        continue
                    desc = _shared_desc(arg, model, env, graph, index)
                    if desc is None or (name, desc) in seen:
                        continue
                    seen.add((name, desc))
                    retained.append((name, desc, target))
            if not retained:
                continue
            detail = "; ".join(
                f"{desc} retained by {target}.{site.callee_method} "
                f"(param {name!r})"
                for name, desc, target in retained
            )
            yield LintFinding(
                rule="SH502", path=model.info.path,
                line=site.line, scope=f"{cls}.{site.caller_method}",
                message=(
                    f"port call {site.callee_method}() shares mutable "
                    f"state across a clock-domain boundary: {detail} — pass "
                    f"an immutable snapshot, or waive a designed completion "
                    f"channel with # repro: noqa[SH502]"
                ),
            )


# ----------------------------------------------------------------------
# helpers


def _param_names(fn: ast.FunctionDef) -> List[str]:
    return [
        a.arg
        for a in (*fn.args.posonlyargs, *fn.args.args)
        if a.arg != "self"
    ]


def _arg_for(
    call: ast.Call, params: List[str], name: str
) -> Optional[ast.expr]:
    """The argument expression bound to parameter ``name`` at ``call``."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    try:
        position = params.index(name)
    except ValueError:
        return None
    if position < len(call.args):
        arg = call.args[position]
        if not isinstance(arg, ast.Starred):
            return arg
    return None


def _shared_desc(
    arg: ast.expr,
    model: ClassModel,
    env: LocalEnv,
    graph: CallGraph,
    index: ProgramIndex,
) -> Optional[str]:
    """If ``arg`` is provably shared mutable state of the caller, a
    human-readable description of it; ``None`` for value-like args."""
    if isinstance(arg, ast.Name) and arg.id == "self":
        return "self"
    if isinstance(arg, (ast.Tuple, ast.List)):
        for element in arg.elts:
            desc = _shared_desc(element, model, env, graph, index)
            if desc is not None:
                return desc
        return None
    types = graph.value_types(arg, model, env)
    live = sorted(
        t for t in types.direct
        if t in index.classes and not _immutable_class(index, t)
    )
    if live:
        return f"{render_expr(arg)} ({'/'.join(live)})"
    if (
        isinstance(arg, ast.Attribute)
        and isinstance(arg.value, ast.Name)
        and arg.value.id == "self"
        and arg.attr in model.mutable_attrs
    ):
        return f"{render_expr(arg)} (mutable container)"
    return None


def _immutable_class(index: ProgramIndex, name: str) -> bool:
    """Enum members and frozen dataclasses are safe to share by value."""
    definitions = index.classes.get(name)
    if not definitions:
        return False
    info = definitions[0]
    roots = index.root_names(info)
    if roots & {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"}:
        return True
    for decorator in info.node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        base = (
            target.id if isinstance(target, ast.Name)
            else target.attr if isinstance(target, ast.Attribute)
            else None
        )
        if base == "dataclass" and isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "frozen"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
    return False
