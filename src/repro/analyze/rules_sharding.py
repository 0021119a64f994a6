"""Shard-safety rules (SH5xx): the fixed-interface claim, machine-checked.

Hybrid modeling rests on modules that interact only through fixed
interfaces (paper §III-B2), and the decomposition the manifest proposes
(see :mod:`repro.analyze.partition`) is only sound if every cross-module
interaction on a clocked path goes through a *declared* synchronization
point: the :mod:`repro.sim.ports` contract methods plus anything marked
``# repro: port``.  No engine runs that decomposition
(``docs/parallel-engine.md``), and no runtime pillar names a violation
of it — ``tests/test_modularity_trial.py`` seeds seven into the real
sources and these rules are what reports them.  They flag the three
ways module code breaks the contract:

* **SH501** — a clocked method writes another module's state directly
  (attribute assignment, ``+=``, or an in-place container mutator).
  The owner's ports no longer describe how its state changes, so
  neither side can be swapped for another modeling level safely (and
  were the two ever ticked concurrently, it is a data race).
* **SH502** — a mutable object (``self``, an owned container, a live
  instance of an indexed class) is passed across a port and the far
  side *retains* it.  The port call itself is synchronized, but the
  retained alias is a back-channel both shards can touch later.
* **SH503** — a clocked method reads state that its owning module
  writes on the owner's own clocked path, without going through a
  port.  Same-cycle results then depend on which module ticked first.
  Nothing catches that at runtime: registration order is fixed, so
  every run agrees with every other, and the determinism pillar checks
  repeatability and pooled-vs-serial agreement — it permutes nothing.
  This rule is the only detector.

All three are **partition-aware**: they fire only when the access
actually crosses a boundary of the partition proposed by
:mod:`repro.analyze.partition`.  Modules the partition colocates — a
parent and the children it ticks, classes wired by synchronous calls —
share one clock domain, where intra-cycle order is defined by the tree
walk and a direct access is ordinary (if impolite) coupling, not a
race.  The rules and the manifest therefore agree by construction:
SH501 findings are exactly the manifest's ``unsynchronized_writes``
(modulo justified noqas).

All three analyze only :class:`~repro.sim.module.Module` subclasses.
``EngineChecker`` observers run at cycle barriers, where the engine has
already quiesced every shard, so their cross-module reads are safe by
construction and stay out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analyze.callgraph import CallGraph, ClassModel, LocalEnv, render_expr
from repro.analyze.findings import LintFinding
from repro.analyze.index import ProgramIndex
from repro.analyze.partition import build_partition
from repro.analyze.registry import rule
from repro.analyze.stateflow import StateFlow, build_stateflow


@rule(
    "SH501",
    "no unsynchronized cross-module state writes",
    "error",
    "A clocked method that assigns or mutates another module's attributes "
    "bypasses the port contract; when the two modules land in different "
    "PDES shards the write races with the owner's own tick. Route the "
    "update through a port method on the owner, or move the state.",
)
def check_cross_module_writes(index: ProgramIndex) -> Iterator[LintFinding]:
    flow = build_stateflow(index)
    partition = build_partition(index)
    for access in flow.foreign:
        if access.kind != "write" or access.synchronized:
            continue
        cross = partition.crosses(access.cls, access.owners)
        if not cross:
            continue
        owners = "/".join(cross)
        yield LintFinding(
            rule="SH501", severity="error", path=access.path,
            line=access.line, scope=f"{access.cls}.{access.method}",
            message=(
                f"clocked write to {access.receiver}.{access.attr} mutates "
                f"state owned by {owners} outside any declared port; under "
                f"PDES sharding this is a cross-shard data race — add a "
                f"port method on {owners} or move the state to the writer"
            ),
        )


@rule(
    "SH502",
    "no shared mutable objects retained across ports",
    "warning",
    "A port call is a synchronization point, but if the callee stores the "
    "argument (into its own state, an owned container, or a constructed "
    "record) the two modules now alias one mutable object across the "
    "shard boundary — every later access bypasses the port. Pass an "
    "immutable snapshot, or document the alias as a designed completion "
    "channel with a justified noqa.",
)
def check_shared_across_ports(index: ProgramIndex) -> Iterator[LintFinding]:
    flow = build_stateflow(index)
    graph = flow.graph
    partition = build_partition(index)
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
                if partition.shard_for(target) == partition.shard_for(cls):
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
                rule="SH502", severity="warning", path=model.info.path,
                line=site.line, scope=f"{cls}.{site.caller_method}",
                message=(
                    f"port call {site.callee_method}() shares mutable "
                    f"state across the shard boundary: {detail}"
                ),
            )


@rule(
    "SH503",
    "no order-dependent cross-module reads",
    "warning",
    "Reading another module's attribute while its owner also writes it on "
    "the owner's clocked path makes the value depend on intra-cycle tick "
    "order, which only module registration order fixes — no runtime check "
    "varies it, so this rule is the only detector. Read it through a "
    "``# repro: port``-marked accessor or sample it at a cycle barrier "
    "via an EngineChecker.",
)
def check_cross_module_reads(index: ProgramIndex) -> Iterator[LintFinding]:
    flow = build_stateflow(index)
    partition = build_partition(index)
    for access in flow.foreign:
        if access.kind != "read" or access.synchronized:
            continue
        writers = sorted(
            owner for owner in partition.crosses(access.cls, access.owners)
            if flow.writes_on_clock(owner, access.attr)
        )
        if not writers:
            continue
        owners = "/".join(writers)
        kind = "property" if access.via_property else "attribute"
        yield LintFinding(
            rule="SH503", severity="warning", path=access.path,
            line=access.line, scope=f"{access.cls}.{access.method}",
            message=(
                f"clocked read of {access.receiver}.{access.attr} "
                f"({kind} written by {owners} on its own clocked path) is "
                f"tick-order dependent; mark the accessor `# repro: port` "
                f"or sample at a cycle barrier"
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
