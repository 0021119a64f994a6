"""Determinism rule: no bare set iteration in clocked code (DT203).

The verification stack — shadow-clocking bit-equivalence, chaos-retry
convergence, journal resume, the golden cycle pins — rests on
simulations being bit-reproducible.  One way of losing that escapes
every runtime check: an order that depends on the interpreter's hash
seed.  Every pillar runs inside one process, under one seed, so it sees
a single consistent order; a golden pin fires only when that seed's
order happens to differ from the recorded one.  This rule flags the
hazard inside *clocked code paths*, which the analyzer defines as the
method bodies (including nested functions) of
:class:`~repro.sim.module.Module` subclasses.  The fix is to iterate
``sorted(...)`` or keep an explicit list.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyze.findings import LintFinding
from repro.analyze.index import ProgramIndex


def _set_valued(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("set", "frozenset")
    )


def check_set_iteration(index: ProgramIndex) -> Iterator[LintFinding]:
    for info in index.module_classes():
        for method in info.methods.values():
            for node in ast.walk(method):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iterables = [node.iter]
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    iterables = [gen.iter for gen in node.generators]
                else:
                    continue
                if any(_set_valued(iterable) for iterable in iterables):
                    yield LintFinding(
                        rule="DT203", path=info.path,
                        line=node.lineno, scope=f"{info.name}.{method.name}",
                        message="iterates a set in a clocked code path; set "
                                "order is not deterministic across processes "
                                "— sort it first",
                    )
