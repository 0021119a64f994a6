"""Field layout of the classes a guard checkpoint pickles.

A checkpoint is one pickle of the live engine, so every instance
attribute of every class under ``repro.core``, ``repro.sim`` and
``repro.memory`` (and the trace / ISA / config objects they hold) is part
of the file format.  :func:`current_layout` reads that layout off the
source — ``__slots__``, annotated class-body fields, and every
``self.<name> = ...`` in a method — and ``tests/data/checkpoint_layout.json``
pins it beside the ``FORMAT_VERSION`` it was recorded for.
``test_guard.py`` fails when one moves without the other.

After bumping ``FORMAT_VERSION`` for a layout change, re-pin with::

    PYTHONPATH=src python tests/checkpoint_layout.py
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, List

import repro
from repro.guard import FORMAT_VERSION

PACKAGE = Path(repro.__file__).parent
PINNED = Path(__file__).parent / "data" / "checkpoint_layout.json"

#: Where pickled classes are defined, relative to the package.
SOURCES = ("core", "sim", "memory", "frontend/trace.py", "frontend/isa.py",
           "frontend/config.py")


def _fields(cls: ast.ClassDef) -> List[str]:
    names = set()
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)  # dataclass field
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
    return sorted(names)


def current_layout() -> Dict[str, List[str]]:
    """``package.module.Class`` -> sorted instance field names."""
    files: List[Path] = []
    for source in SOURCES:
        path = PACKAGE / source
        files.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    layout: Dict[str, List[str]] = {}
    for path in files:
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                fields = _fields(node)
                if fields:
                    layout[f"{module}.{node.name}"] = fields
    return layout


def pinned() -> Dict:
    return json.loads(PINNED.read_text())


if __name__ == "__main__":
    # One class per line, so a re-pin diffs as the classes that moved.
    rows = ",\n".join(
        f"  {json.dumps(name)}: {json.dumps(fields)}"
        for name, fields in sorted(current_layout().items())
    )
    PINNED.write_text(
        f'{{"format_version": {FORMAT_VERSION}, "classes": {{\n{rows}\n}}}}\n'
    )
    print(f"pinned {len(current_layout())} classes at FORMAT_VERSION {FORMAT_VERSION}")
