"""Parsed-source index: files and the cross-file class hierarchy.

The analyzer is whole-program: a rule needs to know that
``DetailedMemorySystem`` is (transitively) a :class:`repro.sim.module.Module`
even though the two classes live in different files.
:class:`ProgramIndex` builds that view once from a set of
:class:`SourceFile`\\ s; rules then query it.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import AnalysisError

#: Framework root classes: subclassing one of these (by name, transitively
#: through the index) makes a class part of the modeled-module hierarchy.
MODULE_ROOTS = frozenset({"Module", "ClockedModule"})
SINK_ROOTS = frozenset({"InstructionSink", "CompletionListener", "BlockSource"})

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s]+)\]")
_PORT_RE = re.compile(r"#\s*repro:\s*port\b")


@dataclass
class ClassInfo:
    """One class definition, with what rules need pre-extracted."""

    name: str
    path: str                  #: repo-relative source path
    node: ast.ClassDef
    base_names: List[str]      #: last-segment names of the bases as written
    source: "SourceFile"
    #: method name -> FunctionDef/AsyncFunctionDef defined in this body
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: names assigned at class level (class attributes)
    class_attrs: Set[str] = field(default_factory=set)
    #: names assigned as ``self.<name> = ...`` anywhere in the body
    self_attrs: Set[str] = field(default_factory=set)
    #: whether any method carries @abstractmethod
    is_abstract: bool = False
    #: methods carrying a ``# repro: port`` marker (on the def/decorator
    #: header or the line immediately above it) — declared cross-module
    #: communication points the sharding rules treat as synchronized
    port_methods: Set[str] = field(default_factory=set)


class SourceFile:
    """One parsed Python source file plus its lint annotations."""

    def __init__(self, path: Path, root: Path, text: str) -> None:
        try:
            self.path = str(path.relative_to(root))
        except ValueError:
            self.path = str(path)
        try:
            self.tree = ast.parse(text, filename=self.path)
        except SyntaxError as exc:
            raise AnalysisError(f"cannot parse {self.path}: {exc}") from exc
        #: line -> rule IDs a ``# repro: noqa[...]`` on that line waives
        self.noqa: Dict[int, FrozenSet[str]] = {}
        #: lines carrying a ``# repro: port`` marker
        self.port_lines: Set[int] = set()
        # Markers are honored only in *actual comments* (tokenize), never
        # inside string literals — otherwise documentation that merely
        # mentions the noqa/port syntax would suppress (or, with
        # unknown-rule validation, reject) findings on its own line.
        for lineno, comment in _comment_lines(text):
            match = _NOQA_RE.search(comment)
            if match:
                self.noqa[lineno] = frozenset(
                    i.strip() for i in match.group(1).split(",") if i.strip()
                )
            if _PORT_RE.search(comment):
                self.port_lines.add(lineno)

    def suppressed(self, line: int, rule_id: str) -> bool:
        """True when a ``# repro: noqa[...]`` on ``line`` names ``rule_id``."""
        return rule_id in self.noqa.get(line, ())


def _comment_lines(text: str) -> List[Tuple[int, str]]:
    """(lineno, comment_text) for every comment token in ``text``.

    Falls back to a whole-line scan if tokenization fails (the file
    already parsed, so this is a defensive path, not an expected one).
    """
    try:
        return [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(text).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return list(enumerate(text.splitlines(), start=1))


def _base_name(node: ast.expr) -> Optional[str]:
    """Last-segment name of a base-class expression, if resolvable."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def called_name(func: ast.expr) -> Optional[str]:
    """Name a :class:`ast.Call`'s callee resolves to, last segment."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _extract_class(info: ClassInfo) -> None:
    """Populate methods/attrs/abstractness for one class body."""
    for stmt in info.node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = stmt
            for decorator in stmt.decorator_list:
                name = _base_name(decorator) or called_name(
                    decorator.func if isinstance(decorator, ast.Call) else decorator
                )
                if name in ("abstractmethod", "abstractproperty"):
                    info.is_abstract = True
            header_start = min(
                [d.lineno for d in stmt.decorator_list] + [stmt.lineno]
            )
            header_end = stmt.body[0].lineno - 1 if stmt.body else stmt.lineno
            marker_window = set(range(header_start - 1, header_end + 1))
            if marker_window & info.source.port_lines:
                info.port_methods.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    info.class_attrs.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            info.class_attrs.add(stmt.target.id)
    for node in ast.walk(info.node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info.self_attrs.add(target.attr)


class ProgramIndex:
    """Whole-program view the rules run against."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files = list(files)
        #: bare class name -> definitions (collisions keep all)
        self.classes: Dict[str, List[ClassInfo]] = {}
        for source in self.files:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    info = ClassInfo(
                        name=node.name,
                        path=source.path,
                        node=node,
                        base_names=[
                            name for base in node.bases
                            if (name := _base_name(base)) is not None
                        ],
                        source=source,
                    )
                    _extract_class(info)
                    self.classes.setdefault(node.name, []).append(info)

    # ------------------------------------------------------------------
    # hierarchy queries

    def ancestry(self, info: ClassInfo) -> Iterator[ClassInfo]:
        """All in-index ancestors of ``info``, depth-first, cycle-safe."""
        seen: Set[Tuple[str, str]] = {(info.path, info.name)}
        stack = list(info.base_names)
        while stack:
            base = stack.pop()
            for candidate in self.classes.get(base, []):
                key = (candidate.path, candidate.name)
                if key in seen:
                    continue
                seen.add(key)
                yield candidate
                stack.extend(candidate.base_names)

    def root_names(self, info: ClassInfo) -> Set[str]:
        """Base names of ``info``'s full in-index ancestry, plus its own.

        A name in here matching e.g. ``Module`` means the class derives
        (possibly through files outside the analyzed set) from the
        framework root of that name.
        """
        names = set(info.base_names)
        for ancestor in self.ancestry(info):
            names.update(ancestor.base_names)
        return names

    def subclasses_of(self, roots: FrozenSet[str]) -> List[ClassInfo]:
        """Every class whose ancestry reaches a root name (excluding
        classes *named* as a root, which are the framework itself)."""
        found = []
        for definitions in self.classes.values():
            for info in definitions:
                if info.name in roots:
                    continue
                if self.root_names(info) & roots:
                    found.append(info)
        return found

    def module_classes(self) -> List[ClassInfo]:
        return self.subclasses_of(MODULE_ROOTS)

    def declares(self, info: ClassInfo, attr: str) -> bool:
        """Does ``info`` (or an ancestor below the framework roots)
        declare ``attr`` as a class attribute or ``self.<attr>``?"""
        chain = [info] + [
            ancestor for ancestor in self.ancestry(info)
            if ancestor.name not in MODULE_ROOTS
        ]
        return any(
            attr in c.class_attrs or attr in c.self_attrs for c in chain
        )

    def defines_method(self, info: ClassInfo, method: str) -> bool:
        """Does ``info`` or an in-index ancestor below the roots define
        ``method`` concretely (not as an abstractmethod)?"""
        chain = [info] + [
            ancestor for ancestor in self.ancestry(info)
            if ancestor.name not in MODULE_ROOTS
        ]
        for c in chain:
            node = c.methods.get(method)
            if node is None:
                continue
            decorated = {
                _base_name(d) for d in node.decorator_list
                if _base_name(d) is not None
            }
            if "abstractmethod" not in decorated:
                return True
        return False

    def port_marked(self, info: ClassInfo, method: str) -> bool:
        """Is ``method`` declared a ``# repro: port`` on ``info`` or any
        in-index ancestor?"""
        if method in info.port_methods:
            return True
        return any(
            method in ancestor.port_methods for ancestor in self.ancestry(info)
        )


# ----------------------------------------------------------------------
# collection


def collect_paths(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: List[Path] = []
    for path in paths:
        if path.is_dir():
            collected.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            collected.append(path)
        else:
            raise AnalysisError(f"not a Python source or directory: {path}")
    if not collected:
        raise AnalysisError(f"no Python sources under {[str(p) for p in paths]}")
    return collected


def load_index(
    paths: Sequence[Path], root: Optional[Path] = None
) -> ProgramIndex:
    """Parse ``paths`` (files or directories) into a :class:`ProgramIndex`."""
    root = root if root is not None else Path.cwd()
    return ProgramIndex([
        SourceFile(path, root, path.read_text())
        for path in collect_paths(paths)
    ])
