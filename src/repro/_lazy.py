"""Package exports that import on first use (PEP 562).

An aggregating ``__init__`` that re-exports with ``from x import y``
makes every entry point pay for every sub-package: ``import repro`` once
loaded numpy, asyncio and multiprocessing to print 24 application names.
A package that lists its exports through :func:`lazy_exports` instead
imports a defining module the first time one of its names is looked up
and keeps the value in its own globals, so the second lookup is a plain
attribute load and ``from repro import X`` reads as it always did.

Deferring an import moves its cost to the first use, which is the wrong
place inside a process that forks workers: ``repro serve`` resolves every
registered simulator before it binds its socket (see
``docs/architecture.md`` § "Lazy exports").

This module imports nothing but :mod:`importlib` (not even ``typing``):
it is all that ``import repro`` loads.
"""

from __future__ import annotations

from importlib import import_module


def lazy_exports(
    namespace: dict[str, object],
    exports: dict[str, tuple[str, ...]],
) -> tuple:
    """The module ``__getattr__`` and ``__dir__`` of a package whose
    ``exports`` map each defining module to the names it provides.

    ``namespace`` is the package's ``globals()``; use as
    ``__getattr__, __dir__ = lazy_exports(globals(), {...})``.
    """
    package = namespace["__name__"]
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
