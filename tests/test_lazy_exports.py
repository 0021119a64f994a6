"""Packages that resolve their exports on first use export what they did.

The aggregating ``__init__``\\ s list ``{defining module: names}`` through
:func:`repro._lazy.lazy_exports` instead of importing; nothing a caller
can observe may differ from the eager re-export lists they replaced —
same names, same objects, same ``__all__``, same pickle paths.  What
laziness *saves* is measured from fresh interpreters in
``test_import_budget.py``.
"""

import ast
import importlib
import pickle
import sys
from pathlib import Path

import pytest

#: Every package whose ``__init__`` resolves its exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.check",
    "repro.eval",
    "repro.guard",
    "repro.resilience",
    "repro.serve",
    "repro.simulators",
)

#: Public names a lazy package binds itself instead of re-exporting.
OWN_NAMES = {"repro.simulators": {"SIMULATORS"}}


def declared_exports(package):
    """``{name: defining module}`` as written in the package's
    ``lazy_exports(globals(), {...})`` call, read off the source."""
    tree = ast.parse(Path(package.__file__).read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "lazy_exports"
    ]
    assert len(calls) == 1
    table = ast.literal_eval(calls[0].args[1])
    names = [name for provided in table.values() for name in provided]
    assert len(names) == len(set(names)), "a name is exported twice"
    return {name: module for module, provided in table.items()
            for name in provided}


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
class TestExportParity:
    def test_all_is_exactly_what_is_declared(self, package_name):
        package = importlib.import_module(package_name)
        own = OWN_NAMES.get(package_name, set())
        assert set(package.__all__) == set(declared_exports(package)) | own
        assert len(package.__all__) == len(set(package.__all__))

    def test_every_name_is_the_object_its_module_defines(self, package_name):
        package = importlib.import_module(package_name)
        for name, module_name in declared_exports(package).items():
            value = getattr(package, name)
            assert value is getattr(importlib.import_module(module_name), name)
            # Resolved once, then a plain global of the package.
            assert vars(package)[name] is value
            home = getattr(value, "__module__", None)
            if home and callable(value):
                # Classes and functions pickle by this path; it must be
                # the module that defines them, never a package.
                assert vars(sys.modules[home])[value.__name__] is value
                assert home not in LAZY_PACKAGES

    def test_dir_lists_every_export(self, package_name):
        package = importlib.import_module(package_name)
        assert set(package.__all__) <= set(dir(package))
        assert "__doc__" in dir(package)  # and the module's own globals

    def test_unknown_attribute_names_module_and_attribute(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError) as caught:
            package.no_such_export
        assert repr(package_name) in str(caught.value)
        assert "'no_such_export'" in str(caught.value)
        assert not hasattr(package, "no_such_export")

    def test_no_eager_import_statement_is_left(self, package_name):
        """What CI greps for: the only module-level ``repro`` import of
        a lazy ``__init__`` is the helper."""
        package = importlib.import_module(package_name)
        tree = ast.parse(Path(package.__file__).read_text())
        imported = [
            node.module for node in tree.body
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "repro"
        ] + [
            alias.name for node in tree.body if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] == "repro"
        ]
        assert imported == ["repro._lazy"]


def test_star_import_binds_exactly_all():
    import repro

    namespace = {}
    exec("from repro import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(repro.__all__)
    assert namespace["SwiftSimBasic"] is repro.SwiftSimBasic


def test_submodules_still_import_through_a_lazy_package():
    """``from package import submodule`` falls back to the import system
    when the package ``__getattr__`` raises ``AttributeError``."""
    from repro.check import report
    from repro.serve import keys

    assert report.__name__ == "repro.check.report"
    assert keys.__name__ == "repro.serve.keys"


class TestPicklePaths:
    """Pickles name classes and functions by defining module; a lazy
    package in between must not show up in the stream (checkpoints,
    journals and worker pipes outlive the process that wrote them)."""

    def test_simulation_result(self):
        from repro import SimulationResult
        from repro.simulators import KernelResult

        assert SimulationResult.__module__ == "repro.simulators.results"
        result = SimulationResult(
            app_name="gemm", simulator_name="swift-basic", gpu_name="TestGPU",
            total_cycles=1186,
            kernels=[KernelResult(name="k", start_cycle=0, end_cycle=1186,
                                  instructions=468)],
        )
        stream = pickle.dumps(result)
        assert b"repro.simulators.results" in stream
        assert pickle.loads(stream) == result

    def test_supervisor_task_with_the_serve_job_function(self):
        from repro.resilience import Task
        from repro.serve.worker import execute_job, validate_result_payload

        assert execute_job.__module__ == "repro.serve.worker"
        task = Task(key="job", fn=execute_job,
                    args=("gemm", "tiny", None, "rtx2080ti", "swift-basic"),
                    validate=validate_result_payload)
        stream = pickle.dumps(task)
        assert b"repro.serve.worker" in stream
        assert b"repro.resilience.supervisor" in stream
        restored = pickle.loads(stream)
        assert restored == task
        assert restored.fn is execute_job


class TestSimulatorRegistry:
    NAMES = ["accel-like", "interval", "swift-analytic", "swift-basic",
             "swift-memory"]

    def test_reads_like_the_dict_it_was(self):
        from repro import simulators
        from repro.simulators import SIMULATORS

        assert sorted(SIMULATORS) == self.NAMES
        assert len(SIMULATORS) == 5
        assert list(SIMULATORS)[0] == "accel-like"  # the baseline leads
        assert "swift-basic" in SIMULATORS
        assert "swift-turbo" not in SIMULATORS
        assert SIMULATORS["swift-basic"] is simulators.SwiftSimBasic
        assert SIMULATORS.get("interval") is simulators.IntervalSimulator
        assert SIMULATORS.get("swift-turbo") is None
        assert dict(SIMULATORS.items()) == {
            name: SIMULATORS[name] for name in self.NAMES
        }
        for name, simulator_cls in SIMULATORS.items():
            assert simulator_cls.__module__.startswith("repro.simulators.")

    def test_unknown_name_is_a_key_error(self):
        from repro.simulators import SIMULATORS

        with pytest.raises(KeyError, match="swift-turbo"):
            SIMULATORS["swift-turbo"]

    def test_is_read_only(self):
        from repro.simulators import SIMULATORS

        with pytest.raises(TypeError):
            SIMULATORS["swift-turbo"] = object
        with pytest.raises(TypeError):
            del SIMULATORS["swift-basic"]
