"""API-quality gates: every public item is documented and importable.

These are the "doc comments on every public item" deliverable enforced as
tests, so documentation cannot silently rot.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.simhw",
    "repro.simos",
    "repro.runtime",
    "repro.core",
    "repro.baselines",
    "repro.workloads",
    "repro.depend",
]


def _walk_modules():
    """Every module of ``repro``: the ``PACKAGES`` and their modules, then
    every other module ``pkgutil.walk_packages`` finds (the modules of
    ``repro.obs``, ``serve``, ``explore``, ``validate`` and ``surrogate``).
    The ``repro`` entry lists the other ``PACKAGES`` a second time, which
    gives their cases the ids ``[repro.core0]``/``[repro.core1]``."""
    seen = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        seen.append(pkg)
        for info in pkgutil.iter_modules(pkg.__path__, prefix=pkg_name + "."):
            if info.name.endswith("__main__"):
                continue  # importing it would run the CLI
            seen.append(importlib.import_module(info.name))
    names = {module.__name__ for module in seen}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name not in names and not info.name.endswith("__main__"):
            seen.append(importlib.import_module(info.name))
    return seen


ALL_MODULES = _walk_modules()


class TestDocumentation:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_module_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_public_classes_and_functions_documented(self, module):
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at home
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
                continue
            if inspect.isclass(obj):
                for mname, member in vars(obj).items():
                    if mname.startswith("_"):
                        continue
                    if inspect.isfunction(member) and not (
                        member.__doc__ and member.__doc__.strip()
                    ):
                        undocumented.append(f"{name}.{mname}")
        assert not undocumented, (
            f"{module.__name__}: undocumented public items: {undocumented}"
        )


class TestExports:
    @pytest.mark.parametrize(
        "pkg_name", [p for p in PACKAGES if p != "repro.workloads"]
    )
    def test_all_exports_resolve(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        for name in getattr(pkg, "__all__", []):
            assert getattr(pkg, name, None) is not None, f"{pkg_name}.{name}"

    def test_top_level_lazy_prophet(self):
        assert repro.ParallelProphet.__name__ == "ParallelProphet"

    def test_unknown_top_level_attribute(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestLayering:
    #: The simulated machine, OS and runtimes: the kernel side of the line.
    #: The evaluators of ``repro.core`` (the team walk included) import
    #: them, never the other way round.
    BELOW_CORE = ("repro.simhw", "repro.simos", "repro.runtime")

    def test_lower_layers_never_import_core(self):
        offenders = []
        for pkg_name in self.BELOW_CORE:
            pkg = importlib.import_module(pkg_name)
            for path in sorted(Path(pkg.__path__[0]).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        base = node.module or ""
                        names = [base] + [
                            f"{base}.{alias.name}" for alias in node.names
                        ]
                    else:
                        continue
                    if any(
                        name == "repro.core" or name.startswith("repro.core.")
                        for name in names
                    ):
                        offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders, f"imports of repro.core below it: {offenders}"
