"""The module layout of ranktail, read from the import statements of its
source files: the layers below `graph` import nothing above them, and the
threads have one home."""

import ast
from pathlib import Path

import pytest

import ranktail
from ranktail import graph

SRC = Path(ranktail.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def ranktail_imports(module: str) -> set[str]:
    """The ranktail modules that ``module``'s import statements name."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("ranktail."))
        elif isinstance(node, ast.ImportFrom):
            # a relative import names a module of the package, ranktail
            package = ".".join(filter(None, ["ranktail" if node.level else None,
                                             node.module]))
            if package == "ranktail":  # from . import graph
                names.update(alias.name for alias in node.names)
            elif package.startswith("ranktail."):
                names.add(package.split(".")[1])
    return names


@pytest.mark.parametrize("module, allowed", [("blocks", set()), ("formats", {"blocks"})])
def test_lower_layers_import_only_below_them(module, allowed):
    assert ranktail_imports(module) <= allowed


@pytest.mark.parametrize("module, barred", [("simulate", "graph"), ("tails", "graph"),
                                            ("theory", "tails")])
def test_module_does_not_import(module, barred):
    assert barred not in ranktail_imports(module)


def test_thread_pools_only_in_blocks():
    naming = [module for module in MODULES
              if "ThreadPoolExecutor" in (SRC / f"{module}.py").read_text(encoding="utf-8")]
    assert naming == ["blocks"]


@pytest.mark.parametrize("name", ["_cpu_count", "ThreadPoolExecutor", "_CHUNK_BYTES",
                                  "_CHUNK_ROWS"])
def test_graph_holds_no_name_that_tests_patch_below_it(name):
    # so a patch of the name on graph raises instead of testing nothing
    assert not hasattr(graph, name)
