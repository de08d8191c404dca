"""Every tritrace name the benchmark under ``perfbench/`` reads resolves.

The benchmark calls into tritrace by name: the names it imports from
``tritrace`` modules, the ``cli.<name>`` and ``deviations.<name>`` attributes
it reads, and the names its traced run rebinds through ``around(module,
layer, names, ...)``.  The scripts are parsed, not run, so a change that
deletes or renames one of these names fails here in milliseconds instead of
in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the module each attribute owner names in the benchmark's scripts
OWNERS = {"cli": "tritrace.cli", "deviations": "tritrace.deviations"}


def _owner(node) -> str | None:
    """The module a ``cli``/``deviations`` expression (``cli`` or ``tritrace.cli``) names."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return OWNERS.get(name)


def benchmark_names() -> list[tuple[str, str]]:
    """``(module, name)`` of every tritrace name the benchmark's scripts read."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tritrace"):
                names.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and _owner(node.value):
                names.add((_owner(node.value), node.attr))
            elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "around"
                  and len(node.args) > 2 and _owner(node.args[0])):
                names.update((_owner(node.args[0]), elt.value) for elt in node.args[2].elts)
    return sorted(names)


NAMES = benchmark_names()


def test_the_parse_finds_the_known_names():
    # the names the benchmark is known to read, so a parse that finds none fails
    for known in [("tritrace.stats", "mc_traces"), ("tritrace.cli", "write_csv"),
                  ("tritrace.cli", "main"), ("tritrace.deviations", "mdp_check"),
                  ("tritrace.deviations", "dk_iid"), ("tritrace.deviations", "mc_traces")]:
        assert known in NAMES


@pytest.mark.parametrize("module, name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_benchmark_name_resolves(module, name):
    mod = importlib.import_module(module)
    if not hasattr(mod, name):   # ``from tritrace import cli`` names a submodule
        importlib.import_module(f"{module}.{name}")
