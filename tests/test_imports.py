"""Every module under src/ and tests/ uses each name it imports, every
name the benchmark imports from ``recollab`` exists, and only the modules
that read endpoints, tokens and proxies read the process environment.

A name counts as used when the module reads it anywhere or lists it in its
``__all__``. ``from __future__`` imports and an import whose lines carry
``# noqa: F401`` (a deliberate re-export) are exempt. No test imports
``bench/run.py`` or ``bench/corpus.py``, so without the second check a
renamed program name would break only the benchmark.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name ``source`` imports and never uses."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            # "import a.b" binds "a"
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used:
                found.append((node.lineno, name))
    return found


def test_the_scan_covers_the_package_and_the_tests():
    names = {path.relative_to(ROOT).as_posix() for path in MODULES}
    assert {"src/recollab/runner.py", "tests/helpers.py", "tests/test_imports.py"} <= names


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_scan_finds_an_unused_import_and_honours_the_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from typing import Any, Mapping\n"
        "from pathlib import Path  # noqa: F401 - re-exported\n"
        "from math import (\n"
        "    inf,  # noqa: F401\n"
        ")\n"
        "import collections as c\n"
        "__all__ = ['Mapping']\n"
        "def f(x: Any) -> None:\n"
        "    os.sep\n"
    )
    assert unused_imports(source) == [(3, "json"), (9, "c")]


def recollab_imports(source: str) -> list[tuple[int, str, str]]:
    """(line, module, name) for each ``from recollab... import name`` in ``source``."""
    return [
        (node.lineno, node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module.split(".")[0] == "recollab"
        for alias in node.names
    ]


def resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` finds an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        return importlib.util.find_spec(f"{module}.{name}") is not None
    except ModuleNotFoundError:
        return False


def test_every_name_the_benchmark_imports_from_recollab_resolves():
    found = [
        (path.name, line, module, name)
        for path in sorted(ROOT.glob("bench/*.py"))
        for line, module, name in recollab_imports(path.read_text(encoding="utf-8"))
    ]
    names = {(file, f"{module}.{name}") for file, _, module, name in found}
    assert {
        ("run.py", "recollab.runner.FAILURE_NOTE_PREFIX"),
        ("run.py", "recollab.runner.build_backends"),
        ("corpus.py", "recollab.backends.replay.write_fixture"),
        ("tracer.py", "recollab.backends.http"),
    } <= names
    missing = [
        f"bench/{file}:{line}: {module}.{name}"
        for file, line, module, name in found
        if not resolves(module, name)
    ]
    assert missing == []


def test_the_benchmark_scan_refuses_a_name_that_is_gone():
    source = "from recollab.runner import build_backends, no_such_name\nimport recollab\n"
    found = recollab_imports(source)
    assert [name for _, _, name in found] == ["build_backends", "no_such_name"]
    assert [resolves(module, name) for _, module, name in found] == [True, False]
    assert resolves("recollab.backends", "replay") and not resolves("recollab.backends", "rpc")


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[int]:
    """Lines where ``source`` reads the process environment through ``os``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr in _ENVIRONMENT
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
        or isinstance(node, ast.ImportFrom)
        and node.module == "os"
        and any(alias.name in _ENVIRONMENT for alias in node.names)
    )


def test_the_environment_supplies_only_endpoints_tokens_and_proxies():
    source = "import os\nfrom os import getenv\nos.environ.get('A')\nos.path.join('b')\n"
    assert environment_reads(source) == [2, 3]
    readers = {
        path.relative_to(ROOT).as_posix()
        for path in MODULES
        if path.is_relative_to(ROOT / "src")
        and environment_reads(path.read_text(encoding="utf-8"))
    }
    # config: the RECOLLAB_<ROLE>_ENDPOINT and _TOKEN overrides; backends.http: proxies
    assert readers == {"src/recollab/config.py", "src/recollab/backends/http.py"}
