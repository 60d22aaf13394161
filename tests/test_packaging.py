"""Every third-party package the source imports is declared in ``setup.py``.

An import of an undeclared package works on a machine that happens to have
it installed and fails with ``ModuleNotFoundError`` on a clean install.  The
check parses each module under ``src/`` and ``setup.py`` itself; nothing is
imported or installed.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def imported_packages(path: Path) -> set[str]:
    """Top-level names of the absolute imports in ``path``, wherever they sit."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_packages() -> set[str]:
    """Names in ``install_requires`` and every ``extras_require`` list."""
    tree = ast.parse((ROOT / "setup.py").read_text())
    call = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup"
    )
    requirements: list[str] = []
    for keyword in call.keywords:
        if keyword.arg == "install_requires":
            requirements += ast.literal_eval(keyword.value)
        elif keyword.arg == "extras_require":
            for extra in ast.literal_eval(keyword.value).values():
                requirements += extra
    return {
        re.split(r"[\s\[<>=!~;]", requirement, maxsplit=1)[0].lower().replace("-", "_")
        for requirement in requirements
    }


def test_every_import_is_stdlib_repro_or_declared():
    declared = declared_packages()
    assert len(SOURCES) > 50 and "textual" in declared  # the extras were parsed
    allowed = set(sys.stdlib_module_names) | {"repro"} | declared
    undeclared = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in SOURCES
        for name in imported_packages(path)
        if name not in allowed
    }
    assert not undeclared, sorted(undeclared)


def test_the_runtime_needs_no_third_party_package():
    """Only the console's optional TUI imports a package outside the stdlib."""
    assert declared_packages() == {"textual"}
    outside = {
        str(path.relative_to(ROOT / "src"))
        for path in SOURCES
        if imported_packages(path) - set(sys.stdlib_module_names) - {"repro"}
    }
    assert outside and all(path.startswith("repro/console/") for path in outside), outside


def test_every_declared_package_is_imported():
    imported = set().union(*(imported_packages(path) for path in SOURCES))
    unused = declared_packages() - imported
    assert not unused, sorted(unused)
