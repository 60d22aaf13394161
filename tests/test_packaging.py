"""The runtime needs no third-party package: ``setup.py`` declares none, and
no module under ``src/`` imports one.

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


def setup_keywords() -> dict[str, ast.expr]:
    """The keyword arguments of the ``setup()`` call in ``setup.py``."""
    tree = ast.parse((ROOT / "setup.py").read_text())
    call = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup"
    )
    return {keyword.arg: keyword.value for keyword in call.keywords}


def declared_packages() -> set[str]:
    """Names in ``install_requires``."""
    requirements = ast.literal_eval(setup_keywords()["install_requires"])
    return {
        re.split(r"[\s\[<>=!~;]", requirement, maxsplit=1)[0].lower().replace("-", "_")
        for requirement in requirements
    }


def test_every_import_is_stdlib_repro_or_declared():
    assert len(SOURCES) > 50
    assert {"name", "packages", "install_requires"} <= set(setup_keywords())  # parsed
    allowed = set(sys.stdlib_module_names) | {"repro"}
    outside = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in SOURCES
        for name in imported_packages(path)
        if name not in allowed
    }
    assert not outside, sorted(outside)


def test_the_runtime_needs_no_third_party_package():
    """No runtime dependency and no optional extra."""
    assert "extras_require" not in setup_keywords()
    assert declared_packages() == set()


def test_every_declared_package_is_imported():
    imported = set().union(*(imported_packages(path) for path in SOURCES))
    unused = declared_packages() - imported
    assert not unused, sorted(unused)
