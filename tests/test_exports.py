import ast
import re
import sys
from pathlib import Path

import artinsplit

PACKAGE = Path(artinsplit.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def test_every_public_name_resolves():
    missing = [name for name in artinsplit.__all__ if not hasattr(artinsplit, name)]
    assert not missing
    assert len(set(artinsplit.__all__)) == len(artinsplit.__all__)


def test_every_public_name_is_used_or_documented():
    # a public name that only tests reach belongs in tests/oracles.py
    used: dict[str, set[str]] = {}
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            used.setdefault(name, set()).add(f"artinsplit.{path.stem}")
    readme = README.read_text(encoding="utf-8")
    unused = [
        name
        for name in artinsplit.__all__
        if not used.get(name, set()) - {getattr(artinsplit, name).__module__}
        and not re.search(rf"\b{name}\b", readme)
    ]
    assert unused == []


def test_the_library_imports_only_the_standard_library():
    # stdlib-only: every absolute import names a standard-library module
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [(path.stem, m) for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
