"""Rules on the package source. An imported name that the module never reads
is dead code (the package's `__init__` only re-exports, so its imports are
left out), and so is a private top-level def or class that no name,
attribute or from-import anywhere in the package refers to. A self-check
must raise, so the package holds no `assert` statement: `python -O` would
drop it."""

import ast
import textwrap
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rainbowsets"


def source_faults(package: Path) -> list[str]:
    """Every break of the rules in the package's top-level modules."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    faults = []
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and node.name not in referenced):
                faults.append(f"{path}:{node.lineno}: private definition {node.name}")
        faults += [f"{path}:{node.lineno}: assert statement"
                   for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if path.name == "__init__.py":
            continue
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in names:
                        faults.append(f"{path}:{node.lineno}: unused import {name}")
    return faults


def test_package_keeps_the_rules():
    assert source_faults(PACKAGE) == []


def test_planted_faults_are_flagged(tmp_path):
    (tmp_path / "__init__.py").write_text("import json\nfrom .mod import used\n")
    (tmp_path / "mod.py").write_text(textwrap.dedent("""\
        from __future__ import annotations

        import json
        import os.path


        def used(x):
            assert x
            return os.path.join(_helper(), "")


        def _helper():
            return ""


        def _orphan():
            return 0
    """))
    mod = tmp_path / "mod.py"
    assert source_faults(tmp_path) == [
        f"{mod}:16: private definition _orphan",
        f"{mod}:8: assert statement",
        f"{mod}:3: unused import json",
    ]
