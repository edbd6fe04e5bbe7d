"""Every public name is reached from outside the unit tests.

A name counts as reached when it appears on some line other than its own
definition, an import or an __all__ entry: elsewhere in src/, or in demos/,
bench/, README.md or the acceptance criteria (tests/test_acceptance.py).
"""
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import dgzk

ROOT = Path(__file__).resolve().parents[1]

_BLOCK_START = re.compile(r"^\s*(__all__\s*=\s*\[|from\s+\S+\s+import\s+\()")
_ONE_LINE_IMPORT = re.compile(r"^\s*(from\s+\S+\s+)?import\s")


def _public_names():
    modules = [dgzk, dgzk.estimates] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(dgzk.__path__, "dgzk.")]
    return {name for m in modules for name in getattr(m, "__all__", ())}


def _use_lines():
    """Lines of the reaching sources, without import and __all__ lines."""
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "demos").rglob("*.py"))
    paths += sorted((ROOT / "bench").rglob("*.py"))
    paths += [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    lines = []
    for path in paths:
        in_block = False
        for line in path.read_text(encoding="utf-8").splitlines():
            if in_block or _BLOCK_START.match(line):
                in_block = not (")" in line or "]" in line)
                continue
            if not _ONE_LINE_IMPORT.match(line):
                lines.append(line)
    return lines


def test_public_names_have_a_caller_outside_unit_tests():
    lines = _use_lines()
    unreached = []
    for name in sorted(_public_names()):
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^(def|class)\s+{re.escape(name)}\b|^{re.escape(name)}\s*[:=]")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unreached.append(name)
    assert unreached == []


# modules of the CLI layer, whose names the package does not re-export
NOT_REEXPORTED = {"dgzk.cli", "dgzk.configfile", "dgzk.reporting"}


def test_package_all_is_built_from_its_modules():
    """Each public name is written once, in its module's __all__: every name
    there is importable from the package, and no package __all__ repeats one."""
    for package in (dgzk, dgzk.estimates):
        assert len(package.__all__) == len(set(package.__all__))
        for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
            module = importlib.import_module(info.name)
            if info.ispkg or info.name in NOT_REEXPORTED or not hasattr(module, "__all__"):
                continue
            missing = [name for name in module.__all__ if name not in package.__all__
                       or getattr(package, name) is not getattr(module, name)]
            assert missing == [], info.name


def _module_level_private_names(tree):
    """The _names, dunders aside, that a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_private_helpers_have_a_caller_in_src():
    """Every module-level _name that src/dgzk defines is read somewhere in
    src/: as a name or an attribute, not in an import, a docstring or a
    comment.  A helper that only tests import is dead code."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "dgzk").rglob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(f"{path.relative_to(ROOT)}:{name}" for path, tree in trees.items()
                    for name in _module_level_private_names(tree) - read)
    assert unread == []
