"""Every top-level function of ``src/kemod`` has a caller, and every module
of it is imported.

A function counts as called when code in ``src/kemod`` outside its own body
names it, when ``kemod/__init__.py`` exports it, when the command line
reaches it (the console script in ``pyproject.toml``), or when the
benchmark's tracer wraps it (``LAYERS`` in ``bench/tracer.py``, read here
with ``ast``, not imported).  Code that only the tests read belongs in the
tests, as ``tests/oracles.py`` and ``tests/symbolic.py`` do.  Names are
matched without their module, so a dead function that shares its name with
a live one elsewhere goes unseen.  A module counts as imported when another
module of the package imports it (by a relative import, as the package
does) or when it holds the console script.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kemod"


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _traced():
    """The (module, function) pairs that ``bench/tracer.py`` names in LAYERS."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return {tuple(key.value.split(".")) for key in node.value.keys}
    raise AssertionError("bench/tracer.py has no LAYERS")


def _uncalled():
    entry = re.findall(r'"kemod\.(\w+):(\w+)"', (ROOT / "pyproject.toml").read_text())
    reached = set(entry) | _traced()
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((path.stem, node.name))
                used.update(n for n in _names(node) if n != node.name)
            elif path.stem == "__init__" and isinstance(node, ast.ImportFrom):
                used.update(alias.asname or alias.name for alias in node.names)
            else:
                used.update(_names(node))
    return [fn for fn in defined if fn[1] not in used and fn not in reached]


def test_every_top_level_function_has_a_caller():
    assert _uncalled() == []


def _unimported():
    entry = {mod for mod, _ in re.findall(r'"kemod\.(\w+):(\w+)"', (ROOT / "pyproject.toml").read_text())}
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
                imported |= names - {path.stem}
    return sorted({path.stem for path in SRC.glob("*.py")} - {"__init__"} - imported - entry)


def test_every_module_is_imported():
    assert _unimported() == []
