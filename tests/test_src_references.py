"""Every function and class defined in `src/frmdn/` must be used by the
program: referenced, outside its own body, from `src/frmdn/` or
`perfbench/`.  Code that only tests call belongs in a test helper.

A reference is a name, an attribute name or an imported name.  In
`perfbench/`, a whole string literal counts as well, because its tracer
patches functions by attribute name.  Docstrings and comments in `src/`
do not count, so a mention in prose keeps nothing alive.  Matching is by
name alone, so a definition that shares its name with a used one passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# `main` is the console entry point that pyproject.toml names
ALLOWED = {"main"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree, strings):
    """(name, line) of every reference in the parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            yield node.value, node.lineno


def unreferenced(sources, others):
    """'file:line name' of each definition in `sources` that no reference
    outside its own body uses; `sources` and `others` map a file label to
    its text, and only the string literals of `others` count."""
    trees = {label: ast.parse(text, label) for label, text in sources.items()}
    used = {}
    for label, tree in trees.items():
        for name, line in _references(tree, strings=False):
            used.setdefault(name, []).append((label, line))
    for label, text in others.items():
        for name, line in _references(ast.parse(text, label), strings=True):
            used.setdefault(name, []).append((label, line))
    found = []
    for label, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if name in ALLOWED or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(where != label
                       or not node.lineno <= line <= node.end_lineno
                       for where, line in used.get(name, ())):
                found.append(f"{label}:{node.lineno} {name}")
    return found


def _texts(directory):
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
            for p in sorted((ROOT / directory).glob("*.py"))}


def test_every_src_definition_is_used_by_the_program():
    found = unreferenced(_texts("src/frmdn"), _texts("perfbench"))
    assert not found, ("defined in src/ but used by nothing outside its "
                       "own body in src/ or perfbench/ (move test-only "
                       "code to a helper under tests/): " + ", ".join(found))


def test_scan_sees_through_recursion_prose_and_src_strings():
    src = '''
def used():
    """Calls orphan() in prose only."""
    return helper()

def helper():
    return HOOKS

def orphan():
    return 0

def recursive(n):
    return recursive(n - 1) if n else 0

def quoted():
    return 1

def patched():
    return 2

HOOKS = ["quoted"]  # a string in src/ keeps nothing alive

class Box:
    def __init__(self):
        self.x = 0

    def method(self):
        return self.method
'''
    bench = 'import m\nTARGETS = [(m, "patched")]\nm.used()\n'
    found = unreferenced({"m.py": src}, {"bench.py": bench})
    assert sorted(f.split()[1] for f in found) == [
        "Box", "method", "orphan", "quoted", "recursive"]
    assert "m.py:15 quoted" in found
