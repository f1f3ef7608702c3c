"""Every definition under ``src/repro`` is named somewhere else.

A top-level function or class, or a non-dunder method of a top-level
class, whose name appears as a whole word nowhere in the project's
Python files but at its own definition has no caller, no test and no
documentation reference: nothing runs it, so it should be deleted
rather than kept.  Names reached only through a dunder protocol
(``__eq__``, ``__getstate__``) are exempt.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "tests", "benchmarks", "examples", "perfbench")
WORD = re.compile(r"\w+")


def _word_counts() -> collections.Counter:
    counts: collections.Counter = collections.Counter()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            counts.update(WORD.findall(path.read_text(encoding="utf-8")))
    return counts


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """``(qualified name, name)`` of each top-level function or class
    and each non-dunder method of a top-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) \
                        and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name


def unnamed_definitions() -> list[str]:
    counts = _word_counts()
    unnamed = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, name in definitions(tree):
            # One occurrence is the definition itself.
            if counts[name] <= 1:
                unnamed.append(
                    f"{path.relative_to(ROOT).as_posix()}::{qualified}")
    return unnamed


def test_every_definition_is_named_elsewhere():
    unnamed = unnamed_definitions()
    assert not unnamed, "named nowhere else:\n" + "\n".join(unnamed)


def test_the_scan_sees_functions_classes_and_methods():
    tree = ast.parse(
        "def f(): pass\n"
        "class C:\n"
        "    def m(self): pass\n"
        "    def __repr__(self): return ''\n"
        "    class Inner: pass\n"
        "x = 1\n")
    assert list(definitions(tree)) == [("f", "f"), ("C", "C"),
                                       ("C.m", "m")]
