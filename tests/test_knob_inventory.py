"""Every ``REPRO_*`` environment variable is listed in the README.

The README's "Environment variables" table is the one inventory of the
package's settings.  The names come from the string literals under
``src/repro`` that are exactly a ``REPRO_*`` name, so adding or
removing a variable without updating the table fails here.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"REPRO_[A-Z_]+")


def source_names() -> set[str]:
    names = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and NAME.fullmatch(node.value):
                names.add(node.value)
    return names


def readme_names() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.partition("### Environment variables")[2]
    section = re.split(r"\n#{2,3} ", section, maxsplit=1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.M))


def test_readme_table_lists_every_variable():
    assert readme_names() == source_names()
