"""Every ``REPRO_*`` environment variable is declared once and listed in
the README.

``repro.settings.SETTINGS`` is the one table of the package's
environment settings, and the README's "Environment variables" table
documents it: both must list the same names and agree on which ones
enter the run memo key.  Every ``REPRO_*`` string literal under
``src/repro`` must name a declared setting, and no module but
``settings.py`` may read the environment itself.
"""

import ast
import pathlib
import re

from repro.settings import SETTINGS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
NAME = re.compile(r"REPRO_[A-Z_]+")


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def source_names() -> set[str]:
    names = set()
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and NAME.fullmatch(node.value):
                names.add(node.value)
    return names


def readme_rows() -> dict[str, bool]:
    """Variable -> whether its "in `memo_key`" column says yes."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.partition("### Environment variables")[2]
    section = re.split(r"\n#{2,3} ", section, maxsplit=1)[0]
    return {name: keyed.strip().startswith("yes") for name, keyed
            in re.findall(r"^\| `(REPRO_[A-Z_]+)` \|.*\|([^|]*)\|$",
                          section, re.M)}


def _is_os_environ(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "environ" \
        and isinstance(node.value, ast.Name) and node.value.id == "os"


def environment_reads(tree) -> list[int]:
    """Lines that read the environment: ``os.environ.get``,
    ``os.getenv``, ``os.environ[...]`` loads, and importing ``environ``
    or ``getenv`` from ``os``.  Writes and whole copies
    (``dict(os.environ)``) are not reads of one variable."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute):
            func = node.func
            if (func.attr == "get" and _is_os_environ(func.value)) \
                    or (func.attr == "getenv"
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "os"):
                lines.append(node.lineno)
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Load) \
                and _is_os_environ(node.value):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                and {a.name for a in node.names} & {"environ", "getenv"}:
            lines.append(node.lineno)
    return sorted(lines)


def test_readme_table_lists_every_variable():
    assert readme_rows() == {name: setting.keyed
                             for name, setting in SETTINGS.items()}


def test_eight_settings_and_two_keyed():
    assert len(SETTINGS) == 8
    assert [name for name, s in SETTINGS.items() if s.keyed] \
        == ["REPRO_FAULTS", "REPRO_DEGRADE"]


def test_every_literal_names_a_setting():
    assert source_names() <= set(SETTINGS)


def test_only_settings_reads_the_environment():
    reads = {
        str(path.relative_to(ROOT)): lines
        for path, tree in _trees()
        if path.name != "settings.py" or path.parent != SRC
        for lines in [environment_reads(tree)] if lines
    }
    assert reads == {}


def test_the_read_check_sees_each_form():
    source = ("import os\nfrom os import getenv\n"
              "os.environ.get('A')\nos.getenv('B')\nos.environ['C']\n"
              "os.environ['D'] = '1'\ndict(os.environ)\n")
    assert environment_reads(ast.parse(source)) == [2, 3, 4, 5]
