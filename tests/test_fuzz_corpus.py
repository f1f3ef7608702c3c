"""Regression fixtures in ``tests/fuzz_corpus/``: minimal MiniC programs
that once broke the specialization contract.

Each fixture's leading ``//`` comments say what went wrong and how to
run it: ``// call: f(a, b, ...)`` lines are calls made in turn on one
machine, and ``// without: name, ...`` names optimizations whose
ablation the fixture needs (it also runs under ``ALL_ON``).  Every call
must return what the statically compiled program and the unoptimized
program (annotations stripped) return, on every backend, compared by
``repr``.
"""

import ast
import pathlib
import re

import pytest

from repro.config import ALL_ON
from repro.dyc import compile_annotated, compile_static
from repro.dyc.compiler import DycCompiler
from repro.frontend import compile_source
from repro.machine import BACKENDS, Machine

CORPUS = pathlib.Path(__file__).parent / "fuzz_corpus"
FIXTURES = sorted(CORPUS.glob("*.minic"))

_CALL = re.compile(r"^//\s*call:\s*(\w+)\((.*)\)\s*$")
_WITHOUT = re.compile(r"^//\s*without:\s*(.*)$")


def _directives(source: str) -> tuple[list, list]:
    calls, ablations = [], []
    for line in source.splitlines():
        line = line.strip()
        if (match := _CALL.match(line)) is not None:
            args = ast.literal_eval(f"({match.group(2)},)")
            calls.append((match.group(1), args))
        elif (match := _WITHOUT.match(line)) is not None:
            ablations += [name.strip() for name in match.group(1).split(",")]
    return calls, ablations


def _results(module, calls, backend: str) -> list:
    machine = Machine(module, backend=backend)
    return [repr(machine.run(name, *args)) for name, args in calls]


def test_the_corpus_is_not_empty():
    assert FIXTURES


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: path.stem)
def test_fixture_matches_the_static_program(path, backend):
    source = path.read_text()
    calls, ablations = _directives(source)
    assert calls, f"{path.name} names no call"
    module = compile_source(source)
    unoptimized = module.copy()
    for function in unoptimized.functions.values():
        DycCompiler._strip_annotations(function)
    expected = _results(compile_static(module), calls, backend)
    assert _results(unoptimized, calls, "reference") == expected
    for config in (ALL_ON, ALL_ON.without(*ablations)):
        machine, _ = compile_annotated(module, config).make_machine(
            backend=backend)
        assert [repr(machine.run(name, *args))
                for name, args in calls] == expected, config
