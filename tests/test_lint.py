"""Tests for the staged-specialization linter: every diagnostic code
fires on its fixture, seed programs stay clean, the CLI exit protocol
holds, and the compiler's lint gate rejects broken modules."""

import json
from pathlib import Path

import pytest

from repro.config import ALL_ON
from repro.dyc.compiler import DycCompiler
from repro.errors import LintError
from repro.frontend import compile_source
from repro.lint import (
    CODES,
    Severity,
    has_errors,
    lint_module,
    lint_source,
    select_codes,
)
from repro.lint.__main__ import main
from repro.lint.extract import embedded_sources

FIXTURES = Path(__file__).parent / "lint_fixtures"
EXAMPLES = Path(__file__).parent.parent / "examples"

#: fixture file -> the diagnostic its bug was written to trigger.
FIXTURE_CODES = {
    "use_before_def.minic": "DYC001",
    "unresolved_call.minic": "DYC003",
    "dead_annotation.minic": "DYC101",
    "unsafe_unchecked.minic": "DYC102",
    "static_load_store.minic": "DYC103",
    "unbounded_unroll.minic": "DYC104",
    "conflicting_policies.minic": "DYC105",
    "runaway_unroll.minic": "DYC106",
}


def lint_fixture(name: str, **kwargs):
    return lint_source((FIXTURES / name).read_text(), **kwargs)


class TestFixturesFire:
    @pytest.mark.parametrize("fixture,code", sorted(FIXTURE_CODES.items()))
    def test_fixture_triggers_its_code(self, fixture, code):
        diags = lint_fixture(fixture)
        assert code in {d.code for d in diags}

    @pytest.mark.parametrize("fixture,code", sorted(FIXTURE_CODES.items()))
    def test_severity_matches_code_range(self, fixture, code):
        for diag in lint_fixture(fixture):
            expected = (Severity.ERROR if diag.code < "DYC100"
                        or diag.code >= "DYC200" else Severity.WARNING)
            assert diag.severity is expected

    def test_parse_error_becomes_dyc000(self):
        diags = lint_source("func broken( {")
        assert [d.code for d in diags] == ["DYC000"]
        assert diags[0].severity is Severity.ERROR

    def test_plan_fault_injection_trips_dyc201(self):
        clean = lint_fixture("plan_fault.minic")
        assert clean == []
        corrupted = lint_fixture("plan_fault.minic", inject_plan_fault=True)
        codes = {d.code for d in corrupted}
        assert "DYC201" in codes
        assert all(d.severity is Severity.ERROR
                   for d in corrupted if d.code == "DYC201")

    def test_diagnostics_carry_locations(self):
        diags = lint_fixture("use_before_def.minic")
        diag = next(d for d in diags if d.code == "DYC001")
        assert diag.function == "partial_sum"
        assert diag.block is not None and diag.index is not None
        assert diag.code in diag.format()


class TestSeedProgramsAreClean:
    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES.glob("*.py")), ids=lambda p: p.name
    )
    def test_examples_lint_clean_strict(self, path):
        sources = embedded_sources(path.read_text())
        assert sources, f"{path.name} has no embedded MiniC"
        for _name, text in sources:
            assert lint_source(text) == []


class TestEngine:
    def test_select_filters_by_prefix(self):
        diags = lint_fixture("conflicting_policies.minic")
        assert {d.code for d in diags} == {"DYC102", "DYC105"}
        only_105 = select_codes(diags, ("DYC105",))
        assert {d.code for d in only_105} == {"DYC105"}
        group = select_codes(diags, ("DYC1",))
        assert group == diags

    def test_has_errors_strict_promotes_warnings(self):
        diags = lint_fixture("dead_annotation.minic")
        assert not has_errors(diags)
        assert has_errors(diags, strict=True)

    def test_lint_module_does_not_mutate_input(self):
        source = (FIXTURES / "unbounded_unroll.minic").read_text()
        module = compile_source(source, verify=False)
        before = {
            name: [label for label in fn.blocks]
            for name, fn in module.functions.items()
        }
        lint_module(module, config=ALL_ON)
        after = {
            name: [label for label in fn.blocks]
            for name, fn in module.functions.items()
        }
        assert before == after  # BTA block splitting ran on a copy

    def test_every_code_documented(self):
        emitted = set()
        for fixture in FIXTURE_CODES:
            emitted |= {d.code for d in lint_fixture(fixture)}
        emitted |= {
            d.code
            for d in lint_fixture("plan_fault.minic", inject_plan_fault=True)
        }
        assert emitted <= set(CODES)


class TestCompilerLintGate:
    def test_gate_rejects_error_diagnostics(self):
        import dataclasses

        source = (FIXTURES / "use_before_def.minic").read_text()
        module = compile_source(source, verify=False)
        compiler = DycCompiler(dataclasses.replace(ALL_ON, lint=True))
        with pytest.raises(LintError) as excinfo:
            compiler.compile(module)
        assert any(d.code == "DYC001" for d in excinfo.value.diagnostics)

    def test_gate_passes_warnings_and_clean_modules(self):
        import dataclasses

        config = dataclasses.replace(ALL_ON, lint=True)
        for fixture in ("dead_annotation.minic", "plan_fault.minic"):
            module = compile_source(
                (FIXTURES / fixture).read_text(), verify=False
            )
            compiled = DycCompiler(config).compile(module)
            assert compiled.module is not module  # still copied

    def test_gate_off_by_default(self):
        source = (FIXTURES / "dead_annotation.minic").read_text()
        module = compile_source(source, verify=False)
        DycCompiler(ALL_ON).compile(module)  # no LintError


class TestCommandLine:
    def test_error_fixture_exits_nonzero(self):
        assert main([str(FIXTURES / "use_before_def.minic")]) == 1

    def test_warning_fixture_exits_zero_unless_strict(self):
        path = str(FIXTURES / "dead_annotation.minic")
        assert main([path]) == 0
        assert main(["--strict", path]) == 1

    def test_clean_fixture_exits_zero_even_strict(self):
        assert main(["--strict", str(FIXTURES / "plan_fault.minic")]) == 0

    def test_inject_plan_fault_flag(self):
        path = str(FIXTURES / "plan_fault.minic")
        assert main(["--inject-plan-fault", path]) == 1

    def test_python_files_with_embedded_minic(self):
        assert main(["--strict", str(EXAMPLES / "quickstart.py")]) == 0

    def test_json_output(self, capsys):
        code = main(["--json", str(FIXTURES / "unresolved_call.minic")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 2
        assert payload["programs_checked"] == 1
        assert payload["wall_time_seconds"] >= 0
        diags = payload["diagnostics"]
        assert diags and diags[0]["code"] == "DYC003"
        assert diags[0]["severity"] == "error"
        assert "end_index" in diags[0]
        assert diags[0]["source"].endswith("unresolved_call.minic")

    def test_select_limits_output(self, capsys):
        path = str(FIXTURES / "conflicting_policies.minic")
        assert main(["--select", "DYC105", "--strict", path]) == 1
        out = capsys.readouterr().out
        assert "DYC105" in out and "DYC102" not in out

    def test_usage_errors(self):
        assert main([]) == 2
        assert main(["--select", "NOPE", "x.minic"]) == 2

    def test_codes_table(self, capsys):
        assert main(["--codes"]) == 0
        out = capsys.readouterr().out
        for code in CODES:
            assert code in out


class TestEmbeddedExtraction:
    def test_finds_toplevel_string_programs(self):
        text = (
            'SOURCE = """\nfunc f(x) { return x; }\n"""\n'
            "OTHER = 42\n"
            'DOC = "no minic here"\n'
        )
        found = embedded_sources(text)
        assert len(found) == 1
        name, body = found[0]
        assert name == "SOURCE"
        assert "func f" in body

    def test_examples_all_have_sources(self):
        for path in sorted(EXAMPLES.glob("*.py")):
            assert embedded_sources(path.read_text()), path.name


class TestCodegenBudget:
    """DYC210: the emitted-source size estimate, armed only when a
    codegen_source_budget is configured."""

    def _config(self, **overrides):
        import dataclasses

        return dataclasses.replace(ALL_ON, **overrides)

    def test_disabled_by_default(self):
        diags = lint_fixture("codegen_budget.minic")
        assert "DYC210" not in {d.code for d in diags}

    def test_unbounded_unroll_blows_budget(self):
        diags = lint_fixture(
            "codegen_budget.minic",
            config=self._config(codegen_source_budget=10_000),
        )
        hits = [d for d in diags if d.code == "DYC210"]
        assert len(hits) == 1
        assert hits[0].severity is Severity.WARNING
        assert hits[0].function == "polysum"
        assert "specialize_budget" in hits[0].message

    def test_bounded_unroll_fits(self):
        diags = lint_fixture(
            "codegen_budget.minic",
            config=self._config(codegen_source_budget=1_000_000,
                                specialize_budget=4),
        )
        assert "DYC210" not in {d.code for d in diags}

    def test_no_unroll_disables_multiplier(self):
        diags = lint_fixture(
            "codegen_budget.minic",
            config=self._config(codegen_source_budget=10_000,
                                complete_loop_unrolling=False),
        )
        assert "DYC210" not in {d.code for d in diags}

    def test_cli_flag_arms_check(self, capsys):
        path = str(FIXTURES / "codegen_budget.minic")
        assert main([path]) == 0
        assert main(["--codegen-budget", "10000", path]) == 0
        out = capsys.readouterr().out
        assert "DYC210" in out
        assert main(["--strict", "--codegen-budget", "10000", path]) == 1
