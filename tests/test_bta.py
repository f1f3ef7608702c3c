"""Tests for the binding-time analysis."""

import pytest

from repro.bta import (
    analyze_function,
    collect_annotations,
    split_at_annotations,
)
from repro.bta.facts import InstrClass
from repro.config import ALL_ON, OptConfig
from repro.errors import BTAError
from repro.frontend import compile_source
from repro.ir import MakeStatic


def analyze(source: str, func: str = "f", config: OptConfig = ALL_ON):
    module = compile_source(source)
    function = module.function(func)
    regions = analyze_function(function, config, module=module)
    return function, regions


def classes_of(region, label):
    """Classifications for a block's single context (any division)."""
    for (block, _division), facts in region.contexts.items():
        if block == label:
            return facts.classes
    raise AssertionError(f"no context for block {label}")


class TestSplitting:
    def test_mid_block_annotation_moved_to_block_start(self):
        module = compile_source(
            "func f(x) { var y = x + 1; make_static(x); return x + y; }"
        )
        function = module.function("f")
        split_at_annotations(function)
        sites = collect_annotations(function)
        assert len(sites) == 1
        block = function.blocks[sites[0].block]
        assert isinstance(block.instrs[0], MakeStatic)

    def test_block_initial_annotation_untouched(self):
        module = compile_source(
            "func f(x) { make_static(x); return x; }"
        )
        function = module.function("f")
        count_before = len(function.blocks)
        split_at_annotations(function)
        assert len(function.blocks) == count_before


class TestBasicClassification:
    def test_derived_static_computation(self):
        src = "func f(x, n) { make_static(n); var y = n * 2; return x + y; }"
        function, regions = analyze(src)
        assert len(regions) == 1
        region = regions[0]
        assert region.entry_keys == ("n",)
        classes = classes_of(region, region.entry_block)
        assert classes[0] is InstrClass.ANNOTATION
        assert InstrClass.STATIC in classes       # y = n * 2
        assert InstrClass.DYNAMIC in classes      # x + y, return

    def test_no_annotations_no_regions(self):
        _, regions = analyze("func f(x) { return x; }")
        assert regions == []

    def test_constant_is_static(self):
        src = "func f(x, n) { make_static(n); var k = 7; return x + k * n; }"
        _, regions = analyze(src)
        classes = classes_of(regions[0], regions[0].entry_block)
        # k = 7 is a derived static (constant), k * n static as well.
        assert classes.count(InstrClass.STATIC) >= 2

    def test_dynamic_operand_makes_dynamic(self):
        src = "func f(x, n) { make_static(n); return x * n; }"
        _, regions = analyze(src)
        classes = classes_of(regions[0], regions[0].entry_block)
        assert InstrClass.DYNAMIC in classes

    def test_make_dynamic_demotes(self):
        src = """
        func f(x, n) {
            make_static(n);
            var a = n + 1;
            make_dynamic(n);
            var b = n + 2;
            return a + b + x;
        }
        """
        _, regions = analyze(src)
        region = regions[0]
        classes = classes_of(region, region.entry_block)
        statics = [
            i for i, c in enumerate(classes) if c is InstrClass.STATIC
        ]
        dynamics = [
            i for i, c in enumerate(classes) if c is InstrClass.DYNAMIC
        ]
        assert statics and dynamics
        assert min(statics) < min(dynamics)


class TestStaticLoadsAndCalls:
    SRC_LOAD = """
    func f(p, x) {
        make_static(p);
        var w = p@[2];
        return x * w;
    }
    """

    def test_static_load_classified(self):
        _, regions = analyze(self.SRC_LOAD)
        classes = classes_of(regions[0], regions[0].entry_block)
        assert InstrClass.STATIC_LOAD in classes

    def test_static_loads_ablation(self):
        _, regions = analyze(
            self.SRC_LOAD, config=ALL_ON.without("static_loads")
        )
        classes = classes_of(regions[0], regions[0].entry_block)
        assert InstrClass.STATIC_LOAD not in classes

    def test_unannotated_load_is_dynamic(self):
        src = """
        func f(p, x) {
            make_static(p);
            var w = p[2];
            return x * w;
        }
        """
        _, regions = analyze(src)
        classes = classes_of(regions[0], regions[0].entry_block)
        assert InstrClass.STATIC_LOAD not in classes

    SRC_CALL = """
    func f(n, x) {
        make_static(n);
        var c = cos(n * 1.0);
        return x * c;
    }
    """

    def test_static_call_classified(self):
        _, regions = analyze(self.SRC_CALL)
        classes = classes_of(regions[0], regions[0].entry_block)
        assert InstrClass.STATIC_CALL in classes

    def test_static_calls_ablation(self):
        _, regions = analyze(
            self.SRC_CALL, config=ALL_ON.without("static_calls")
        )
        classes = classes_of(regions[0], regions[0].entry_block)
        assert InstrClass.STATIC_CALL not in classes

    def test_call_with_dynamic_arg_is_dynamic(self):
        src = "func f(n, x) { make_static(n); return cos(x); }"
        _, regions = analyze(src)
        classes = classes_of(regions[0], regions[0].entry_block)
        assert InstrClass.STATIC_CALL not in classes


class TestLoopsAndUnrolling:
    SRC_LOOP = """
    func f(n, x) {
        make_static(n, i, s);
        var s = 0;
        for (i = 0; i < n; i = i + 1) { s = s + i; }
        return x + s;
    }
    """

    def test_static_loop_fully_static(self):
        function, regions = analyze(self.SRC_LOOP)
        region = regions[0]
        # The loop-head branch tests a static condition in some context.
        found_static_branch = any(
            InstrClass.STATIC_BRANCH in facts.classes
            for facts in region.contexts.values()
        )
        assert found_static_branch

    def test_unrolling_ablation_demotes_induction_vars(self):
        _, regions = analyze(
            self.SRC_LOOP, config=ALL_ON.without("complete_loop_unrolling")
        )
        region = regions[0]
        # With unrolling disabled, the loop head must test a dynamic
        # condition (i is loop-variant, hence demoted).
        for (label, _), facts in region.contexts.items():
            assert InstrClass.STATIC_BRANCH not in facts.classes

    def test_loop_invariant_stays_static_without_unrolling(self):
        src = """
        func f(n, arr, len) {
            make_static(n);
            var s = 0;
            var i = 0;
            while (i < len) { s = s + arr[i] * n; i = i + 1; }
            return s;
        }
        """
        _, regions = analyze(
            src, config=ALL_ON.without("complete_loop_unrolling")
        )
        region = regions[0]
        # n is never assigned in the loop, so it remains static everywhere.
        assert all(
            "n" in facts.static_in or label == region.entry_block
            for (label, _), facts in region.contexts.items()
        )


class TestPromotions:
    def test_entry_promotion_recorded(self):
        src = "func f(x, n) { make_static(n); return x * n; }"
        _, regions = analyze(src)
        region = regions[0]
        kinds = [p.kind for p in region.promotions.values()]
        assert "entry" in kinds

    def test_assignment_promotion(self):
        src = """
        func f(x, n) {
            make_static(n);
            var a = x + 1;
            n = a;
            return x * n;
        }
        """
        _, regions = analyze(src)
        region = regions[0]
        kinds = {p.kind for p in region.promotions.values()}
        assert "assignment" in kinds

    def test_assignment_demotes_without_internal_promotions(self):
        src = """
        func f(x, n) {
            make_static(n);
            var a = x + 1;
            n = a;
            return x * n;
        }
        """
        _, regions = analyze(
            src, config=ALL_ON.without("internal_promotions")
        )
        region = regions[0]
        kinds = {p.kind for p in region.promotions.values()}
        assert "assignment" not in kinds

    def test_policy_recorded(self):
        src = """
        func f(x, n) {
            make_static(n) : cache_one_unchecked;
            return x * n;
        }
        """
        _, regions = analyze(src)
        region = regions[0]
        assert region.entry_policy == "cache_one_unchecked"
        assert region.policies["n"] == "cache_one_unchecked"


class TestPolyvariantDivision:
    SRC = """
    func f(x, n, v) {
        make_static(n);
        if (x > 0) {
            make_static(v);
        }
        var r = v * n;
        return r + x;
    }
    """

    def test_division_split_at_join(self):
        _, regions = analyze(self.SRC)
        region = regions[0]
        # The join block (v*3) is analyzed under two divisions.
        assert region.division_count >= 2

    def test_division_merge_when_disabled(self):
        _, regions = analyze(
            self.SRC, config=ALL_ON.without("polyvariant_division")
        )
        region = regions[0]
        labels = [label for (label, _) in region.contexts]
        assert len(labels) == len(set(labels))  # one context per block


class TestRegionExtent:
    def test_region_ends_after_last_static_use(self):
        src = """
        func f(x, n) {
            make_static(n);
            var y = n * x;
            var z = y + 1;
            var w = z * 2;
            return w;
        }
        """
        function, regions = analyze(src)
        region = regions[0]
        # Blocks after the last use of n are not region members; the exit
        # edge leaves the region.
        assert region.blocks  # non-empty

    def test_multiple_regions_in_one_function(self):
        src = """
        func f(a, b, x) {
            make_static(a);
            var r1 = a * x;
            x = r1 + x;
            make_dynamic(a);
            make_static(b);
            var r2 = b * x;
            return r2;
        }
        """
        function, regions = analyze(src)
        assert len(regions) >= 1  # at least the first region
        # All regions have distinct entries.
        entries = [r.entry_block for r in regions]
        assert len(entries) == len(set(entries))

    def test_region_template_snapshot_attached(self):
        src = "func f(x, n) { make_static(n); return x * n; }"
        function, regions = analyze(src)
        assert regions[0].template is not None
        assert regions[0].entry_block in regions[0].template.blocks
