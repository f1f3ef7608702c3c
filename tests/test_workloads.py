"""Integration tests for the ten benchmark workloads.

Each workload must (a) compile through the whole pipeline, (b) produce
*identical output* statically and dynamically compiled (the runner
verifies checksums), and (c) exercise the optimizations the paper's
Table 2 attributes to it.
"""

import pytest

from repro.config import ALL_ON
from repro.dyc import compile_static
from repro.dyc.compiler import DycCompiler
from repro.evalharness.runner import run_workload
from repro.frontend import compile_source
from repro.ir import Memory
from repro.machine import Machine
from repro.workloads import (
    ALL_WORKLOADS,
    WORKLOADS_BY_NAME,
    get_workload,
    make_dotproduct,
    make_m88ksim,
)


@pytest.fixture(scope="module")
def results():
    return {w.name: run_workload(w) for w in ALL_WORKLOADS}


class TestUnoptimizedOracle:
    """The static optimizer is the identity: each workload's program
    with its annotations stripped computes the same return value and
    output checksum unoptimized as through :func:`compile_static`."""

    @staticmethod
    def _outcome(workload, module):
        memory = Memory()
        inputs = workload.setup(memory)
        machine = Machine(module, memory=memory, backend="threaded")
        value = machine.run(workload.entry, *inputs.args)
        checksum = (None if inputs.checksum is None
                    else inputs.checksum(memory, machine))
        return repr(value), checksum

    @pytest.mark.parametrize("workload", ALL_WORKLOADS,
                             ids=[w.name for w in ALL_WORKLOADS])
    def test_static_compile_matches_unoptimized(self, workload):
        module = compile_source(workload.source)
        static = compile_static(module)
        for function in module.functions.values():
            DycCompiler._strip_annotations(function)
        assert self._outcome(workload, static) \
            == self._outcome(workload, module)


class TestRegistry:
    def test_ten_workloads(self):
        assert len(ALL_WORKLOADS) == 10
        assert len(WORKLOADS_BY_NAME) == 10

    def test_get_workload(self):
        assert get_workload("dinero").name == "dinero"
        with pytest.raises(KeyError, match="known"):
            get_workload("nope")

    def test_factories(self):
        assert make_m88ksim(5).name == "m88ksim-5bp"
        assert make_dotproduct(0.5).name == "dotproduct-50z"
        assert make_dotproduct(0.9).name == "dotproduct"


class TestCorrectness:
    @pytest.mark.parametrize(
        "name", [w.name for w in ALL_WORKLOADS]
    )
    def test_outputs_verified(self, results, name):
        assert results[name].outputs_match

    @pytest.mark.parametrize(
        "name", [w.name for w in ALL_WORKLOADS]
    )
    def test_every_region_entered(self, results, name):
        result = results[name]
        for fn in result.workload.region_functions:
            assert result.region_entries.get(fn, 0) > 0, fn

    def test_mipsi_actually_sorts(self):
        result = run_workload(get_workload("mipsi"))
        # The checksum covers the sorted array; verified against static.
        assert result.outputs_match

    def test_dinero_hits_reasonable(self, results):
        static_hits, dynamic_hits = results["dinero"].return_values
        assert static_hits == dynamic_hits
        # With 80% sequential locality and 32B blocks, hit rate is high.
        from repro.workloads.dinero import TRACE_LENGTH
        assert 0.3 < static_hits / TRACE_LENGTH < 0.99


class TestTable2Attribution:
    def test_dinero(self, results):
        [stats] = list(results["dinero"].region_stats.values())
        assert stats.unrolling == "SW"
        assert stats.used_static_loads and stats.used_sr
        assert stats.used_unchecked_dispatch
        assert not stats.used_internal_promotions

    def test_mipsi(self, results):
        [stats] = list(results["mipsi"].region_stats.values())
        assert stats.unrolling == "MW"
        assert stats.used_static_loads
        assert stats.used_static_calls
        assert stats.used_internal_promotions

    def test_pnmconvol(self, results):
        [stats] = list(results["pnmconvol"].region_stats.values())
        assert stats.unrolling == "SW"
        assert stats.used_zcp and stats.used_dae
        # The 83%-zero matrix folds most iterations away entirely.
        assert stats.zcp_zero_hits >= 80
        assert stats.dae_removed >= 80

    def test_viewperf_two_regions(self, results):
        result = results["viewperf"]
        assert len(result.region_stats) == 2
        shade_stats = result.stats_for_function("shade")[0]
        assert shade_stats.used_polyvariant_division
        assert shade_stats.divisions_used >= 2

    def test_binary_is_multiway(self, results):
        [stats] = list(results["binary"].region_stats.values())
        assert stats.unrolling == "MW"

    def test_chebyshev_static_calls(self, results):
        [stats] = list(results["chebyshev"].region_stats.values())
        # cos at the nodes and weights: n*(n-1) + n calls per version.
        assert stats.static_calls_folded >= 100

    def test_kernels_no_internal_promotions(self, results):
        for name in ("binary", "chebyshev", "dotproduct", "query",
                     "romberg"):
            [stats] = list(results[name].region_stats.values())
            assert not stats.used_internal_promotions, name


class TestScaling:
    def test_m88ksim_breakpoint_scaling(self):
        none = run_workload(make_m88ksim(0))
        five = run_workload(make_m88ksim(5))
        gen0 = none.region_stats[0].instructions_generated
        gen5 = five.region_stats[0].instructions_generated
        assert gen5 > gen0

    def test_dotproduct_density_scaling(self):
        sparse = run_workload(make_dotproduct(0.9))
        dense = run_workload(make_dotproduct(0.0))
        s_sparse = sparse.region_metrics()[0].asymptotic_speedup
        s_dense = dense.region_metrics()[0].asymptotic_speedup
        assert s_sparse > s_dense

    def test_determinism(self):
        a = run_workload(get_workload("query"))
        b = run_workload(get_workload("query"))
        assert a.static_total_cycles == b.static_total_cycles
        assert a.dynamic_total_cycles == b.dynamic_total_cycles
        assert a.dc_cycles == b.dc_cycles


class TestAblationSafety:
    """Every applicable single ablation still computes correct output
    for every workload (the runner raises on divergence)."""

    @pytest.mark.parametrize("name,ablation", [
        ("dinero", "strength_reduction"),
        ("dinero", "complete_loop_unrolling"),
        ("m88ksim", "unchecked_dispatching"),
        ("m88ksim", "static_loads"),
        ("mipsi", "internal_promotions"),
        ("mipsi", "unchecked_dispatching"),
        ("pnmconvol", "dead_assignment_elimination"),
        ("pnmconvol", "zero_copy_propagation"),
        ("viewperf", "polyvariant_division"),
        ("viewperf", "zero_copy_propagation"),
        ("binary", "unchecked_dispatching"),
        ("chebyshev", "static_calls"),
        ("dotproduct", "static_loads"),
        ("query", "complete_loop_unrolling"),
        ("romberg", "strength_reduction"),
    ])
    def test_ablation_preserves_output(self, name, ablation):
        result = run_workload(get_workload(name),
                              ALL_ON.without(ablation))
        assert result.outputs_match
