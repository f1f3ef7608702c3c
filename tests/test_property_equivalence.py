"""Property-based end-to-end equivalence testing.

The fundamental correctness property of the whole system: for *any*
annotated program, the dynamically compiled version computes exactly
what the statically compiled version computes, under every optimization
configuration.  The second invariant rides along: every counted backend
(reference, threaded, pycodegen counted) leaves byte-identical
``ExecutionStats`` for the same program and inputs.

Hypothesis generates random MiniC programs from a small grammar of
expressions, ``>``/``<``/``==`` conditionals, calls to a second module
function of 0-3 parameters, and static-bounded loops over a mix of
annotated-static and dynamic variables, in a region that caches all
versions or one unchecked version, then runs both versions on every
backend.  Each dynamic machine runs ``f`` twice with the same keys, so
an unchecked region's second entry is a hit on its bound dispatch.  CI
reruns this file with ``--hypothesis-seed=0``, so a backend divergence
reproduces from the log.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.config import ALL_OFF, ALL_ON
from repro.dyc import compile_annotated, compile_static
from repro.frontend import compile_source
from repro.ir import Memory
from repro.machine import BACKENDS, Machine

# ----------------------------------------------------------------------
# Random program generation
# ----------------------------------------------------------------------

#: Variables: s1, s2 are annotated static; d1, d2 are dynamic params.
STATIC_VARS = ("s1", "s2")
DYNAMIC_VARS = ("d1", "d2")
ALL_VARS = STATIC_VARS + DYNAMIC_VARS

_atoms = st.sampled_from(
    [str(n) for n in (0, 1, 2, 3, 7)] + list(ALL_VARS)
    + ["arr[(d1) & 7]", "arr[(s1) & 7]",
       "sarr@[(s1) & 7]", "sarr@[(li1) & 7]"]
)

_binops = st.sampled_from(["+", "-", "*"])

#: Parameters of the second module function ``g``; each program draws
#: its arity (0-3) once.
G_PARAMS = ("p0", "p1", "p2")


@st.composite
def expressions(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(_atoms)
    op = draw(_binops)
    lhs = draw(expressions(depth=depth - 1))
    rhs = draw(expressions(depth=depth - 1))
    return f"({lhs} {op} {rhs})"


@st.composite
def conditions(draw, operand):
    """A branch condition: ``a > 0``, ``a < b`` or ``a == b``."""
    lhs = draw(operand)
    op = draw(st.sampled_from([">", "<", "=="]))
    rhs = "0" if op == ">" else draw(operand)
    return f"{lhs} {op} {rhs}"


@st.composite
def statements(draw, depth=2, arity=0):
    kind = draw(st.sampled_from(
        ["assign", "assign", "assign", "store", "call", "if", "loop"]
        if depth > 0 else ["assign", "store", "call"]
    ))
    if kind == "assign":
        target = draw(st.sampled_from(ALL_VARS))
        value = draw(expressions())
        return f"{target} = {value};"
    if kind == "store":
        index = draw(expressions(depth=1))
        value = draw(expressions(depth=1))
        return f"arr[({index}) & 7] = {value};"
    if kind == "call":
        target = draw(st.sampled_from(ALL_VARS))
        args = [draw(expressions(depth=1)) for _ in range(arity)]
        return f"{target} = g({', '.join(args)});"
    if kind == "if":
        cond = draw(conditions(expressions(depth=1)))
        then_body = draw(statements(depth=depth - 1, arity=arity))
        else_body = draw(statements(depth=depth - 1, arity=arity))
        return (f"if ({cond}) {{ {then_body} }} "
                f"else {{ {else_body} }}")
    # Loop with a static bound: this is what unrolls.  Each nesting
    # depth gets its own index variable so nested loops terminate.
    var = f"li{depth}"
    bound = draw(st.integers(min_value=0, max_value=4))
    body = draw(statements(depth=depth - 1, arity=arity))
    return (f"for ({var} = 0; {var} < {bound}; {var} = {var} + 1) "
            f"{{ {body} }}")


@st.composite
def callee_bodies(draw, params):
    """The body of ``g``: an expression of its parameters, returned
    from one of two arms."""
    atoms = st.sampled_from(["0", "1", "3"] + list(params))

    def expression():
        return f"({draw(atoms)} {draw(_binops)} {draw(atoms)})"

    cond = draw(conditions(atoms))
    return (f"if ({cond}) {{ return {expression()}; }} "
            f"return {expression()};")


#: Region policies a program's ``make_static`` draws from: the default
#: ``cache_all`` and ``cache_one_unchecked``, whose second entry with
#: the same key takes the threaded and codegen backends' bound hit path.
POLICIES = ("cache_all", "cache_one_unchecked")


@st.composite
def programs(draw, policies=POLICIES):
    policy = draw(st.sampled_from(policies))
    arity = draw(st.integers(min_value=0, max_value=3))
    params = G_PARAMS[:arity]
    callee = draw(callee_bodies(params))
    body = " ".join(draw(
        st.lists(statements(arity=arity), min_size=1, max_size=5)
    ))
    return f"""
    func g({", ".join(params)}) {{
        {callee}
    }}

    func f(s1, s2, d1, d2, arr, sarr) {{
        make_static(s1, s2, li1, li2, sarr) : {policy};
        var li1 = 0;
        var li2 = 0;
        {body}
        return s1 + s2 + d1 + d2 + arr[(d2) & 7];
    }}
    """


ARR_INIT = [4, 0, 1, 9, 0, 2, 7, 3]
SARR_INIT = [0, 1, 0, 2, 1, 0, 3, 0]


def _fresh_memory():
    memory = Memory()
    arr = memory.alloc_array(ARR_INIT)
    sarr = memory.alloc_array(SARR_INIT)
    return memory, arr, sarr


def _stats(machine) -> dict:
    return dataclasses.asdict(machine.stats.snapshot())


def _run_on(backend: str, static_module, compiled, args):
    """Static and dynamic runs of ``f``, twice each, on ``backend``;
    returns the results and both machines' stats."""
    mem_s, arr_s, sarr_s = _fresh_memory()
    static_machine = Machine(static_module, memory=mem_s,
                             step_limit=500_000, backend=backend)
    expected = static_machine.run("f", *args, arr_s, sarr_s)
    expected_arr = mem_s.read_array(arr_s, 8)

    mem_d, arr_d, sarr_d = _fresh_memory()
    machine, _ = compiled.make_machine(memory=mem_d, step_limit=500_000,
                                       backend=backend)
    actual = machine.run("f", *args, arr_d, sarr_d)
    assert mem_d.read_array(arr_d, 8) == expected_arr
    # Run again: cached code must stay consistent (stores may have
    # changed arr, so recompute the baseline on the mutated state).
    expected2 = static_machine.run("f", *args, arr_s, sarr_s)
    again = machine.run("f", *args, arr_d, sarr_d)
    assert mem_d.read_array(arr_d, 8) == mem_s.read_array(arr_s, 8)
    return ((expected, expected2), (actual, again),
            _stats(static_machine), _stats(machine))


def run_both(source: str, args, config):
    module = compile_source(source)
    static_module = compile_static(module)
    compiled = compile_annotated(module, config)
    runs = {backend: _run_on(backend, static_module, compiled, args)
            for backend in BACKENDS}
    for backend in BACKENDS:
        assert runs[backend] == runs["reference"], backend
    expected, actual, _, _ = runs["reference"]
    return expected, actual


small_ints = st.integers(min_value=-20, max_value=20)


class TestRandomProgramEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(programs(), small_ints, small_ints, small_ints, small_ints)
    def test_all_optimizations(self, source, s1, s2, d1, d2):
        (e1, e2), (a1, a2) = run_both(source, (s1, s2, d1, d2), ALL_ON)
        assert a1 == e1 and a2 == e2

    @settings(max_examples=60, deadline=None)
    @given(programs(), small_ints, small_ints, small_ints, small_ints)
    def test_everything_disabled(self, source, s1, s2, d1, d2):
        (e1, e2), (a1, a2) = run_both(source, (s1, s2, d1, d2), ALL_OFF)
        assert a1 == e1 and a2 == e2

    @settings(max_examples=60, deadline=None)
    @given(
        programs(),
        st.sampled_from([
            "complete_loop_unrolling", "zero_copy_propagation",
            "dead_assignment_elimination", "strength_reduction",
            "internal_promotions", "polyvariant_division",
        ]),
        small_ints, small_ints,
    )
    def test_single_ablations(self, source, ablation, s1, d1):
        (e1, e2), (a1, a2) = run_both(
            source, (s1, 2, d1, 3), ALL_ON.without(ablation)
        )
        assert a1 == e1 and a2 == e2

    @settings(max_examples=40, deadline=None)
    @given(programs(policies=("cache_all",)), small_ints, small_ints)
    def test_respecialization_on_new_keys(self, source, s1, d1):
        # Same compiled program, several different static-key values:
        # every version must agree with the static baseline (a
        # cache_one_unchecked region would reuse stale code by design).
        module = compile_source(source)
        static_module = compile_static(module)
        compiled = compile_annotated(module, ALL_ON)
        stats = {}
        for backend in BACKENDS:
            mem_s, arr_s, sarr_s = _fresh_memory()
            static_machine = Machine(static_module, memory=mem_s,
                                     step_limit=500_000)
            mem_d, arr_d, sarr_d = _fresh_memory()
            machine, _ = compiled.make_machine(memory=mem_d,
                                               step_limit=500_000,
                                               backend=backend)
            for key in (s1, s1 + 1, s1, 0):
                expected = static_machine.run("f", key, 2, d1, 3,
                                              arr_s, sarr_s)
                assert machine.run("f", key, 2, d1, 3,
                                   arr_d, sarr_d) == expected
                assert mem_d.read_array(arr_d, 8) \
                    == mem_s.read_array(arr_s, 8)
            stats[backend] = _stats(machine)
        for backend in BACKENDS:
            assert stats[backend] == stats["reference"], backend
