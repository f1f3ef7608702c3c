"""Property-based end-to-end equivalence testing.

The fundamental correctness property of the whole system: for *any*
annotated program, the dynamically compiled version computes exactly
what the statically compiled version computes, under every optimization
configuration.  The second invariant rides along: both counted backends
(reference and threaded) leave byte-identical ``ExecutionStats`` for the
same program and inputs, and uncounted threaded computes the same
results and memory.

Hypothesis generates random MiniC programs from a small grammar of
expressions over every operator (division and modulus by a non-zero
divisor, shifts by small counts, unary ``-`` and ``!``), every
comparison in conditionals, float literals and the ``fabs`` intrinsic in
a float variable's arithmetic and in comparisons, calls to a second
module function of 0-3 parameters, and static-bounded loops over a mix
of annotated-static and dynamic variables, in a region that caches all
versions or one unchecked version, then runs both versions on every
backend.  Each dynamic machine runs ``f`` twice with the same keys, so
an unchecked region's second entry is a hit on its bound dispatch.  An
unchecked region promises, unchecked, that the values it promotes stay
the same from entry to entry; a drawn program whose first run's stores
change a value its second run promotes breaks that promise and reuses
stale code by design, so when the annotation checker
(``check_annotations``) reports the changed key, only its comparison with
the static program is skipped: the backends must still agree.  CI reruns
this file with ``--hypothesis-seed=0``, so a backend divergence
reproduces from the log.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.config import ALL_OFF, ALL_ON
from repro.dyc import compile_annotated, compile_static
from repro.errors import CacheError
from repro.frontend import compile_source
from repro.ir import Memory
from repro.machine import BACKENDS, COUNTED_BACKENDS, Machine

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

#: The int-only operators; a float operand would trap, so float values
#: never reach them.
_bitops = st.sampled_from(["&", "|", "^"])

_float_literals = st.sampled_from(["0.5", "1.5", "-2.25", "3.0"])

#: Parameters of the second module function ``g``; each program draws
#: its arity (0-3) once.
G_PARAMS = ("p0", "p1", "p2")


@st.composite
def expressions(draw, depth=2):
    """An int expression: every operator, with a shift count that is
    small and never negative, and a divisor that is never zero and a
    dividend never negative (strength reduction turns a division by a
    power of two into a shift, which rounds a negative dividend the
    other way, by design)."""
    if depth == 0 or draw(st.booleans()):
        return draw(_atoms)
    lhs = draw(expressions(depth=depth - 1))
    rhs = draw(expressions(depth=depth - 1))
    kind = draw(st.sampled_from(["arith", "arith", "arith", "divide",
                                 "bits", "shift", "unary"]))
    if kind == "divide":
        op = draw(st.sampled_from(["/", "%"]))
        return f"(({lhs}) & 63) {op} ((({rhs}) & 3) + 1)"
    if kind == "bits":
        return f"({lhs} {draw(_bitops)} {rhs})"
    if kind == "shift":
        op = draw(st.sampled_from(["<<", ">>"]))
        return f"({lhs} {op} (({rhs}) & 3))"
    if kind == "unary":
        return f"{draw(st.sampled_from(['-', '!']))}({lhs})"
    return f"({lhs} {draw(_binops)} {rhs})"


@st.composite
def float_expressions(draw, depth=2):
    """A float expression: float literals and the float variable ``fv``
    under ``+ - *``, ``/`` and ``%`` by a float literal, and unary
    ``-``.  No int operand: strength reduction turns a product or
    quotient by an int power of two into a shift, which traps on a
    float."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.one_of(_float_literals, st.just("fv")))
    lhs = draw(float_expressions(depth=depth - 1))
    kind = draw(st.sampled_from(["arith", "arith", "divide", "negate"]))
    if kind == "divide":
        op = draw(st.sampled_from(["/", "%"]))
        return f"({lhs} {op} {draw(_float_literals)})"
    if kind == "negate":
        return f"-({lhs})"
    rhs = draw(float_expressions(depth=depth - 1))
    return f"({lhs} {draw(_binops)} {rhs})"


_comparisons = st.sampled_from([">", "<", "==", "!=", "<=", ">="])


@st.composite
def conditions(draw, operand):
    """A branch condition: a comparison of two operands, or of one
    with 0."""
    lhs = draw(operand)
    op = draw(_comparisons)
    rhs = "0" if draw(st.booleans()) else draw(operand)
    return f"{lhs} {op} {rhs}"


@st.composite
def statements(draw, depth=2, arity=0):
    kind = draw(st.sampled_from(
        ["assign", "assign", "assign", "float", "store", "call", "if",
         "loop"]
        if depth > 0 else ["assign", "float", "store", "call"]
    ))
    if kind == "assign":
        target = draw(st.sampled_from(ALL_VARS))
        value = draw(expressions())
        return f"{target} = {value};"
    if kind == "float":
        value = draw(float_expressions())
        if draw(st.booleans()):
            value = f"fabs({value})"
        return f"fv = {value};"
    if kind == "store":
        index = draw(expressions(depth=1))
        value = draw(expressions(depth=1))
        return f"arr[({index}) & 7] = {value};"
    if kind == "call":
        target = draw(st.sampled_from(ALL_VARS))
        args = [draw(expressions(depth=1)) for _ in range(arity)]
        return f"{target} = g({', '.join(args)});"
    if kind == "if":
        operand = (float_expressions(depth=1) if draw(st.booleans())
                   else expressions(depth=1))
        cond = draw(conditions(operand))
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
        var fv = 0.25;
        {body}
        return s1 + s2 + d1 + d2 + arr[(d2) & 7] + fv;
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
    returns the static and the dynamic results, each with ``arr`` after
    it, and both machines' stats."""
    mem_s, arr_s, sarr_s = _fresh_memory()
    static_machine = Machine(static_module, memory=mem_s,
                             step_limit=500_000, backend=backend)
    expected = static_machine.run("f", *args, arr_s, sarr_s)
    expected_arr = mem_s.read_array(arr_s, 8)

    mem_d, arr_d, sarr_d = _fresh_memory()
    machine, _ = compiled.make_machine(memory=mem_d, step_limit=500_000,
                                       backend=backend)
    actual = machine.run("f", *args, arr_d, sarr_d)
    actual_arr = mem_d.read_array(arr_d, 8)
    # Run again: cached code must stay consistent (stores may have
    # changed arr, so recompute the baseline on the mutated state).
    expected2 = static_machine.run("f", *args, arr_s, sarr_s)
    again = machine.run("f", *args, arr_d, sarr_d)
    return ((expected, expected_arr, expected2, mem_s.read_array(arr_s, 8)),
            (actual, actual_arr, again, mem_d.read_array(arr_d, 8)),
            _stats(static_machine), _stats(machine))


def _keeps_unchecked_promise(module, args, config) -> bool:
    """Whether two runs of ``f`` promote the same values at every
    unchecked promotion, as the annotation checker sees them."""
    compiled = compile_annotated(
        module, dataclasses.replace(config, check_annotations=True)
    )
    memory, arr, sarr = _fresh_memory()
    machine, _ = compiled.make_machine(memory=memory, step_limit=500_000)
    try:
        for _ in range(2):
            machine.run("f", *args, arr, sarr)
    except CacheError:
        return False
    return True


def run_both(source: str, args, config):
    """Runs ``f`` static and dynamic on every backend: the backends must
    agree on results, memory and stats (uncounted threaded on results
    and memory), and the dynamic runs must match the static ones unless
    the program breaks its unchecked promise."""
    module = compile_source(source)
    static_module = compile_static(module)
    compiled = compile_annotated(module, config)
    runs = {backend: _run_on(backend, static_module, compiled, args)
            for backend in BACKENDS}
    for backend in COUNTED_BACKENDS:
        assert runs[backend] == runs["reference"], backend
    assert runs["threaded_fast"][:2] == runs["reference"][:2]
    if "cache_one_unchecked" in source \
            and not _keeps_unchecked_promise(module, args, config):
        return
    expected, actual, _, _ = runs["reference"]
    assert actual == expected


small_ints = st.integers(min_value=-20, max_value=20)


class TestRandomProgramEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(programs(), small_ints, small_ints, small_ints, small_ints)
    def test_all_optimizations(self, source, s1, s2, d1, d2):
        run_both(source, (s1, s2, d1, d2), ALL_ON)

    @settings(max_examples=60, deadline=None)
    @given(programs(), small_ints, small_ints, small_ints, small_ints)
    def test_everything_disabled(self, source, s1, s2, d1, d2):
        run_both(source, (s1, s2, d1, d2), ALL_OFF)

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
        run_both(source, (s1, 2, d1, 3), ALL_ON.without(ablation))

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
        for backend in COUNTED_BACKENDS:
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
        for backend in COUNTED_BACKENDS:
            assert stats[backend] == stats["reference"], backend
