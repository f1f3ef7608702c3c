"""Tests for CFG analyses (orders, dominators, loops) and liveness."""

from repro.analysis import (
    back_edges,
    dominator_sets,
    immediate_dominators,
    liveness,
    natural_loops,
    reverse_postorder,
)
from repro.ir import FunctionBuilder, Op
from tests.helpers import build_countdown, build_diamond


class TestOrders:
    def test_rpo_starts_at_entry(self):
        f = build_diamond()
        rpo = reverse_postorder(f)
        assert rpo[0] == "entry"
        assert set(rpo) == set(f.blocks)

    def test_rpo_places_join_after_branches(self):
        rpo = reverse_postorder(build_diamond())
        assert rpo.index("join") > rpo.index("then")
        assert rpo.index("join") > rpo.index("else")

    def test_rpo_handles_loops(self):
        rpo = reverse_postorder(build_countdown())
        assert rpo.index("entry") < rpo.index("head")
        assert rpo.index("head") < rpo.index("body")


class TestDominators:
    def test_entry_dominates_all(self):
        f = build_diamond()
        doms = dominator_sets(f)
        for label in f.blocks:
            assert "entry" in doms[label]

    def test_branch_arms_do_not_dominate_join(self):
        doms = dominator_sets(build_diamond())
        assert "then" not in doms["join"]
        assert "else" not in doms["join"]

    def test_idom_of_entry_is_none(self):
        idom = immediate_dominators(build_diamond())
        assert idom["entry"] is None
        assert idom["join"] == "entry"

    def test_loop_header_dominates_body(self):
        doms = dominator_sets(build_countdown())
        assert "head" in doms["body"]


class TestLoops:
    def test_countdown_has_one_back_edge(self):
        assert back_edges(build_countdown()) == [("body", "head")]

    def test_natural_loop_membership(self):
        loops = natural_loops(build_countdown())
        assert len(loops) == 1
        assert loops[0].header == "head"
        assert loops[0].body == {"head", "body"}

    def test_diamond_has_no_loops(self):
        assert natural_loops(build_diamond()) == []

    def test_nested_loops(self):
        b = FunctionBuilder("nested", ("n",))
        b.move("i", 0)
        b.jump("oh")
        b.label("oh")
        b.binop("c1", Op.LT, "i", "n")
        b.branch("c1", "ob", "done")
        b.label("ob")
        b.move("j", 0)
        b.jump("ih")
        b.label("ih")
        b.binop("c2", Op.LT, "j", "n")
        b.branch("c2", "ib", "olatch")
        b.label("ib")
        b.binop("j", Op.ADD, "j", 1)
        b.jump("ih")
        b.label("olatch")
        b.binop("i", Op.ADD, "i", 1)
        b.jump("oh")
        b.label("done")
        b.ret("i")
        f = b.finish()
        loops = {loop.header: loop for loop in natural_loops(f)}
        assert set(loops) == {"oh", "ih"}
        assert "ih" in loops["oh"].body  # inner nested inside outer
        assert "oh" not in loops["ih"].body
        assert "ib" in loops["oh"] and "ib" in loops["ih"]
        assert not any("done" in loop for loop in loops.values())


class TestLiveness:
    def test_param_live_through_loop(self):
        f = build_countdown()
        result = liveness(f)
        assert "n" in result.live_in["head"]
        assert "s" in result.live_in["head"]
        assert result.live_in["done"] == frozenset({"s"})

    def test_dead_after_last_use(self):
        f = build_diamond()
        result = liveness(f)
        # After computing r, nothing is live.
        assert result.live_out["join"] == frozenset()
        assert "y" in result.live_in["join"]

    def test_live_before_point_query(self):
        f = build_diamond()
        result = liveness(f)
        live = result.live_before(f, "join", 1)  # before the Return
        assert "r" in live
        assert "y" not in live

    def test_unused_definition_not_live(self):
        b = FunctionBuilder("f", ("a",))
        b.move("unused", 42)
        b.ret("a")
        f = b.finish()
        result = liveness(f)
        assert "unused" not in result.live_in["entry"]
