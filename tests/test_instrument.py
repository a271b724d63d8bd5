import pytest

from intana.absint import AbstractState, AnalysisConfig, analyze_program
from intana.instrument import (
    instrument_program,
    intervals_to_assume_expr,
)
from intana.interval import Interval, TOP
from intana.lang import (
    Assume,
    BoolLit,
    expr_to_source,
    free_vars,
    parse_program,
    program_to_source,
    walk_stmts,
)
from intana.oracle import check_equivalence


def instrumented(source, **kwargs):
    prog = parse_program(source)
    config = AnalysisConfig(**kwargs)
    analyses = analyze_program(prog, config)
    out, points = instrument_program(prog, analyses, config)
    return prog, out, points


class TestAssumeExpr:
    def test_finite_interval_gives_both_bounds(self):
        state = AbstractState.of({"x": Interval(4, 9)})
        expr = intervals_to_assume_expr({"x"}, state)
        assert expr_to_source(expr) == "x >= 4 && x <= 9"

    def test_top_gives_nothing(self):
        state = AbstractState.of({"x": TOP})
        assert intervals_to_assume_expr({"x"}, state) is None
        assert intervals_to_assume_expr(set(), state) is None

    def test_infinite_bounds_omitted(self):
        state = AbstractState.of({
            "x": Interval.make(0, float("inf")),
            "y": Interval.make(-float("inf"), 5),
        })
        expr = intervals_to_assume_expr({"x", "y"}, state)
        assert expr_to_source(expr) == "x >= 0 && y <= 5"

    def test_bottom_state_gives_false(self):
        state = AbstractState.bottom(["x"])
        assert intervals_to_assume_expr({"x"}, state) == BoolLit(False)

    def test_variables_sorted_deterministically(self):
        state = AbstractState.of({"b": Interval(0, 1), "a": Interval(2, 3)})
        expr = intervals_to_assume_expr({"b", "a"}, state)
        assert expr_to_source(expr).startswith("a >= 2")


class TestInstrumentProgram:
    def test_loop_gets_before_and_inside_assumes(self):
        prog, out, points = instrumented(
            "fn main() { int i = 0; while (i < 10) { i = i + 1; } }")
        text = program_to_source(out)
        assert "assume(i >= 0 && i <= 10);" in text
        assert "assume(i >= 0 && i <= 9);" in text
        assert [p.kind for p in points] == ["loop-before", "loop-inside"]

    def test_call_arguments_constrained(self):
        prog, out, points = instrumented("""
            fn f(v) { return v; }
            fn main() { int x = nondet(2, 2); int y; y = f(x); }
        """)
        assert "assume(x >= 2 && x <= 2);" in program_to_source(out)
        assert any(p.kind == "call" and p.vars == frozenset({"x"}) for p in points)

    def test_top_emits_nothing(self):
        prog, out, points = instrumented(
            "fn main() { int y = nondet(); if (y < 5) { y = 0; } }")
        assert points == []
        assert program_to_source(out) == program_to_source(prog)

    def test_assertion_anchor(self):
        prog, out, points = instrumented(
            "fn main() { int x = nondet(0, 4); assert(x <= 4); }")
        assert {p.kind for p in points} == {"assertion"}
        assert "assume(x >= 0 && x <= 4);" in program_to_source(out)

    def test_scope_restricted_to_anchor_variables(self):
        prog, out, points = instrumented("""
            fn main() {
                int a = nondet(0, 2);
                int b = nondet(1, 3);
                if (a > 0) { b = 0; }
                assert(b <= 3);
            }
        """)
        anchors = {s.sid: s for s in walk_stmts(prog.main.body)}
        for point in points:
            assert point.vars <= free_vars(point.emitted) | point.vars
            # emitted expression only references the declared variable set
            assert free_vars(point.emitted) <= point.vars

    def test_else_branch_points_precede_then_branch(self):
        prog, out, points = instrumented("""
            fn main() {
                int x = nondet(0, 4);
                if (x > 1) { assert(x >= 2); } else { assert(x <= 1); }
            }
        """)
        assert [p.kind for p in points] == ["conditional", "assertion", "assertion"]
        assert [expr_to_source(p.emitted) for p in points] == [
            "x >= 0 && x <= 4", "x >= 0 && x <= 1", "x >= 2 && x <= 4"]

    def test_round_trips_through_parser(self):
        prog, out, _ = instrumented(
            "fn main() { int i = 0; while (i < 3) { i = i + 1; } assert(i == 3); }")
        text = program_to_source(out)
        assert program_to_source(parse_program(text)) == text

    def test_statement_order_preserved(self):
        prog, out, _ = instrumented(
            "fn main() { int i = 0; while (i < 3) { i = i + 1; } }")
        kinds = [type(s).__name__ for s in out.main.body]
        assert kinds == ["Decl", "Assume", "While"]

    @pytest.mark.parametrize("source", [
        "fn helper(p) { int h = 0; while (h < p) { h = h + 1; } return h; }"
        " fn main() { int x = nondet(0, 3); int y = 0; y = helper(x);"
        " if (y > 1) { y = 1; } }",
        # The new assume must not take the sid of the pruned declaration.
        "fn f(a) { while (a < 3) { a = a + 1; } return a; int d = 1; }"
        " fn main() { int y; y = f(1); }",
    ], ids=["two-functions", "code-after-return"])
    def test_new_statements_get_program_unique_sids(self, source):
        prog, out, points = instrumented(source)
        assert points
        sids = [s.sid for fn in out.functions.values() for s in walk_stmts(fn.body)]
        assert len(sids) == len(set(sids))

    @pytest.mark.parametrize("seed", range(40))
    def test_invariance_on_fuzzed_programs(self, seed):
        from intana.fuzz import random_program
        prog = parse_program(random_program(seed))
        config = AnalysisConfig()
        analyses = analyze_program(prog, config)
        out, points = instrument_program(prog, analyses, config)
        reparsed = parse_program(program_to_source(out))
        assert check_equivalence(prog, reparsed, step_limit=200_000)
        for point in points:
            assert free_vars(point.emitted) <= point.vars
