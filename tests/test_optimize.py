import pathlib

import pytest

import intana.contractor
import intana.optimize
from intana.absint import AnalysisConfig, analyze_program
from intana.lang import Assert, BoolLit, If, While, parse_program, program_to_source, walk_stmts
from intana.optimize import (
    RewriteReport,
    const_fold,
    division_safe,
    has_division,
    optimize_program,
    singleton_propagate,
)
from intana.oracle import check_equivalence

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def optimized(source, **kwargs):
    prog = parse_program(source)
    out, report, _ = optimize_program(prog, AnalysisConfig(**kwargs))
    return prog, out, report


def body_source(prog):
    return program_to_source(prog)


class TestSingletonPropagation:
    def test_replaces_singleton_reads(self):
        prog = parse_program("fn main() { int x = 5; int y; y = x + 1; }")
        analyses = analyze_program(prog, AnalysisConfig())
        out, report = singleton_propagate(prog, analyses)
        assert "y = 5 + 1;" in body_source(out)
        assert report.singletons_propagated == 1

    def test_non_singleton_untouched(self):
        prog = parse_program("fn main() { int x = nondet(0, 3); int y; y = x; }")
        analyses = analyze_program(prog, AnalysisConfig())
        out, report = singleton_propagate(prog, analyses)
        assert "y = x;" in body_source(out)
        assert report.singletons_propagated == 0

    def test_assignment_target_never_replaced(self):
        prog = parse_program("fn main() { int x = 5; x = x + 1; }")
        analyses = analyze_program(prog, AnalysisConfig())
        out, _ = singleton_propagate(prog, analyses)
        assert "x = 5 + 1;" in body_source(out)

    def test_statement_ids_preserved(self):
        prog = parse_program("fn main() { int x = 5; int y; y = x; }")
        analyses = analyze_program(prog, AnalysisConfig())
        out, _ = singleton_propagate(prog, analyses)
        assert [s.sid for s in walk_stmts(out.main.body)] \
            == [s.sid for s in walk_stmts(prog.main.body)]

    def test_input_program_not_mutated(self):
        prog = parse_program("fn main() { int x = 5; int y; y = x + 1; }")
        before = program_to_source(prog)
        analyses = analyze_program(prog, AnalysisConfig())
        singleton_propagate(prog, analyses)
        assert program_to_source(prog) == before

    def test_unchanged_condition_is_kept_as_is(self):
        prog = parse_program("fn main() { int x = 5; int y = nondet(0, 3);"
                             " if (y < 2 && !(y == 1)) { y = x; } }")
        analyses = analyze_program(prog, AnalysisConfig())
        out, report = singleton_propagate(prog, analyses)
        assert out.main.body[2].cond is prog.main.body[2].cond
        assert out.main.body[2].then[0].rhs != prog.main.body[2].then[0].rhs
        assert report.singletons_propagated == 1


class TestGuardElimination:
    def test_true_guard_flattens_branch(self):
        prog, out, report = optimized(
            "fn main() { int x = nondet(4, 9); if (x > 3 && x < 10) { x = 0; } }")
        assert not any(isinstance(s, If) for s in walk_stmts(out.main.body))
        assert report.guards_true == 1
        assert check_equivalence(prog, out)

    def test_false_while_removed(self):
        prog, out, report = optimized(
            "fn main() { int i = 0; while (i < 0) { i = 1; } }")
        assert not any(isinstance(s, While) for s in walk_stmts(out.main.body))
        assert report.guards_false == 1
        assert report.dead_branches_removed == 1

    def test_recursion_into_operands(self):
        prog, out, _ = optimized(
            "fn main() { int x = nondet(0, 20); int y = nondet(0, 20);"
            " if (x >= 0 && y < 5) { y = 1; } }")
        assert "if (y < 5) {" in body_source(out)
        assert check_equivalence(prog, out)

    def test_definite_assert_violation_kept(self):
        prog, out, report = optimized(
            "fn main() { int x = nondet(1, 5); assert(x < 0); }")
        kept = [s for s in walk_stmts(out.main.body) if isinstance(s, Assert)]
        assert len(kept) == 1
        assert kept[0].cond == BoolLit(False)
        assert report.guards_false == 1

    def test_risky_division_blocks_literalization(self):
        # x / d >= 0 holds over the analyzable (nonzero-divisor) values,
        # but folding the guard away would hide the d == 0 failure.
        prog, out, _ = optimized(
            "fn main() { int d = nondet(0, 2); int x = 7;"
            " if (x / d >= 0 || x > 0) { x = 1; } }")
        assert "/ d" in body_source(out)
        assert check_equivalence(prog, out)

    def test_no_rewrites_under_unreachable_states(self):
        prog, out, _ = optimized(
            "fn main() { int x = 1; if (x < 0) { if (x > 5) { x = 2; } } }")
        # The outer guard is decidably false; the unreachable inner branch
        # disappears with it rather than being rewritten in place.
        assert not any(isinstance(s, If) for s in walk_stmts(out.main.body))
        assert check_equivalence(prog, out)

    def test_eval_cmp_fallback_without_contractors(self):
        prog, out, _ = optimized(
            "fn main() { int x = nondet(4, 9); if (x > 3 && x < 10) { x = 0; } }",
            use_contractors=False)
        assert not any(isinstance(s, If) for s in walk_stmts(out.main.body))


class TestConstFold:
    def test_arithmetic(self):
        prog = parse_program("fn main() { int y; y = 5 + 1; }")
        out, report = const_fold(prog)
        assert "y = 6;" in body_source(out)
        assert report.constants_folded == 1

    def test_boolean_identity(self):
        prog = parse_program(
            "fn main() { int y = nondet(0, 9); if (true && y < 5) { y = 0; } }")
        out, _ = const_fold(prog)
        assert "if (y < 5) {" in body_source(out)

    def test_division_by_literal_zero_not_folded(self):
        prog = parse_program("fn main() { int x = nondet(0, 1); int y; y = x / 0; }")
        out, report = const_fold(prog)
        assert "/ 0" in body_source(out)

    def test_nested_folding_reaches_fixpoint(self):
        prog = parse_program("fn main() { int y; y = (2 + 3) * (4 - 1); }")
        out, _ = const_fold(prog)
        assert "y = 15;" in body_source(out)
        again, report = const_fold(out)
        assert report == RewriteReport()

    def test_absorbing_literal_keeps_division(self):
        prog = parse_program(
            "fn main() { int d = nondet(0, 1); int x = 1;"
            " if (false && x / d > 0) { x = 2; } }")
        out, _ = const_fold(prog)
        assert "/ d" in body_source(out)
        assert check_equivalence(parse_program(program_to_source(prog)), out)


class TestHelpers:
    def test_has_division(self):
        prog = parse_program("fn main() { int a = 1 / 2; int b = 1 + 2; }")
        assert has_division(prog.main.body[0].init)
        assert not has_division(prog.main.body[1].init)

    def test_division_safe(self):
        from intana.absint import AbstractState
        from intana.interval import Interval
        prog = parse_program("fn main() { int d = 1; int q; q = 4 / d; }")
        rhs = prog.main.body[2].rhs
        safe = AbstractState.of({"d": Interval(1, 3), "q": Interval(0, 0)})
        risky = AbstractState.of({"d": Interval(0, 3), "q": Interval(0, 0)})
        assert division_safe(rhs, safe, True)
        assert not division_safe(rhs, risky, True)


class TestPipeline:
    def test_worked_example(self):
        prog, out, _ = optimized(
            "fn main() { int x = 5; int y; y = x + 1; if (y > 3) { y = 0; } }")
        text = body_source(out)
        assert "y = 6;" in text and "y = 0;" in text and "if" not in text
        assert check_equivalence(prog, out)

    def test_returns_analyses_of_input_program(self):
        prog = parse_program(
            "fn f(v) { return v; } fn main() { int x = 5; int y; y = f(x); }")
        _, _, analyses = optimize_program(prog, AnalysisConfig())
        expected = analyze_program(prog, AnalysisConfig())
        assert sorted(analyses) == ["f", "main"]
        for name, fa in expected.items():
            assert analyses[name].result == fa.result

    def test_unanalyzable_program_unchanged(self):
        prog, out, report = optimized(
            "fn main() { int x = nondet(-4, 4); int y = nondet(-4, 4);"
            " if (x < y) { x = y; } }")
        assert report == RewriteReport()
        assert program_to_source(out) == program_to_source(prog)

    def test_report_consistency(self):
        sources = [
            "fn main() { int x = 5; int y; y = x + 1; }",
            "fn main() { int x = nondet(0, 3); }",
            "fn main() { int i = 0; while (i < 0) { i = 1; } }",
        ]
        for source in sources:
            prog, out, report = optimized(source)
            changed = program_to_source(out) != program_to_source(prog)
            assert changed == (report != RewriteReport())

    def test_idempotence(self):
        sources = [
            "fn main() { int x = 5; int y; y = x + 1; if (y > 3) { y = 0; } }",
            "fn main() { int x = nondet(1, 5); assert(x < 0); }",
            "fn main() { int d = nondet(0, 2); int x = 7;"
            " if (x / d >= 0 || x > 0) { x = 1; } }",
        ]
        for source in sources:
            _, once, _ = optimized(source)
            twice, report, _ = optimize_program(once, AnalysisConfig())
            assert program_to_source(twice) == program_to_source(once)
            assert report == RewriteReport()

    @pytest.mark.parametrize("seed", range(40))
    def test_equivalence_on_fuzzed_programs(self, seed):
        from intana.fuzz import random_program
        prog = parse_program(random_program(seed))
        out, _, _ = optimize_program(prog, AnalysisConfig())
        assert check_equivalence(prog, out, step_limit=100_000)

    @pytest.mark.parametrize("name", ["12_compound_or.mini", "23_boolean_mix.mini"])
    def test_guard_classification_reuses_the_analysis_forms(self, monkeypatch, name):
        # (relation, left, right) of each comparison lowered, per phase.
        lowered = {"analysis": set(), "guards": set()}
        phase = ["analysis"]
        original_lower = intana.contractor.lower_comparison
        original_eliminate = intana.optimize.guard_eliminate

        def counting(e, box, *polarity):
            code = original_lower(e, box, *polarity)
            lowered[phase[0]].add((code.relation, id(e.left), id(e.right)))
            return code

        def eliminate(*args):
            phase[0] = "guards"
            return original_eliminate(*args)

        monkeypatch.setattr(intana.contractor, "lower_comparison", counting)
        monkeypatch.setattr(intana.optimize, "guard_eliminate", eliminate)
        optimize_program(parse_program((CORPUS / name).read_text()))
        assert phase == ["guards"] and lowered["analysis"]
        assert not lowered["guards"] & lowered["analysis"]


class TestReport:
    def test_counts_accumulate(self):
        report = RewriteReport(singletons_propagated=1)
        report.absorb(RewriteReport(guards_true=2, constants_folded=3))
        assert report.guards_eliminated == 2
        assert report.constants_folded == 3
        assert report != RewriteReport()
