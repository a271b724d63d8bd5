import pathlib
from collections import Counter

import pytest

import intana.absint
import intana.contractor
from intana.absint import (
    AbstractState,
    AnalysisConfig,
    UnknownNodeError,
    analyze,
    analyze_program,
    check_post_fixpoint,
    condition_verdict,
    eval_cond3,
    eval_expr,
    initial_state,
    state_at,
    transfer_assign,
    transfer_assume,
)
from intana.contractor import lower_condition
from intana.fuzz import random_program
from intana.interval import BOTTOM, Interval, TOP, Truth3
from intana.lang import Binary, CMP_OPS, build_cfg, parse_condition, parse_program, subexprs

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"

LOOP = """
fn main() {
    int i = 0;
    while (i < 10) {
        i = i + 1;
    }
}
"""


def iv(lo, hi):
    return Interval(lo, hi)


def analysis_of(source, **kwargs):
    prog = parse_program(source)
    return prog, analyze_program(prog, AnalysisConfig(**kwargs))


def node_of(fa, kind):
    return next(n.id for n in fa.cfg.nodes.values() if n.kind == kind)


class TestConfig:
    def test_defaults(self):
        config = AnalysisConfig()
        assert config.widening_delay == 2
        assert config.narrowing_passes == 2
        assert config.interval_arith and config.use_contractors

    @pytest.mark.parametrize("kwargs", [
        {"widening_delay": -1},
        {"narrowing_passes": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AnalysisConfig(**kwargs)


class TestAbstractState:
    def test_any_bottom_normalizes_to_all_bottom(self):
        state = AbstractState.of({"x": BOTTOM, "y": iv(0, 1)})
        assert state.is_bottom
        assert state.get("y").is_bottom

    def test_join_and_order(self):
        a = AbstractState.of({"x": iv(0, 2)})
        b = AbstractState.of({"x": iv(5, 9)})
        assert a.join(b).get("x") == iv(0, 9)
        assert a.leq(a.join(b))
        assert AbstractState.bottom(["x"]).leq(a)
        assert a.leq(AbstractState.top(["x"]))

    def test_set_get(self):
        state = AbstractState.top(["x", "y"]).set("x", iv(1, 1))
        assert state.get("x") == iv(1, 1)
        assert state.get("y").is_top


class TestTransfer:
    def test_assign_evaluates_rhs(self):
        state = AbstractState.of({"x": iv(1, 2), "y": TOP})
        out = transfer_assign(state, "y", parse_condition("x < 0", ["x"]).left)
        assert out.get("y") == iv(1, 2)

    def test_assume_with_contractors_refines_compound(self):
        state = AbstractState.of({"x": iv(0, 20)})
        cond = parse_condition("x > 3 && x < 10", ["x"])
        out = transfer_assume(state, cond, True, AnalysisConfig())
        assert out.get("x") == iv(4, 9)

    def test_assume_negated_polarity(self):
        state = AbstractState.of({"x": iv(0, 20)})
        cond = parse_condition("x > 3", ["x"])
        out = transfer_assume(state, cond, False, AnalysisConfig())
        assert out.get("x") == iv(0, 3)

    def test_assume_without_contractors_prunes_simple_comparisons(self):
        config = AnalysisConfig(use_contractors=False)
        state = AbstractState.of({"x": iv(0, 20)})
        out = transfer_assume(state, parse_condition("x < 10", ["x"]), True, config)
        assert out.get("x") == iv(0, 9)
        # Compound conditions are beyond the simple pruner.
        cond = parse_condition("x > 3 && x < 10", ["x"])
        out = transfer_assume(state, cond, True, config)
        assert out.get("x") == iv(0, 20)

    def test_assume_infeasible_gives_bottom(self):
        state = AbstractState.of({"x": iv(0, 2)})
        out = transfer_assume(state, parse_condition("x > 5", ["x"]), True,
                              AnalysisConfig())
        assert out.is_bottom

    def test_eval_expr_nondet(self):
        prog = parse_program("fn main() { int a = nondet(-3, 3); int b = nondet(); }")
        state = AbstractState.top(["a", "b"])
        assert eval_expr(prog.main.body[0].init, state) == iv(-3, 3)
        assert eval_expr(prog.main.body[1].init, state).is_top

    def test_eval_cond3(self):
        state = AbstractState.of({"x": iv(4, 9)})

        def verdict(source, polarity=True):
            form = lower_condition(parse_condition(source, ["x"]), polarity, state)
            return eval_cond3(form, state)

        assert verdict("x > 3 && x < 10") is Truth3.TRUE
        assert verdict("x > 5") is Truth3.MAYBE
        assert verdict("x > 5 || x < 10") is Truth3.TRUE
        assert verdict("x > 9 || x < 4") is Truth3.FALSE
        assert verdict("x > 5 || x > 20") is Truth3.MAYBE
        assert verdict("x > 3 && x < 10", False) is Truth3.FALSE
        assert verdict("!(x > 5 || true)") is Truth3.FALSE

    def test_condition_verdict_follows_config(self):
        state = AbstractState.of({"x": iv(-3, 3)})
        cond = parse_condition("x * x < 0", ["x"])
        assert condition_verdict(cond, state) is Truth3.FALSE
        plain = AnalysisConfig(use_contractors=False)
        assert condition_verdict(cond, state, plain) is Truth3.MAYBE
        cond = parse_condition("!(x > 3)", ["x"])
        assert condition_verdict(cond, state, plain) is Truth3.TRUE


class TestLoopAnalysis:
    def test_widening_then_narrowing_pins_loop_bounds(self):
        prog, analyses = analysis_of(LOOP)
        fa = analyses["main"]
        head = next(iter(fa.cfg.loop_heads))
        assert fa.result.before[head].get("i") == iv(0, 10)
        body_stmt = prog.main.body[1].body[0]
        body_node = fa.cfg.stmt_node[body_stmt.sid]
        assert fa.result.before[body_node].get("i") == iv(0, 9)
        assert fa.result.before[fa.cfg.exit].get("i") == iv(10, 10)

    def test_widening_happens_then_is_recovered(self):
        prog, analyses = analysis_of(LOOP)
        fa = analyses["main"]
        assert fa.result.widened_nodes  # widening fired at the head
        assert fa.result.before[fa.cfg.exit].get("i").is_finite

    def test_no_narrowing_leaves_infinite_bound(self):
        prog, analyses = analysis_of(LOOP, narrowing_passes=0)
        fa = analyses["main"]
        head = next(iter(fa.cfg.loop_heads))
        assert fa.result.before[head].get("i").hi == float("inf")

    def test_unreachable_code_is_bottom(self):
        prog, analyses = analysis_of(
            "fn main() { int x = 1; if (x < 0) { x = 5; } }")
        fa = analyses["main"]
        dead_stmt = prog.main.body[1].then[0]
        node = fa.cfg.stmt_node[dead_stmt.sid]
        assert fa.result.before[node].is_bottom

    def test_call_results_are_unknown(self):
        prog, analyses = analysis_of("""
            fn inc(v) { return v + 1; }
            fn main() { int x = 1; int y; y = inc(x); }
        """)
        fa = analyses["main"]
        assert fa.result.after[fa.cfg.exit].get("y").is_top
        # Callee parameters start unconstrained.
        callee = analyses["inc"]
        entry_after = callee.result.after[callee.cfg.entry]
        assert entry_after.get("v").is_top

    def test_assert_never_refines(self):
        prog, analyses = analysis_of(
            "fn main() { int x = nondet(0, 9); assert(x < 5); x = x + 1; }")
        fa = analyses["main"]
        assert fa.result.after[fa.cfg.exit].get("x") == iv(1, 10)

    def test_interval_arith_off_extrapolates(self):
        prog, analyses = analysis_of(
            "fn main() { int x = nondet(1, 2); int y; y = x + 1; }",
            interval_arith=False)
        fa = analyses["main"]
        assert fa.result.after[fa.cfg.exit].get("y").is_top

    def test_state_at_unknown_node(self):
        prog, analyses = analysis_of(LOOP)
        with pytest.raises(UnknownNodeError):
            state_at(analyses["main"].result, 999, "before")

    def test_post_fixpoint_on_corpus_samples(self):
        sources = [path.read_text() for path in sorted(CORPUS.glob("*.mini"))]
        assert len(sources) == 30
        programs = [parse_program(source)
                    for source in sources + [random_program(seed) for seed in range(100)]]
        for passes in (0, 1, 2):
            for contractors in (True, False):
                config = AnalysisConfig(narrowing_passes=passes, use_contractors=contractors)
                for prog in programs:
                    for fa in analyze_program(prog, config).values():
                        assert check_post_fixpoint(fa.cfg, fa.result, config)

    def test_narrowing_recomputes_nothing_without_loops(self, monkeypatch):
        # A loop-free function is exact after the worklist, so narrowing
        # finds every edge state computed already and contracts nothing.
        calls = []
        original = intana.absint.transfer_assume

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(intana.absint, "transfer_assume", counting)
        loop_free = 0
        for path in sorted(CORPUS.glob("*.mini")):
            prog = parse_program(path.read_text())
            if any(build_cfg(fn).loop_heads for fn in prog.functions.values()):
                continue
            loop_free += 1
            counts = []
            for passes in (0, 2):
                calls.clear()
                analyze_program(prog, AnalysisConfig(narrowing_passes=passes))
                counts.append(len(calls))
            assert counts[0] == counts[1], path.name
        assert loop_free == 21

    def test_conditions_compile_once_per_analysis(self, monkeypatch):
        # Each comparison is lowered at most once per polarity in one
        # analysis, and again in the next analysis.
        calls = Counter()
        original = intana.contractor.lower_comparison

        def counting(e, box, polarity=True):
            calls[id(e), polarity] += 1
            return original(e, box, polarity)

        monkeypatch.setattr(intana.contractor, "lower_comparison", counting)
        for name in ("06_nested_loops.mini", "23_boolean_mix.mini"):
            calls.clear()
            prog = parse_program((CORPUS / name).read_text())
            cfg = build_cfg(prog.main)
            init = initial_state(prog.main)
            comparisons = [sub for node in cfg.nodes.values() if node.kind == "cond"
                           for sub in subexprs(node.stmt.cond)
                           if isinstance(sub, Binary) and sub.op in CMP_OPS]
            first = analyze(cfg, init)
            assert comparisons and all(calls[id(e), True] or calls[id(e), False]
                                       for e in comparisons)
            assert set(calls.values()) == {1}, (name, calls)
            assert analyze(cfg, init).before == first.before
            assert set(calls.values()) == {2}, (name, calls)

    def test_initial_state_is_top(self):
        prog = parse_program(LOOP)
        init = initial_state(prog.main)
        assert init.get("i").is_top

    def test_analyze_respects_widening_delay(self):
        prog = parse_program(LOOP)
        cfg = build_cfg(prog.main)
        res = analyze(cfg, initial_state(prog.main),
                      AnalysisConfig(widening_delay=50))
        head = next(iter(cfg.loop_heads))
        # With a huge delay the 10-step chain converges without widening.
        assert head not in res.widened_nodes
        assert res.before[head].get("i") == iv(0, 10)
