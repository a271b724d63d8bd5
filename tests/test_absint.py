import contextlib
import heapq
import io
import pathlib
import random
from collections import Counter

import pytest

import intana.absint
import intana.cli
import intana.contractor
from intana.absint import (
    AbstractState,
    AnalysisConfig,
    analyze,
    analyze_program,
    check_post_fixpoint,
    condition_verdict,
    eval_cond3,
    eval_expr,
    initial_state,
    transfer_assign,
    transfer_assume,
)
from intana.contractor import lower_condition
from intana.fuzz import random_program
from intana.interval import BOTTOM, Interval, TOP, Truth3
from intana.lang import (Binary, CMP_OPS, build_cfg, free_vars, parse_condition, parse_program,
                         subexprs)
from test_contractor import reference_contract
from test_golden import WIDE, WIDE_CONFIGS

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


def scale_shape(nv: int, loops: int, guards: int) -> str:
    """The benchmark's scale family shape, variables unshuffled: nv
    variables, two drawn from nondet(0, 2), then `loops` sequential
    counted loops of `guards` `&&`-guarded updates each."""
    names = ["v%d" % k for k in range(nv)]
    lines = ["int %s = %s;" % (name, "nondet(0, 2)" if k < 2 else k % 7 - 3)
             for k, name in enumerate(names)] + ["int i;"]
    for loop in range(loops):
        lines += ["i = 0;", "while (i < 3) {"]
        for k in range(guards):
            a, b = names[(loop + k) % nv], names[(loop + 2 * k + 1) % nv]
            if b == a:
                b = names[(loop + 2 * k + 2) % nv]
            lines += ["    if (%s < 3 && %s > 1) {" % (a, b), "        %s = %s + 1;" % (a, b),
                      "    } else {", "        %s = %s - 1;" % (b, a), "    }"]
        lines += ["    i = i + 1;", "}"]
    return "fn main() {\n%s}\n" % "".join("    %s\n" % line for line in lines)


GROWTH = {"scale-12-%02d-3" % loops: scale_shape(12, loops, 3) for loops in (1, 2, 4, 8, 16)}


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

    def test_join_is_the_old_state_exactly_when_the_other_lies_in_it(self):
        # analyze tests for change with `old.join(out) is old`.
        rng = random.Random(0)
        base = AbstractState.top(["x", "y", "z"])
        ranges = [BOTTOM, iv(0, 0), iv(0, 3), iv(2, 5), iv(-1, 9), TOP]
        states = [base.as_bottom()]
        for _ in range(60):
            state = rng.choice(states[1:] or [base])
            for name in rng.sample(base.names, rng.randint(1, 3)):
                state = state.set(name, rng.choice(ranges))
            states.append(state)
        for old in states:
            for out in states:
                assert (old.join(out) is old) == out.leq(old), (old, out)

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

    @pytest.mark.parametrize("flags", WIDE_CONFIGS, ids=lambda flags: " ".join(flags) or "default")
    def test_post_fixpoint_and_clean_check_on_wide_programs(self, flags, tmp_path):
        # Where the iteration order sets the path to the fixpoint: wide
        # states, sequential and nested loops of `&&` guards.
        config = intana.cli._config(intana.cli.build_parser().parse_args(["check", "-"] + flags))
        for name, source in sorted(WIDE.items()) + sorted(GROWTH.items()):
            for fa in analyze_program(parse_program(source), config).values():
                assert check_post_fixpoint(fa.cfg, fa.result, config), name
            path = tmp_path / ("%s.mini" % name)
            path.write_text(source)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = intana.cli.main(["check", str(path)] + flags)
            assert code == 0 and "result: clean" in out.getvalue().splitlines(), name

    def test_sequential_loops_iterate_linearly(self):
        # Each loop is stabilized before the code after it runs, so a loop
        # added after the others costs about the same iterations as they
        # did: the count at 16 loops stays near twice that at 8.
        eight, sixteen = (analyze_program(parse_program(GROWTH[name]))["main"].result.iterations
                          for name in ("scale-12-08-3", "scale-12-16-3"))
        assert sixteen <= 2.1 * eight, (eight, sixteen)

    # Per WIDE program, the default analysis's worklist updates and HC4
    # revisions: a change that only makes the fixpoint cheaper keeps both.
    WIDE_WORK = {"wide-08-seq": (55, 44), "wide-16-nested": (130, 91),
                 "wide-16-seq": (125, 95), "wide-25-25-seq": (1135, 889),
                 "wide-25-nested": (155, 112), "wide-25-seq": (189, 140)}

    @pytest.mark.parametrize("name", sorted(WIDE))
    def test_work_on_wide_programs(self, name, monkeypatch):
        calls = []
        original = intana.contractor.hc4_revise

        def counting(code, box):
            calls.append(code)
            return original(code, box)

        monkeypatch.setattr(intana.contractor, "hc4_revise", counting)
        [fa] = analyze_program(parse_program(WIDE[name])).values()
        assert (fa.result.iterations, len(calls)) == self.WIDE_WORK[name]

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


def reference_analyze(cfg, init, config):
    """The fixpoint with an explicit `leq` test before each join, every
    node's successors visited, and every node visited on each descending
    pass; intana.absint's transfer functions."""
    transfer_node, edge_state_of = intana.absint._transfer_node, intana.absint._edge_state
    bottom = init.as_bottom()
    rpo = cfg.rpo
    rpo_index = {n: i for i, n in enumerate(rpo)}
    before = {n: bottom for n in cfg.nodes}
    after = {n: bottom for n in cfg.nodes}
    before[cfg.entry] = init
    init.forms.clear()
    head_updates, widened, updates = {}, set(), 0
    reads = {n: [init.position(v) for v in free_vars(node.stmt.cond)]
             for n, node in cfg.nodes.items() if node.kind == "cond"}
    edges = {}

    def edge_state(p, label):
        state = after[p]
        if p not in reads:
            return state
        source, out = edges.get((p, label), (None, None))
        if source is state:
            return out
        if source is None or source.is_bottom or state.is_bottom or any(
                state.intervals[i] != source.intervals[i] for i in reads[p]):
            out = edge_state_of(cfg.nodes[p], state, label, config)
        elif not out.is_bottom:
            ivs = list(state.intervals)
            for i in reads[p]:
                ivs[i] = out.intervals[i]
            out = state.replaced(ivs)
        edges[p, label] = state, out
        return out

    def transfer(n):
        state = transfer_node(cfg.nodes[n], before[n], config)
        if state != after[n]:
            after[n] = state

    pending, queued = [(rpo_index[cfg.entry], cfg.entry)], {cfg.entry}
    while pending:
        _, n = heapq.heappop(pending)
        queued.discard(n)
        transfer(n)
        for m, label in cfg.successors(n):
            out = edge_state(n, label)
            old = before[m]
            if out.leq(old):
                continue
            merged = old.join(out)
            if m in cfg.loop_heads:
                head_updates[m] = head_updates.get(m, 0) + 1
                if head_updates[m] > config.widening_delay:
                    merged = old.widen(merged)
                    widened.add(m)
            before[m] = merged
            updates += 1
            if m not in queued:
                heapq.heappush(pending, (rpo_index[m], m))
                queued.add(m)

    for _ in range(config.narrowing_passes):
        changed = False
        for n in rpo:
            if n == cfg.entry:
                continue
            incoming = bottom
            for p, label in cfg.predecessors(n):
                incoming = incoming.join(edge_state(p, label))
            new = before[n].narrow(incoming) if n in cfg.loop_heads else incoming
            if new != before[n]:
                before[n] = new
                changed = True
                transfer(n)
        if not changed:
            break
    return intana.absint.AnalysisResult(before, after, updates, widened)


REFERENCE_SOURCES = ([(path.name, path.read_text()) for path in sorted(CORPUS.glob("*.mini"))]
                     + [("fuzz-%d" % seed, random_program(seed)) for seed in range(300)]
                     + sorted(WIDE.items()))
REFERENCE_CONFIGS = ([AnalysisConfig(narrowing_passes=passes, use_contractors=contractors)
                      for passes in range(6) for contractors in (True, False)]
                     + [AnalysisConfig(widening_delay=0, use_contractors=contractors)
                        for contractors in (True, False)])


@pytest.mark.parametrize("config", REFERENCE_CONFIGS, ids=repr)
def test_fixpoint_equals_reference(config, monkeypatch):
    """Same states, node by node, as the reference loop run with the
    reference `&&` round robin."""
    results = []
    for name, source in REFERENCE_SOURCES:
        for fn in parse_program(source).functions.values():
            cfg = build_cfg(fn)
            results.append(((name, fn.name), fn, cfg, analyze(cfg, initial_state(fn), config)))
    monkeypatch.setattr(intana.absint, "contract_condition", reference_contract)
    for where, fn, cfg, result in results:
        reference = reference_analyze(cfg, initial_state(fn), config)
        assert result.before == reference.before, where
        assert result.after == reference.after, where
        assert result.iterations == reference.iterations, where
        assert result.widened_nodes == reference.widened_nodes, where
