import pytest

import intana.oracle
from intana.absint import AnalysisConfig, analyze_program
from intana.fuzz import random_program
from intana.interval import Interval
from intana.lang import Nondet, build_cfg, parse_program
from intana.oracle import (
    ASSERT_FAILED,
    ASSUME_INFEASIBLE,
    DIV_BY_ZERO,
    OK,
    STEP_LIMIT,
    EnumerationCapError,
    NondetMismatchError,
    SoundnessViolation,
    UnboundedNondetError,
    check_equivalence,
    check_soundness,
    enumerate_executions,
)


class TestEnumeration:
    def test_all_choices_covered(self):
        prog = parse_program("fn main() { int x = nondet(0, 3); assert(x <= 3); }")
        runs = enumerate_executions(prog)
        assert len(runs) == 4
        assert all(r.verdict == OK for r in runs)
        assert sorted(r.choices for r in runs) == [(0,), (1,), (2,), (3,)]

    def test_assert_failure_counted(self):
        prog = parse_program("fn main() { int x = nondet(0, 3); assert(x < 3); }")
        verdicts = [r.verdict for r in enumerate_executions(prog)]
        assert verdicts.count(OK) == 3
        assert verdicts.count(ASSERT_FAILED) == 1

    def test_unbounded_nondet_rejected(self):
        prog = parse_program("fn main() { int x = nondet(); }")
        with pytest.raises(UnboundedNondetError):
            enumerate_executions(prog)

    def test_cap_enforced(self):
        prog = parse_program(
            "fn main() { int a = nondet(0, 3); int b = nondet(0, 3); }")
        with pytest.raises(EnumerationCapError):
            enumerate_executions(prog, cap=3)

    def test_nondet_in_loop_enumerates_per_iteration(self):
        prog = parse_program("""
            fn main() {
                int i = 0;
                int hits = 0;
                while (i < 2) {
                    int coin = nondet(0, 1);
                    hits = hits + coin;
                    i = i + 1;
                }
            }
        """)
        runs = enumerate_executions(prog)
        assert len(runs) == 4  # two draws of two values each
        assert sorted(r.env["hits"] for r in runs) == [0, 1, 1, 2]

    def test_assume_infeasible(self):
        prog = parse_program(
            "fn main() { int x = nondet(0, 3); assume(x > 1); x = 0; }")
        verdicts = [r.verdict for r in enumerate_executions(prog)]
        assert verdicts.count(ASSUME_INFEASIBLE) == 2

    def test_div_by_zero_is_a_verdict(self):
        prog = parse_program("fn main() { int d = nondet(0, 1); int q; q = 4 / d; }")
        runs = enumerate_executions(prog)
        assert {r.verdict for r in runs} == {DIV_BY_ZERO, OK}

    def test_step_limit(self):
        prog = parse_program("fn main() { int i = 0; while (i >= 0) { i = i + 1; } }")
        runs = enumerate_executions(prog, step_limit=50)
        assert runs[0].verdict == STEP_LIMIT

    def test_truncated_division_semantics(self):
        prog = parse_program("fn main() { int q; q = -7 / 2; int r; r = 7 / -2; }")
        run = enumerate_executions(prog)[0]
        assert run.env == {"q": -3, "r": -3}

    def test_uninitialized_locals_start_at_zero(self):
        prog = parse_program("fn main() { int x; x = x + 1; }")
        assert enumerate_executions(prog)[0].env == {"x": 1}

    def test_strict_connectives_evaluate_both_sides(self):
        prog = parse_program(
            "fn main() { int d = 0; int x = 1; if (d != 0 && x / d > 0) { x = 2; } }")
        assert enumerate_executions(prog)[0].verdict == DIV_BY_ZERO

    def test_calls_run_in_their_own_frame(self):
        prog = parse_program("""
            fn twice(v) { int r; r = v * 2; return r; }
            fn main() { int x = nondet(1, 2); int y; y = twice(x); }
        """)
        runs = enumerate_executions(prog)
        assert sorted(r.env["y"] for r in runs) == [2, 4]
        assert all("r" not in r.env for r in runs)

    def test_deterministic(self):
        prog = parse_program(
            "fn main() { int a = nondet(-1, 1); int b; b = a * a; }")
        first = enumerate_executions(prog)
        second = enumerate_executions(prog)
        assert [(r.choices, r.env, r.verdict) for r in first] \
            == [(r.choices, r.env, r.verdict) for r in second]


    def test_exit_states_are_traced_in_every_frame(self):
        prog = parse_program("""
            fn early(v) { if (v > 0) { return v; } return 0; }
            fn late(v) { int w; w = v; }
            fn main() { int x = nondet(0, 1); int y; y = early(x); late(x); }
        """)
        cfgs = {name: build_cfg(fn) for name, fn in prog.functions.items()}
        for run in enumerate_executions(prog):
            exits = [(fname, env) for fname, node, env in run.trace
                     if node == cfgs[fname].exit]
            assert [fname for fname, _ in exits] == ["early", "late", "main"]
            assert exits[-1][1] == run.env

    def test_div_by_zero_in_callee_names_the_callee_node(self):
        prog = parse_program("""
            fn ratio(v) { int q; q = 10 / v; return q; }
            fn main() { int x = nondet(0, 1); int y; y = ratio(x); }
        """)
        node = build_cfg(prog.functions["ratio"]).stmt_node[
            prog.functions["ratio"].body[1].sid]
        runs = enumerate_executions(prog)
        assert [(r.choices, r.verdict, r.verdict_node) for r in runs] \
            == [((0,), DIV_BY_ZERO, ("ratio", node)), ((1,), OK, None)]
        assert runs[1].env == {"x": 1, "y": 10}

    def test_nondet_call_arguments_are_drawn_in_argument_order(self):
        # The parser takes nondet only as a right-hand side; the AST and the
        # oracle take it wherever an integer expression goes.
        prog = parse_program("""
            fn diff(a, b) { int d; d = a - b; return d; }
            fn main() { int r; r = diff(0, 0); }
        """)
        prog.main.body[1].args = (Nondet(0, 1), Nondet(5, 6))
        assert [(r.choices, r.env["r"]) for r in enumerate_executions(prog)] \
            == [((0, 5), -5), ((0, 6), -6), ((1, 5), -4), ((1, 6), -5)]

    def test_return_inside_loop_records_exit_state(self):
        prog = parse_program("""
            fn find(n) {
                int i = 0;
                while (i < 10) { if (i == n) { return i; } i = i + 1; }
                return -1;
            }
            fn main() { int k = nondet(0, 2); int r; r = find(k); }
        """)
        exit_node = build_cfg(prog.functions["find"]).exit
        for run in enumerate_executions(prog):
            k = run.env["k"]
            assert run.env["r"] == k
            exits = [env for fname, node, env in run.trace
                     if fname == "find" and node == exit_node]
            assert exits == [{"n": k, "i": k}]

    def test_unary_operators_on_variables(self):
        prog = parse_program("""
            fn main() {
                int x = nondet(-1, 1);
                int y = -x;
                int w = -(-x);
                int z = 0;
                if (!(x > 0)) { z = 1; }
                if (!(x > 0 || y > 0)) { z = z + 10; }
            }
        """)
        assert [r.env for r in enumerate_executions(prog)] == [
            {"x": -1, "y": 1, "w": -1, "z": 1},
            {"x": 0, "y": 0, "w": 0, "z": 11},
            {"x": 1, "y": -1, "w": 1, "z": 0},
        ]


class TestSoundness:
    def test_clean_on_loop_example(self):
        prog = parse_program(
            "fn main() { int i = 0; while (i < 10) { i = i + 1; } }")
        analyses = analyze_program(prog, AnalysisConfig())
        assert check_soundness(prog, analyses) == []

    def test_detects_corrupted_interval(self):
        prog = parse_program("fn main() { int x = nondet(0, 1); x = x + 1; }")
        analyses = analyze_program(prog, AnalysisConfig())
        fa = analyses["main"]
        victim = fa.cfg.stmt_node[prog.main.body[1].sid]
        corrupted = fa.result.before[victim].set("x", Interval(0, 0))
        fa.result.before[victim] = corrupted
        violations = check_soundness(prog, analyses)
        assert violations
        assert {(v.node, v.var) for v in violations} == {(victim, "x")}

    def test_detects_corrupted_exit_state(self):
        prog = parse_program("fn main() { int x = nondet(0, 3); x = x + 1; }")
        analyses = analyze_program(prog, AnalysisConfig())
        fa = analyses["main"]
        exit_state = fa.result.before[fa.cfg.exit]
        fa.result.before[fa.cfg.exit] = exit_state.set("x", Interval(100, 100))
        violations = check_soundness(prog, analyses)
        assert {(v.node, v.var, v.value) for v in violations} \
            == {(fa.cfg.exit, "x", value) for value in range(1, 5)}


def _reference_violations(analyses, executions):
    """The soundness check as a walk over recorded traces, for comparison."""
    violations = []
    for state in executions:
        for fname, node, env in state.trace:
            before = analyses[fname].result.before.get(node)
            if before is None:
                violations.append(SoundnessViolation(
                    fname, node, "<missing>", 0, "no state", state.choices))
                continue
            abstract = before.as_dict()
            for var, value in env.items():
                iv = abstract[var]
                if not iv.lo <= value <= iv.hi:
                    violations.append(SoundnessViolation(
                        fname, node, var, value, iv.render(), state.choices))
    return violations


def _both_paths(prog, analyses):
    """Violations found while enumerating, after checking they equal those
    found by replaying recorded traces, and those of the reference walk."""
    streamed = check_soundness(prog, analyses)
    traced = enumerate_executions(prog)
    assert check_soundness(prog, analyses, executions=traced) == streamed
    assert _reference_violations(analyses, traced) == streamed
    return streamed


def _shift_up(analyses):
    """Move every bounded `before` interval up by one."""
    for fa in analyses.values():
        before = fa.result.before
        for n, state in before.items():
            if state.is_bottom:
                continue
            for name in state.names:
                iv = state.get(name)
                if not iv.is_top:
                    state = state.set(name, iv.shift(1))
            before[n] = state


class TestSoundnessPaths:
    @pytest.mark.parametrize("contractors", [True, False])
    def test_streaming_equals_replay_on_corrupted_fuzz_analyses(self, contractors):
        total = 0
        for seed in range(50):
            prog = parse_program(random_program(seed))
            analyses = analyze_program(prog, AnalysisConfig(use_contractors=contractors))
            assert _both_paths(prog, analyses) == []
            _shift_up(analyses)
            total += len(_both_paths(prog, analyses))
        assert total > 1000

    def test_bottom_state_reports_every_variable_in_env_order(self):
        prog = parse_program(
            "fn main() { int y = nondet(3, 4); int x = 1; int z; z = x + y; }")
        analyses = analyze_program(prog, AnalysisConfig())
        fa = analyses["main"]
        victim = fa.cfg.stmt_node[prog.main.body[3].sid]
        fa.result.before[victim] = fa.result.before[victim].as_bottom()
        assert [(v.node, v.var, v.value, v.interval, v.choices)
                for v in _both_paths(prog, analyses)] == [
            (victim, name, value, "bottom", (y,))
            for y in (3, 4) for name, value in (("y", y), ("x", 1), ("z", 0))]

    @pytest.mark.parametrize("which", ["statement", "highest id"])
    def test_missing_state_is_reported(self, which):
        prog = parse_program("fn main() { int x = nondet(0, 1); x = x + 1; }")
        analyses = analyze_program(prog, AnalysisConfig())
        fa = analyses["main"]
        victim = (fa.cfg.stmt_node[prog.main.body[1].sid] if which == "statement"
                  else max(fa.result.before))
        del fa.result.before[victim]
        assert [(v.node, v.var, v.value, v.interval, v.choices)
                for v in _both_paths(prog, analyses)] == [
            (victim, "<missing>", 0, "no state", (x,)) for x in (0, 1)]

    def test_undeclared_variable_is_not_checked(self):
        prog = parse_program("fn main() { int x = nondet(0, 1); int y = x; }")
        analyses = analyze_program(prog, AnalysisConfig())
        fa = analyses["main"]
        decl = fa.cfg.stmt_node[prog.main.body[1].sid]
        fa.result.before[decl] = fa.result.before[decl].set("y", Interval(7, 7))
        assert _both_paths(prog, analyses) == []


class TestEquivalence:
    def test_identical_programs(self):
        prog = parse_program("fn main() { int x = nondet(0, 2); x = x * 2; }")
        assert check_equivalence(prog, prog)

    def test_detects_changed_constant(self):
        a = parse_program("fn main() { int x = nondet(0, 2); x = x + 1; }")
        b = parse_program("fn main() { int x = nondet(0, 2); x = x + 2; }")
        result = check_equivalence(a, b)
        assert not result
        choices, got_a, got_b = result.counterexample
        assert choices == (0,)
        assert got_a != got_b

    def test_detects_changed_verdict(self):
        a = parse_program("fn main() { int x = nondet(0, 3); assert(x <= 3); }")
        b = parse_program("fn main() { int x = nondet(0, 3); assert(x <= 2); }")
        assert not check_equivalence(a, b)

    def test_mismatched_nondet_structure(self):
        a = parse_program("fn main() { int x = nondet(0, 2); }")
        b = parse_program("fn main() { int x = nondet(0, 3); }")
        with pytest.raises(NondetMismatchError):
            check_equivalence(a, b)

    def test_compares_only_common_variables(self):
        a = parse_program("fn main() { int x = 1; int dead = 9; }")
        b = parse_program("fn main() { int x = 1; }")
        assert check_equivalence(a, b)

    def test_rewrite_alone_hitting_the_step_limit_is_not_a_counterexample(self):
        a = parse_program("fn main() { int x = nondet(0, 1); }")
        b = parse_program("fn main() { int x = nondet(0, 1); while (x == 1) { skip; } }")
        result = check_equivalence(a, b, step_limit=100)
        assert result.counterexample is None and result.truncated == 1
        assert not result  # not compared is not shown equal
        assert check_equivalence(b, a, step_limit=100).counterexample is not None

    def test_empty_programs(self):
        prog = parse_program("fn main() { skip; }")
        assert check_equivalence(prog, prog)


class _ReferenceChooser:
    """The chooser as it was first written: one (value, lo, hi) per choice."""

    def __init__(self):
        self.reset(())

    def reset(self, prefix) -> None:
        self.prefix = prefix
        self.taken = []

    @property
    def values(self):
        return [v for v, _, _ in self.taken]

    def choose(self, lo, hi):
        i = len(self.taken)
        value = self.prefix[i] if i < len(self.prefix) else lo
        self.taken.append((value, lo, hi))
        return value


def _reference_choices(prog, step_limit, monkeypatch):
    """The choices of every execution, by the first-written odometer."""
    with monkeypatch.context() as patch:
        patch.setattr(intana.oracle, "_Chooser", _ReferenceChooser)
        interp = intana.oracle._Interpreter(prog, step_limit)
    out, prefix = [], ()
    while True:
        out.append(interp.run(prefix).choices)
        taken = interp.chooser.taken
        while taken and taken[-1][0] >= taken[-1][2]:
            taken.pop()
        if not taken:
            return out
        prefix = [v for v, _, _ in taken[:-1]] + [taken[-1][0] + 1]


def _reference_equivalence(a, b, step_limit=10_000):
    """check_equivalence as first written: restricted environments per run."""
    runs_a = enumerate_executions(a, step_limit, record_trace=False)
    runs_b = enumerate_executions(b, step_limit, record_trace=False)
    if [r.choices for r in runs_a] != [r.choices for r in runs_b]:
        raise NondetMismatchError("programs draw different nondet choice sequences")
    common = set(a.main.variables) & set(b.main.variables)
    counterexample, truncated = None, 0
    for ra, rb in zip(runs_a, runs_b):
        if rb.verdict == STEP_LIMIT and ra.verdict != STEP_LIMIT:
            truncated += 1
            continue
        if counterexample is None:
            ea = {v: ra.env[v] for v in common if v in ra.env}
            eb = {v: rb.env[v] for v in common if v in rb.env}
            if ra.verdict != rb.verdict or ea != eb:
                counterexample = (ra.choices, (ra.verdict, ea), (rb.verdict, eb))
    return counterexample, truncated


NONDET_IN_LOOP_AND_CALLEE = [
    """fn main() {
        int i = 0; int s = 0;
        while (i < 3) { int c = nondet(0, 2); s = s + c; i = i + 1 + c; }
    }""",
    """fn pick(k) { int v = nondet(0, 3); if (v > k) { v = k; } return v; }
    fn main() {
        int a = nondet(1, 3); int b; b = pick(a);
        while (b > 0) { int d = nondet(0, 1); b = b - 1 - d; }
    }""",
    """fn twice() { int u = nondet(0, 1); int w = nondet(0, 2); return u + w; }
    fn main() { int n = nondet(0, 2); int t = 0;
        while (n > 0) { int r; r = twice(); t = t + r; n = n - 1; }
        assert(t < 6); }""",
]


class TestOdometer:
    """enumerate_executions draws choices in the order of the first-written odometer."""

    @pytest.mark.parametrize("step_limit", [10_000, 40])
    def test_fuzz_choices_match_reference(self, monkeypatch, step_limit):
        for seed in range(50):
            prog = parse_program(random_program(seed))
            got = [r.choices for r in enumerate_executions(prog, step_limit,
                                                           record_trace=False)]
            assert got == _reference_choices(prog, step_limit, monkeypatch), seed

    @pytest.mark.parametrize("step_limit", [10_000, 25])
    @pytest.mark.parametrize("source", NONDET_IN_LOOP_AND_CALLEE,
                             ids=["loop", "callee-then-loop", "loop-calls-callee"])
    def test_nondet_in_loops_and_callees(self, monkeypatch, source, step_limit):
        prog = parse_program(source)
        got = [r.choices for r in enumerate_executions(prog, step_limit,
                                                       record_trace=False)]
        assert got == _reference_choices(prog, step_limit, monkeypatch)
        assert len(set(got)) == len(got)
        assert len({len(c) for c in got}) > 1  # runs draw different numbers of choices


class TestEquivalenceFastPath:
    """Whole environments are compared first; the result is the reference's."""

    def test_difference_outside_common_is_no_counterexample(self):
        a = parse_program("fn main() { int x = nondet(0, 2); int t = x * 2; }")
        b = parse_program("fn main() { int x = nondet(0, 2); int u = 7; }")
        result = check_equivalence(a, b)
        assert result.counterexample is None and result.truncated == 0
        assert _reference_equivalence(a, b) == (None, 0)

    @pytest.mark.parametrize("sources", [
        # At x = 2 the environments are equal and only the verdicts differ.
        ("fn main() { int x = nondet(0, 3); assert(x <= 2); }",
         "fn main() { int x = nondet(0, 3); assert(x <= 1); }"),
        ("fn main() { int x = nondet(0, 3); int d = nondet(0, 1); int q = x / d; }",
         "fn main() { int x = nondet(0, 3); int d = nondet(0, 1); int q = x; }"),
        ("fn main() { int x = nondet(0, 1); while (x == 1) { skip; } int z = x; }",
         "fn main() { int x = nondet(0, 1); int z = x + 1; }"),
    ])
    def test_counterexample_matches_reference(self, sources):
        a, b = (parse_program(s) for s in sources)
        result = check_equivalence(a, b, step_limit=100)
        assert result.counterexample is not None
        assert (result.counterexample, result.truncated) == \
            _reference_equivalence(a, b, step_limit=100)

    @pytest.mark.parametrize("other", [
        "fn main() { int x = nondet(0, 1); int y = nondet(0, 1); }",  # as many runs
        "fn main() { int x = nondet(0, 4); }",  # more runs
    ])
    def test_different_choice_sequences_raise(self, other):
        a = parse_program("fn main() { int x = nondet(0, 3); }")
        b = parse_program(other)
        with pytest.raises(NondetMismatchError):
            check_equivalence(a, b)
        with pytest.raises(NondetMismatchError):
            _reference_equivalence(a, b)
