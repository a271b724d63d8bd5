import ast
import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import intana
import intana.cli
import intana.oracle
from intana.absint import AnalysisConfig, analyze_program
from intana.fuzz import random_program
from intana.interval import Interval
from intana.lang import Binary, IntLit, Nondet, Var, build_cfg, parse_program
from intana.oracle import (
    ASSERT_FAILED,
    ASSUME_INFEASIBLE,
    DIV_BY_ZERO,
    OK,
    STEP_LIMIT,
    EnumerationCapError,
    EquivalenceResult,
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

    def test_analysis_and_tier0_share_each_cfg(self):
        # The monitor's tables are keyed by the analysis's node ids, which
        # are then the nodes tier 0 walks.
        prog = parse_program("fn f(a) { while (a > 0) { a = a - 1; } return a; }"
                             " fn main() { int x = nondet(0, 3); int y; y = f(x); }")
        analyses = analyze_program(prog, AnalysisConfig())
        tier0 = intana.oracle._Interpreter(prog, 10_000)
        assert [tier0.cfgs[name] is analyses[name].cfg is fn.cfg
                for name, fn in prog.functions.items()] == [True, True]


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
            for var, iv in before.as_dict().items():
                if var in env and not iv.lo <= env[var] <= iv.hi:
                    violations.append(SoundnessViolation(
                        fname, node, var, env[var], iv.render(), state.choices))
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

    def test_bottom_state_reports_every_variable_in_name_order(self):
        prog = parse_program(
            "fn main() { int y = nondet(3, 4); int x = 1; int z; z = x + y; }")
        analyses = analyze_program(prog, AnalysisConfig())
        fa = analyses["main"]
        victim = fa.cfg.stmt_node[prog.main.body[3].sid]
        fa.result.before[victim] = fa.result.before[victim].as_bottom()
        assert [(v.node, v.var, v.value, v.interval, v.choices)
                for v in _both_paths(prog, analyses)] == [
            (victim, name, value, "bottom", (y,))
            for y in (3, 4) for name, value in (("x", 1), ("y", y), ("z", 0))]

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


# Every execution runs until the step limit stops it.
LOOP_PAST_THE_LIMIT = \
    "fn main() { int k = nondet(0, 50); int i = 0; while (i >= 0) { i = i + k; i = i + 1; } }"


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
        # The input alone cut short is not compared either; its caller has
        # the input's executions and counts it from them.
        assert check_equivalence(b, a, step_limit=100) == EquivalenceResult(None, 0)

    def test_both_hitting_the_step_limit_is_not_a_counterexample(self):
        # One more step per iteration: both stop at the limit, at different i.
        a = parse_program(LOOP_PAST_THE_LIMIT)
        b = parse_program(LOOP_PAST_THE_LIMIT.replace("i = i + 1;", "i = i + 1; skip;"))
        runs = enumerate_executions(a, 2000, record_trace=False)
        assert {r.verdict for r in runs} == {STEP_LIMIT} and len(runs) == 51
        assert check_equivalence(a, b, step_limit=2000) == EquivalenceResult(None, 0)

    def test_empty_programs(self):
        prog = parse_program("fn main() { skip; }")
        assert check_equivalence(prog, prog)

    def test_counterexample_is_the_same_under_every_hash_seed(self):
        script = (
            "from intana.lang import parse_program\n"
            "from intana.oracle import check_equivalence\n"
            "head = 'fn main() { int w = nondet(0, 1); int x = 2; int y = 3; '\n"
            "a = parse_program(head + 'int z = w; }')\n"
            "b = parse_program(head + 'int z = w + 1; }')\n"
            "print(check_equivalence(a, b).counterexample)\n")
        src = str(pathlib.Path(intana.__file__).parents[1])
        outputs = set()
        for seed in ("1", "2"):
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            outputs.add(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                       capture_output=True, text=True).stdout)
        assert outputs == {"((0,), ('ok', {'w': 0, 'x': 2, 'y': 3, 'z': 0}), "
                           "('ok', {'w': 0, 'x': 2, 'y': 3, 'z': 1}))\n"}


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
        interp.run(prefix)
        out.append(tuple(interp.chooser.values))
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
        if STEP_LIMIT in (ra.verdict, rb.verdict):
            truncated += ra.verdict != STEP_LIMIT
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


CORPUS = pathlib.Path(__file__).parent.parent / "corpus"
NEVER = float("inf")  # a tier-up budget no enumeration reaches
# The shape of the benchmark's oracle-enum programs: three wide ranges and
# a short loop, 392 executions.
ORACLE_ENUM_SHAPED = """
fn main() {
    int a = nondet(-2, 4); int b = nondet(1, 8); int c = nondet(0, 6);
    int s = 3; int i = 0;
    while (i < 3) {
        if (c >= a - i) { s = s + c; } else { s = s + b; }
        if (b != s - 4) { s = s - a; } else { s = s - i; }
        i = i + 1;
    }
    assert(s != -3);
}
"""


def _tiered(monkeypatch, tier_up, enumerate):
    """`enumerate()`, with tier 1 compiled once tier 0 has run `tier_up`
    steps per CFG node (-1: before the first execution; None: as shipped).

    Returns its result, then how many executions ran on tier 0 before tier
    1 was compiled and the tiers compiled.
    """
    tier0_runs, tiers = [], []
    compile_tier, run = intana.oracle._tier_up, intana.oracle._Interpreter.run

    def spy(tier0):
        tiers.append(compile_tier(tier0))
        return tiers[-1]

    def counted(self, prefix):
        if not tiers:
            tier0_runs.append(prefix)
        return run(self, prefix)

    with monkeypatch.context() as patch:
        if tier_up is not None:
            patch.setattr(intana.oracle, "TIER_UP_STEPS_PER_NODE", tier_up)
        patch.setattr(intana.oracle, "_tier_up", spy)
        patch.setattr(intana.oracle._Interpreter, "run", counted)
        result = enumerate()
    return result, len(tier0_runs), tiers


def _tier_ups(monkeypatch, run):
    """`run()`, then for each enumeration it made, in order, how many
    executions ran on tier 0 before tier 1 was compiled (None: never)."""
    counts = []
    oracle = intana.oracle
    enumerate_, compile_tier, run0 = oracle.enumerate_executions, oracle._tier_up, \
        oracle._Interpreter.run

    def enumerating(*args, **kwargs):
        counts.append([0, False])
        return enumerate_(*args, **kwargs)

    def spy(tier0):
        counts[-1][1] = True
        return compile_tier(tier0)

    def counted(self, prefix):
        if not counts[-1][1]:
            counts[-1][0] += 1
        return run0(self, prefix)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "enumerate_executions", enumerating)
        patch.setattr(oracle, "_tier_up", spy)
        patch.setattr(oracle._Interpreter, "run", counted)
        run()
    return [runs if compiled else None for runs, compiled in counts]


def _check(path):
    """`intana check` on a file."""
    return lambda: intana.cli.main(["check", str(path)])


def _states(runs):
    return [(r.choices, r.env, r.verdict, r.verdict_node, r.trace) for r in runs]


def _assert_tiers_agree(monkeypatch, enumerate, tier_up=-1):
    """`enumerate()` gives equal results with tier 1 (compiled once tier 0
    has run `tier_up` steps per node) and with tier 0 alone; returns tier
    0's result and the executions run on tier 0 before tier 1."""
    reference, _, none = _tiered(monkeypatch, NEVER, enumerate)
    got, tier0_runs, tiers = _tiered(monkeypatch, tier_up, enumerate)
    assert not none
    assert [tier is not None for tier in tiers] == [True]
    assert got == reference
    return reference, tier0_runs


def _executions(prog, **kwargs):
    return lambda: _states(enumerate_executions(prog, **kwargs))


def _soundness(prog, analyses, step_limit=10_000):
    def check():
        runs = []
        return check_soundness(prog, analyses, step_limit, runs=runs), _states(runs)
    return check


def _agree_under_every_monitor(monkeypatch, prog, step_limit=10_000, tier_up=-1):
    """Tier 1 gives tier 0's results without a monitor, and under the
    soundness monitor on a sound and on a shifted analysis; returns the
    runs without a monitor and how many of them ran on tier 0 before tier 1.
    Tier 1 runs no trace recorder, so none of these records a trace."""
    result = _assert_tiers_agree(
        monkeypatch, _executions(prog, step_limit=step_limit, record_trace=False), tier_up)
    analyses = analyze_program(prog, AnalysisConfig())
    assert _assert_tiers_agree(monkeypatch, _soundness(prog, analyses, step_limit),
                               tier_up)[0][0] == []
    _shift_up(analyses)
    _assert_tiers_agree(monkeypatch, _soundness(prog, analyses, step_limit), tier_up)
    return result


class _PointCounter:
    """A monitor without bounds: it counts the points it is shown."""

    def __init__(self):
        self.points = 0

    def watch(self, fname):
        def seen(n, env):
            self.points += 1
        return seen

    def end(self, state):
        pass


def _refused(monkeypatch, enumerate):
    """`enumerate()` gives tier 0's result with tier 1 due before the first
    execution, and the emitter refuses it: nothing is compiled.  Returns
    the result."""
    reference, _, _ = _tiered(monkeypatch, NEVER, enumerate)
    compiled = []

    def spy(*args):
        compiled.append(args)
        return compile(*args)
    with monkeypatch.context() as patch:
        patch.setattr(intana.oracle, "compile", spy, raising=False)
        got, _, tiers = _tiered(monkeypatch, -1, enumerate)
    assert tiers == [None] and compiled == []
    assert got == reference
    return reference


def _most_steps(prog):
    """The most steps an execution of `prog` runs."""
    interp = intana.oracle._Interpreter(prog, 10**9)
    most = 0
    for state in enumerate_executions(prog, record_trace=False):
        interp.run(list(state.choices))
        most = max(most, interp.steps)
    return most


def _tier0_calls(monkeypatch, run):
    """`run()`, then for each enumeration it made, in order, how many
    executions tier 0 started from the entry and how many it finished from
    where tier 1 stopped them."""
    counts = []
    oracle = intana.oracle
    enumerate_, run0, resume = (oracle.enumerate_executions, oracle._Interpreter.run,
                                oracle._Interpreter.resume)

    def enumerating(*args, **kwargs):
        counts.append([0, 0])
        return enumerate_(*args, **kwargs)

    def counted_run(self, prefix):
        counts[-1][0] += 1
        return run0(self, prefix)

    def counted_resume(self, *args):
        counts[-1][1] += 1
        return resume(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "enumerate_executions", enumerating)
        patch.setattr(oracle._Interpreter, "run", counted_run)
        patch.setattr(oracle._Interpreter, "resume", counted_resume)
        run()
    return [tuple(c) for c in counts]


def _tier1_source(prog):
    """The Python source tier 1 runs for `prog`."""
    interp = intana.oracle._Interpreter(prog, 10_000)
    return intana.oracle._Emitter(interp).program()


def _emitted():
    """`(prog, emitter, source)` for each tier-1 source of the corpus and
    fuzz seeds 0-29, with no monitor and under the soundness monitor."""
    for source in [path.read_text() for path in sorted(CORPUS.glob("*.mini"))] \
            + [random_program(seed) for seed in range(30)]:
        prog = parse_program(source)
        analyses = analyze_program(prog, AnalysisConfig())
        for monitor in (None, intana.oracle._SoundnessMonitor(analyses)):
            emitter = intana.oracle._Emitter(intana.oracle._Interpreter(prog, 10_000, monitor))
            yield prog, emitter, emitter.program()


STEP_LIMIT_IN_CALLEE = """
    fn spin(n) { int i = 0; while (i < n) { i = i + 1; } return i; }
    fn main() { int k = nondet(0, 20); int r; r = spin(k); r = r + 1; }
"""
DIV_BY_ZERO_IN_CONDITION = """
    fn main() { int d = nondet(-2, 2); int x = 0;
        while (x < 3) { if (6 / d > x) { x = x + 2; } else { x = x + 1; } } }
"""
DIV_BY_ZERO_IN_ARGUMENT = """
    fn half(v) { int h; h = v / 2; return h; }
    fn main() { int d = nondet(-2, 2); int r; r = half(8 / d); }
"""
# Mini names that are Python keywords or builtins, or that tier 1's own
# names could clash with.
PYTHON_NAMES = """
    fn f(None, lambda) {
        int s = None + lambda; int env = s * 2;
        if (env > 4) { env = env - 1; }
        return env;
    }
    fn main() {
        int x = nondet(0, 3); int v_x = nondet(-1, 1);
        int True = x - v_x; int class = 0; int _L = 5; int _k0 = 7;
        while (class < x) { class = class + 1; _L = _L + True; }
        int s; s = f(x, v_x);
        int env = s + _k0 + v_x;
        if (env > 9) { int lambda = env / 2; _k0 = lambda; }
        assert(env != 12);
    }
"""
# Straight-line runs in the entry function and in a callee of one variable,
# a call, and a loop whose body's last run counts the loop head.
SEGMENTS = """
    fn g(p) { p = p + 1; p = p * 2; skip; return p; }
    fn main() {
        int k = nondet(0, 2); int a = k; a = a + 1; skip; int r; r = g(a);
        int i = 0; while (i < 2) { r = r + i; i = i + 1; }
        r = r - k;
    }
"""
# One segment of nine nodes, with a division by zero, an assume and an
# assert that halt some executions in its middle.
HALTS_IN_A_SEGMENT = """
    fn main() {
        int d = nondet(-1, 1); int c = nondet(0, 2); int x = 1;
        x = x + c; x = 6 / d; assume(c != 1); x = x + 1; assert(x != 7); x = x * 2;
    }
"""
# Loops: one whose branches differ in length, so tier 1 tests each
# segment of its body; a loop in a loop; a loop in a callee, uneven too;
# and draws in a loop body.
UNEVEN_BRANCHES = """
    fn main() {
        int k = nondet(0, 5); int i = 0; int s = 0;
        while (i < 4) {
            if (i < k) { s = s + i; s = s * 2; skip; } else { s = s - 1; }
            i = i + 1;
        }
        assert(s != 7);
    }
"""
NESTED_LOOPS = """
    fn main() {
        int n = nondet(0, 3); int i = 0; int t = 0;
        while (i < n) { int j = 0; while (j < i) { t = t + j; j = j + 1; } i = i + 1; }
    }
"""
LOOP_IN_CALLEE = """
    fn sum(n) { int i = 0; int t = 0;
        while (i < n) { if (i > 1) { t = t + i; } i = i + 1; } return t; }
    fn main() { int k = nondet(0, 4); int r; r = sum(k); int q; q = sum(2); }
"""
# A loop in a callee whose every path back to the head is 4 steps long, so
# tier 1 counts and tests each iteration once, at the head.
EVEN_LOOP_IN_CALLEE = """
    fn f(a) { int t = 0; int i = 0;
        while (i < a) { if (i > 1) { t = t + i; } else { t = t - 1; } i = i + 1; } return t; }
    fn main() { int j = nondet(0, 9); int r; r = f(j); assert(r >= 0); }
"""
DRAWS_IN_A_LOOP = """
    fn main() {
        int i = 0; int s = 0;
        while (i < 3) {
            int x = nondet(0, 2);
            if (x > 0) { s = s + x; } else { skip; s = s - 1; }
            i = i + 1;
        }
        assert(s != 4);
    }
"""


def _handbacks(monkeypatch, enumerate):
    """`enumerate()` with tier 1 compiled before the first execution, then
    each time tier 1 handed an execution to tier 0 (`resume`): the kind of
    stop (`_Deopt`, `_Halt` or `_Redo`), the chooser's values when the
    execution started, its values and highs then, and the verdict tier 0
    finished with: that of the outcome `resume` returns, or of the halt it
    raises for a callee's frame."""
    oracle, found, choices = intana.oracle, [], []
    resume, state = oracle._Interpreter.resume, oracle.ConcreteState

    def built(*args):
        choices.append(args[0])
        return state(*args)

    def resumed(self, fname, stop, env):
        found.append([type(stop).__name__, len(choices), list(self.chooser.values),
                      list(self.chooser.highs), None])
        try:
            outcome = resume(self, fname, stop, env)
        except oracle._Halt as halt:
            found[-1][-1] = halt.verdict
            raise
        found[-1][-1] = outcome[0]
        return outcome

    def start(k):
        # Execution k's values first differ from those of execution k - 1
        # at the last value it started from.
        if k == 0:
            return []
        before, after, i = choices[k - 1], choices[k], 0
        while before[i] == after[i]:
            i += 1
        return list(after[:i + 1])

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "TIER_UP_STEPS_PER_NODE", -1)
        patch.setattr(oracle, "ConcreteState", built)
        patch.setattr(oracle._Interpreter, "resume", resumed)
        enumerate()
    return [(kind, start(k), values, highs, verdict) for kind, k, values, highs, verdict in found]


def _entry_calls(monkeypatch, enumerate):
    """`enumerate()` with tier 1 compiled before the first execution, then
    per execution the outcome the entry def returned, as its verdict and
    the function of its node, or `_Redo` where tier 1 handed the execution
    to `resume` to run again.  A second entry def, compiled from the same
    tier 0 once the enumeration is done, is called on each execution's
    choices: it returns an int step count and that execution's outcome."""
    oracle, tier0s, states, redone = intana.oracle, [], [], []
    compile_tier, resume, state = oracle._tier_up, oracle._Interpreter.resume, \
        oracle.ConcreteState

    def spy(tier0):
        tier0s.append(tier0)
        return compile_tier(tier0)

    def resumed(self, fname, stop, env):
        if type(stop) is oracle._Redo:
            redone.append(stop)
        return resume(self, fname, stop, env)

    def built(choices, env, verdict, node):
        assert tier0s and type(env) is dict
        assert (node is None) == (verdict == OK) and verdict in VERDICTS
        states.append((choices, (verdict, node, env), bool(redone)))
        redone.clear()
        return state(choices, env, verdict, node)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "TIER_UP_STEPS_PER_NODE", -1)
        patch.setattr(oracle, "_tier_up", spy)
        patch.setattr(oracle._Interpreter, "resume", resumed)
        patch.setattr(oracle, "ConcreteState", built)
        enumerate()
    [tier0] = tier0s
    entry = compile_tier(tier0)
    assert entry is not None
    try:
        for choices, outcome, _ in states:
            tier0.chooser.reset(list(choices))
            steps, again = entry(0)
            assert type(steps) is int and again == outcome
    finally:
        entry.__globals__.clear()
    return ["_Redo" if redo else (verdict, node and node[0])
            for _, (verdict, node, _), redo in states]


HUGE_VALUE = ("fn main() { int x = 7; %s int y = 0; int i = nondet(0, 99);"
              " while (i > 0) { i = i - 1; y = x; } }" % ("x = x * x; " * 14))
VERDICTS = {OK, ASSERT_FAILED, ASSUME_INFEASIBLE, DIV_BY_ZERO, STEP_LIMIT}
RETURN_IN_MAIN = """
    fn main() { int k = nondet(0, 3); if (k > 1) { return k; } k = k + 1; }
"""
# A zero divisor (v = 0) and a failed assert (v = 2) in a callee.
HALTS_IN_A_CALLEE = """
    fn ratio(v) { assert(v != 2); return 6 / v; }
    fn main() { int d = nondet(0, 3); int r; r = ratio(d); }
"""


# Names get their first value in an order that varies with the run: `a` is
# declared in a loop, under a condition, before `b`, and `u` so in a callee.
ORDER_VARIES = """
    fn f(p) { int k = 0; while (k < p) { if (k > 0) { int u = k; } int v = p; k = k + 1; }
        return k; }
    fn main() {
        int n = nondet(0, 3); int i = 0;
        while (i < 2) { if (i + n > 2) { int a = i; } int b = n; i = i + 1; }
        if (n > 1) { int c = 1; c = c + n; } int d = 2;
        int r; r = f(n); assert(n != 3);
    }
"""

# Prints, for the program in argv[1], the violations `check_soundness`
# finds under an analysis shifted up by one, on tier 0 alone and with tier
# 1 compiled before the first execution, at each step limit in argv[2:].
_VIOLATIONS_ON_BOTH_TIERS = """
import dataclasses, json, sys
import intana.oracle
from intana.absint import AnalysisConfig, analyze_program
from intana.lang import parse_program

prog = parse_program(sys.argv[1])
analyses = analyze_program(prog, AnalysisConfig())
for fa in analyses.values():
    for n, state in fa.result.before.items():
        for name in () if state.is_bottom else state.names:
            if not state.get(name).is_top:
                state = state.set(name, state.get(name).shift(1))
        fa.result.before[n] = state
found = []
for tier_up in (float("inf"), -1):
    intana.oracle.TIER_UP_STEPS_PER_NODE = tier_up
    found.append([[dataclasses.astuple(v) for v in intana.oracle.check_soundness(
        prog, analyses, int(limit))] for limit in sys.argv[2:]])
print(json.dumps(found))
"""


def _deep_block(kind: str, depth: int = 20) -> str:
    """A block nested `depth` deep in ifs or loops, with a loop of its own,
    that reads and writes the variables declared outside it."""
    body = ("int inner = n * 2; while (m < n) { acc = acc + inner; m = m + 1; }"
            " assert(acc != 9);")
    for i in reversed(range(depth)):
        body = ("if (n >= -%d) { %s }" % (i, body) if kind == "if"
                else "while (c%d < 1) { c%d = c%d + 1; %s }" % (i, i, i, body))
    counters = "" if kind == "if" else " ".join("int c%d = 0;" % i for i in range(depth))
    return ("fn main() { int n = nondet(0, 4); int acc = 1; int m = 0; %s %s"
            " acc = acc + m; }" % (counters, body))


class TestTiers:
    """Tier 1 gives tier 0's executions and violations."""

    SOURCES = [path.read_text() for path in sorted(CORPUS.glob("*.mini"))] \
        + [random_program(seed) for seed in range(300)]

    @pytest.mark.parametrize("step_limit", [10_000, 30])
    def test_corpus_and_fuzz_programs(self, monkeypatch, step_limit):
        for source in self.SOURCES:
            _agree_under_every_monitor(monkeypatch, parse_program(source), step_limit)

    @pytest.mark.parametrize("contractors", [True, False])
    def test_violations_under_corrupted_analyses(self, monkeypatch, contractors):
        total = 0
        for source in self.SOURCES:
            prog = parse_program(source)
            analyses = analyze_program(prog, AnalysisConfig(use_contractors=contractors))
            assert _assert_tiers_agree(monkeypatch, _soundness(prog, analyses))[0][0] == []
            _shift_up(analyses)
            total += len(_assert_tiers_agree(monkeypatch, _soundness(prog, analyses))[0][0])
        assert total > 10_000

    def test_loop_head_tests_values_from_later_iterations(self, monkeypatch):
        # `skip` tests `i` at [0, 0] before the loop; the loop head's wrong
        # state [0, 0] must still be tested on every iteration.
        prog = parse_program("fn main() { int k = nondet(0, 99); int i = 0; skip;"
                             " while (i < 3) { i = i + 1; } }")
        analyses = analyze_program(prog, AnalysisConfig())
        fa = analyses["main"]
        head = fa.cfg.stmt_node[prog.main.body[3].sid]
        fa.result.before[head] = fa.result.before[head].set("i", Interval(0, 0))
        violations, _ = _assert_tiers_agree(monkeypatch, _soundness(prog, analyses))[0]
        assert len(violations) == 300

    def test_oracle_enum_program_tiers_up_after_one_run(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "enum.mini"
        path.write_text(ORACLE_ENUM_SHAPED)
        assert _tier_ups(monkeypatch, _check(path)) == [1, 1, 1]

    def test_corpus_and_fuzz_programs_stay_on_tier0(self, monkeypatch, tmp_path, capsys):
        # As with the step counter alone: none runs long enough to pay for tier 1.
        path = tmp_path / "p.mini"
        ups = []
        for source in self.SOURCES:
            path.write_text(source)
            ups += _tier_ups(monkeypatch, _check(path))
        assert len(ups) == 3 * len(self.SOURCES)
        assert ups.count(None) == len(ups)

    def test_values_too_long_for_a_literal(self, monkeypatch, tmp_path, capsys):
        # 7 squared 14 times has 13,847 digits, more than CPython writes in
        # decimal; the analysis bounds y by it, and `optimize` propagates it.
        path = tmp_path / "huge.mini"
        path.write_text(HUGE_VALUE)
        compile_tier, tiers = intana.oracle._tier_up, []

        def spy(tier0):
            tiers.append(compile_tier(tier0))
            return tiers[-1]
        monkeypatch.setattr(intana.oracle, "_tier_up", spy)
        assert intana.cli.main(["check", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "result: clean"
        # All three enumerations reach the budget.  Tier 1 refuses the
        # monitored input, whose bounds hold the value, and the optimized
        # program, which holds it as a literal, but not the instrumented
        # program, whose assumptions bound only i.
        assert [tier is None for tier in tiers] == [True, True, False]

    def test_one_long_execution_compiles_nothing(self, monkeypatch):
        prog = parse_program("fn main() { int i = 0; while (i < 5000) { i = i + 1; } }")
        assert _tier_ups(monkeypatch, lambda: intana.oracle.enumerate_executions(prog)) \
            == [None]

    @pytest.mark.parametrize("monitored", [True, False])
    @pytest.mark.parametrize("source,step_limit,verdict", [
        (LOOP_PAST_THE_LIMIT, 200, STEP_LIMIT),
        ("fn main() { int k = nondet(0, 99); int i = 0; while (i < 20) { i = i + 1; }"
         " assert(i < k - 100); }", 10_000, ASSERT_FAILED),
        ("fn main() { int k = nondet(0, 99); int i = 10; int s = 0;"
         " while (i >= 0) { s = s + k / i; i = i - 1; } }", 10_000, DIV_BY_ZERO),
    ], ids=["step-limit", "assert", "div-by-zero"])
    def test_every_execution_halts_after_predicted_tier_up(self, monkeypatch, source,
                                                           step_limit, verdict, monitored):
        prog = parse_program(source)
        if monitored:
            # Under the soundness monitor, on a sound and on a shifted analysis.
            analyses = analyze_program(prog, AnalysisConfig())
            (violations, runs), tier0_runs = _assert_tiers_agree(
                monkeypatch, _soundness(prog, analyses, step_limit), tier_up=None)
            assert violations == []
            _shift_up(analyses)
            _assert_tiers_agree(monkeypatch, _soundness(prog, analyses, step_limit), tier_up=None)
        else:
            runs, tier0_runs = _assert_tiers_agree(
                monkeypatch, _executions(prog, step_limit=step_limit, record_trace=False),
                tier_up=None)
        assert tier0_runs == 1
        assert {v for _, _, v, _, _ in runs} == {verdict} and len(runs) > 50

    def test_switch_mid_enumeration(self, monkeypatch):
        prog = parse_program(NONDET_IN_LOOP_AND_CALLEE[2])
        nodes = sum(len(build_cfg(fn).nodes) for fn in prog.functions.values())
        runs, tier0_runs = _agree_under_every_monitor(monkeypatch, prog, tier_up=40 / nodes)
        assert 1 < tier0_runs < len(runs)

    @pytest.mark.parametrize("step_limit", [10_000, 25])
    @pytest.mark.parametrize("source", NONDET_IN_LOOP_AND_CALLEE,
                             ids=["loop", "callee-then-loop", "loop-calls-callee"])
    def test_nondet_in_loops_and_callees(self, monkeypatch, source, step_limit):
        _agree_under_every_monitor(monkeypatch, parse_program(source), step_limit)

    def test_step_limit_inside_callee(self, monkeypatch):
        prog = parse_program(STEP_LIMIT_IN_CALLEE)
        runs, _ = _agree_under_every_monitor(monkeypatch, prog, step_limit=40)
        halts = [node[0] for _, _, verdict, node, _ in runs if verdict == STEP_LIMIT]
        assert halts == ["main", "spin", "spin", "spin"]

    @pytest.mark.parametrize("source", [DIV_BY_ZERO_IN_CONDITION, DIV_BY_ZERO_IN_ARGUMENT],
                             ids=["condition", "call-argument"])
    def test_division_by_zero(self, monkeypatch, source):
        runs, _ = _agree_under_every_monitor(monkeypatch, parse_program(source))
        assert [(verdict, node and node[0]) for _, _, verdict, node, _ in runs] \
            == [(OK, None), (OK, None), (DIV_BY_ZERO, "main"), (OK, None), (OK, None)]

    @pytest.mark.parametrize("source,fname,index", [
        ("fn half(v) { int h; h = v / 2; return h; }"
         " fn main() { int d = nondet(0, 1); int r; r = half(6 / d); }", "main", 2),
        ("fn main() { int d = nondet(0, 1); int x = 0; if (6 / d > 1) { x = 1; } }", "main", 2),
        ("fn main() { int d = nondet(0, 1); int x = 0; while (x < 6 / d) { x = x + 3; } }",
         "main", 2),
        ("fn main() { int d = nondet(0, 1); assert(6 / d > 0); }", "main", 1),
        ("fn ratio(v) { return 6 / v; } fn main() { int d = nondet(0, 1); int r; r = ratio(d); }",
         "ratio", 0),
    ], ids=["call-argument", "if", "while", "assert", "return"])
    def test_zero_divisor_names_its_node(self, monkeypatch, source, fname, index):
        # The node of the statement whose expression divides: for a call
        # argument, the caller's call node.
        prog = parse_program(source)
        fn = prog.functions[fname]
        node = (fname, build_cfg(fn).stmt_node[fn.body[index].sid])
        expected = [((0,), DIV_BY_ZERO, node), ((1,), OK, None)]
        traced = enumerate_executions(prog)  # the trace recorder keeps tier 0
        assert [(r.choices, r.verdict, r.verdict_node) for r in traced] == expected
        runs, _ = _agree_under_every_monitor(monkeypatch, prog)
        assert [(choices, verdict, where) for choices, _, verdict, where, _ in runs] == expected

    def test_exit_after_return_inside_loop(self, monkeypatch):
        prog = parse_program("""
            fn find(n) {
                int i = 0;
                while (i < 10) { if (i == n) { return i; } i = i + 1; }
                return -1;
            }
            fn main() { int k = nondet(0, 12); int r; r = find(k); }
        """)
        _agree_under_every_monitor(monkeypatch, prog)
        # A wrong exit state of `find`: the frames that leave it with i > 8
        # fail it, whether they return inside the loop or after it.
        analyses = analyze_program(prog, AnalysisConfig())
        fa = analyses["find"]
        exit_node = fa.cfg.exit
        fa.result.before[exit_node] = fa.result.before[exit_node].set("i", Interval(0, 8))
        violations, _ = _assert_tiers_agree(monkeypatch, _soundness(prog, analyses))[0]
        assert [(v.function, v.node, v.var, v.value, v.choices) for v in violations] == [
            ("find", exit_node, "i", i, (k,)) for k, i in [(9, 9), (10, 10), (11, 10), (12, 10)]]

    def test_mini_names_that_are_python_names(self, monkeypatch):
        runs, _ = _agree_under_every_monitor(monkeypatch, parse_program(PYTHON_NAMES))
        assert len(runs) == 12
        assert set(runs[0][1]) == {"x", "v_x", "True", "class", "_L", "_k0", "s", "env"}
        assert [env.get("lambda") for _, env, _, _, _ in runs] == [
            None, None, 5, None, None, 6, None, 5, 6, 5, 6, 7]
        assert [verdict for _, _, verdict, _, _ in runs].count(ASSERT_FAILED) == 2

    @pytest.mark.parametrize("source", [SEGMENTS, HALTS_IN_A_SEGMENT],
                             ids=["segments", "halts-in-a-segment"])
    def test_step_limit_on_every_node(self, monkeypatch, source):
        # Each limit makes the step past it fall on the next node, so the
        # runs of limits cover every node of every segment.
        prog = parse_program(source)
        halts = set()
        for step_limit in range(1, _most_steps(prog) + 2):
            runs, _ = _agree_under_every_monitor(monkeypatch, prog, step_limit)
            halts |= {node for _, _, verdict, node, _ in runs if verdict == STEP_LIMIT}
        nodes = {(fname, n) for fname, fn in prog.functions.items()
                 for n, node in build_cfg(fn).nodes.items() if node.kind in ("stmt", "cond")}
        first = min(n for fname, n in nodes if fname == "main")
        assert halts == nodes - {("main", first)}  # a limit of 1 lets the first step run

    @pytest.mark.parametrize("source", [UNEVEN_BRANCHES, NESTED_LOOPS, LOOP_IN_CALLEE,
                                        DRAWS_IN_A_LOOP],
                             ids=["uneven-branches", "nested", "callee", "draws"])
    def test_loops_at_every_step_limit(self, monkeypatch, source):
        prog = parse_program(source)
        for step_limit in range(1, _most_steps(prog) + 2):
            _agree_under_every_monitor(monkeypatch, prog, step_limit)

    def test_step_tests_are_exact(self, monkeypatch):
        # A loop whose paths back to the head differ in length tests each
        # segment; one whose paths are equally long tests each iteration at
        # its head, in a callee too.
        uneven = _tier1_source(parse_program(UNEVEN_BRANCHES))
        assert "if s > 10000: raise _Deopt(" in uneven and "if s + " not in uneven
        callee = _tier1_source(parse_program(EVEN_LOOP_IN_CALLEE)).split("def ")[1]
        assert callee.startswith("_f0(") and "if s + 4 > 10000: raise _Deopt(" in callee
        # So a failed test hands tier 0 only runs that halt within the steps
        # it guards: tier 0 never runs a frame to its end.
        verdicts = set()
        for source in (UNEVEN_BRANCHES, LOOP_IN_CALLEE, EVEN_LOOP_IN_CALLEE):
            prog = parse_program(source)
            for step_limit in range(1, _most_steps(prog) + 2):
                handbacks = _handbacks(monkeypatch, _executions(
                    prog, step_limit=step_limit, record_trace=False))
                verdicts |= {verdict for kind, *_, verdict in handbacks if kind == "_Deopt"}
                if source is EVEN_LOOP_IN_CALLEE:
                    _agree_under_every_monitor(monkeypatch, prog, step_limit)
        assert verdicts == {STEP_LIMIT}

    def test_resume_raises_for_a_frame_run_to_its_end(self):
        # Every step test is exact, so a frame that tier 0 runs to its end,
        # the entry frame's too, was handed back before steps that fit.
        prog = parse_program("fn f(a) { int b = a + 1; return b; } "
                             "fn main() { int x; x = f(1); }")
        tier0 = intana.oracle._Interpreter(prog, 100)
        for fname, env in (("f", {"a": 1}), ("main", {})):
            cfg = tier0.cfgs[fname]
            first = cfg.successors(cfg.entry)[0][0]  # the node the entry falls through to
            with pytest.raises(RuntimeError, match="deoptimized %s" % fname):
                tier0.resume(fname, intana.oracle._Deopt(first, 0), env)

    def test_resume_finishes_a_deopt(self):
        # From any point of a run that halts, tier 0 finishes the entry
        # frame with the run's outcome and raises a callee's halt on; a
        # callee frame that would run to its end was handed back too early.
        prog = parse_program("fn f(a) { int b = a + 1; b = b * 2; return b; }"
                             " fn main() { int x = 3; x = x + 1; int y; y = f(x); y = y - 1; }")
        exits = {fname: build_cfg(fn).exit for fname, fn in prog.functions.items()}
        for step_limit in range(1, 8):
            (run,) = enumerate_executions(prog, step_limit=step_limit)
            points = [(fname, n, env) for fname, n, env in run.trace if n != exits[fname]]
            for steps, (fname, n, env) in enumerate(points):
                tier0 = intana.oracle._Interpreter(prog, step_limit)
                stop = intana.oracle._Deopt(n, steps)
                if fname == "main":
                    assert tier0.resume(fname, stop, dict(env)) == (
                        run.verdict, run.verdict_node, run.env)
                elif run.verdict_node[0] == "f":
                    with pytest.raises(intana.oracle._Halt) as halt:
                        tier0.resume(fname, stop, dict(env))
                    assert (halt.value.verdict, halt.value.node) == (
                        run.verdict, run.verdict_node)
                else:
                    with pytest.raises(RuntimeError, match="deoptimized f"):
                        tier0.resume(fname, stop, dict(env))

    def test_resume_ends_the_execution_at_a_halt(self):
        prog = parse_program("fn main() { int x = 1; }")
        tier0, env = intana.oracle._Interpreter(prog, 100), {"x": 1}
        outcome = tier0.resume("main", intana.oracle._Halt(DIV_BY_ZERO, ("main", 7)), env)
        assert outcome == (DIV_BY_ZERO, ("main", 7), env) and outcome[2] is env

    def test_resume_runs_a_redo_again_on_tier0(self):
        # The chooser holds the values the run started from, then a range
        # minimum per draw past them; tier 0 runs them from the start.
        prog = parse_program(DRAWS_IN_A_LOOP)
        for values, highs in (([], []), ([0], [2]), ([2], []), ([1, 0], [2, 2]),
                              ([2, 2, 1], [2])):
            tier0, reference = (intana.oracle._Interpreter(prog, 10_000) for _ in range(2))
            tier0.chooser.values[:], tier0.chooser.highs[:] = values, highs
            outcome = tier0.resume("main", intana.oracle._Redo(), {"i": 1, "s": 0})
            assert outcome == reference.run(list(values))
            assert (tier0.chooser.values, tier0.chooser.highs, tier0.steps) == (
                reference.chooser.values, reference.chooser.highs, reference.steps)

    def test_every_def_has_one_handler(self):
        # Tier 0 takes over only through `resume`: the entry def hands it
        # every deopt, halt and redo, and every other def its deopts.
        for prog, emitter, source in _emitted():
            handlers = {}
            for line in source.splitlines():
                if line.startswith("def "):
                    name = line[len("def "):line.index("(")]
                    handlers[name] = []
                elif line.lstrip().startswith("except"):
                    handlers[name].append(line.split(" as ")[0].strip())
            entry = emitter.names[prog.main.name]
            assert handlers == {
                name: ["except (_Deopt, _Halt, _Redo)" if name == entry else "except _Deopt"]
                for name in emitter.names.values()}

    def test_every_value_is_a_literal(self):
        # The namespace holds only code and the chooser's lists, and the
        # source names no value: an infinite bound is no side of a test.
        code = {"_Halt", "_Deopt", "_Redo", "_resume", "_divide", "_U", "_env", "_V", "_H"}
        values = re.compile(r"_k\d+|_L|_OK|_ASSERT|_ASSUME|inf")
        for _, emitter, source in _emitted():
            exec(compile(source, "<intana tier 1>", "exec"), emitter.namespace)
            assert set(emitter.namespace) == code | set(emitter.names.values()) \
                | {"__builtins__"}
            emitter.namespace.clear()
            assert not [node.id for node in ast.walk(ast.parse(source))
                        if isinstance(node, ast.Name) and values.fullmatch(node.id)]

    @pytest.mark.parametrize("step_limit", [10_000, 9, 12, 15, 18])
    def test_handbacks_after_draws_leave_tier0_lists(self, monkeypatch, step_limit):
        # At a deopt or a redo, the chooser holds what tier 0 would after
        # the same draws: the values that run draws, as far as it has drawn
        # or the prefix it started from goes, and the high end of each range.
        prog = parse_program(DRAWS_IN_A_LOOP)
        analyses = analyze_program(prog, AnalysisConfig())
        # A wrong state after the draw in the loop body: a draw of 2 redoes.
        fa = analyses["main"]
        point = fa.cfg.stmt_node[prog.main.body[2].body[1].sid]
        fa.result.before[point] = fa.result.before[point].set("x", Interval(0, 1))
        handbacks = _handbacks(monkeypatch, _executions(prog, step_limit=step_limit,
                                                        record_trace=False))
        handbacks += _handbacks(monkeypatch, _soundness(prog, analyses, step_limit))
        # Of each kind, some come after the run has drawn.
        kinds = {kind for kind, _, _, highs, _ in handbacks if highs}
        assert kinds == ({"_Redo"} if step_limit == 10_000 else {"_Redo", "_Deopt"})
        for _, start, values, highs, _ in handbacks:
            tier0 = intana.oracle._Interpreter(prog, step_limit)
            tier0.run(list(start))
            assert highs == tier0.chooser.highs[:len(highs)]
            assert values == tier0.chooser.values[:max(len(start), len(highs))]

    @pytest.mark.parametrize("source,step_limit,shifted,expected", [
        (HALTS_IN_A_SEGMENT, 10_000, False,
         {(OK, None), (ASSUME_INFEASIBLE, "main"), (ASSERT_FAILED, "main"),
          (DIV_BY_ZERO, "main")}),
        (RETURN_IN_MAIN, 10_000, False, {(OK, None)}),
        (HALTS_IN_A_CALLEE, 10_000, False,
         {(OK, None), (DIV_BY_ZERO, "ratio"), (ASSERT_FAILED, "ratio")}),
        (UNEVEN_BRANCHES, 20, False, {(STEP_LIMIT, "main")}),
        (STEP_LIMIT_IN_CALLEE, 40, False, {(OK, None), (STEP_LIMIT, "main"), (STEP_LIMIT, "spin")}),
        (HALTS_IN_A_SEGMENT, 10_000, True, {"_Redo"}),
    ], ids=["main-halts", "return-in-main", "callee-halts", "step-limit-in-main",
            "step-limit-in-callee", "failed-bounds"])
    def test_entry_def_returns_an_outcome_or_raises_redo(self, monkeypatch, source, step_limit,
                                                        shifted, expected):
        # Every way an execution ends on tier 1, a deopt's included, is an
        # outcome the entry def returns with an int step count; a failed
        # bound raises a redo inside it, which its handler hands to `resume`.
        prog = parse_program(source)
        _agree_under_every_monitor(monkeypatch, prog, step_limit)
        if shifted:
            analyses = analyze_program(prog, AnalysisConfig())
            _shift_up(analyses)
            enumerate = _soundness(prog, analyses, step_limit)
        else:
            enumerate = _executions(prog, step_limit=step_limit, record_trace=False)
        assert set(_entry_calls(monkeypatch, enumerate)) == expected

    def test_connectives_skip_only_operands_that_cannot_halt(self, monkeypatch):
        # Tier 0 evaluates both operands: `6 / d` halts when d is 0, even
        # where `x > 5` is false.
        prog = parse_program("""
            fn main() { int d = nondet(-1, 1); int x = 0;
                while (x < 3) { if ((x > 5) && (6 / d > 0) || (x < d)) { x = x + 1; } x = x + 1; }
            }
        """)
        source = _tier1_source(prog)
        assert " & (_divide(" in source and " or (v_x < v_d)" in source
        runs, _ = _agree_under_every_monitor(monkeypatch, prog)
        assert [verdict for _, _, verdict, _, _ in runs] == [OK, DIV_BY_ZERO, OK]

    def test_draws_inside_expressions(self, monkeypatch):
        # Only the AST puts a draw inside an expression: here in call
        # arguments, and after a division that halts before it when k is 0.
        # Tier 1 refuses such a program, and tier 0 runs it.
        prog = parse_program("""
            fn diff(a, b) { int d; d = a - b; return d; }
            fn main() { int k = nondet(0, 2); int r; r = diff(0, 0); int x = 0; x = k; }
        """)
        prog.main.body[2].args = (Nondet(0, 1), Binary("-", Nondet(5, 6), Var("k")))
        prog.main.body[4].rhs = Binary("+", Binary("/", IntLit(6), Var("k")), Nondet(-1, 0))
        runs = _refused(monkeypatch, _executions(prog, record_trace=False))
        assert _refused(monkeypatch, _soundness(prog, analyze_program(prog, AnalysisConfig())))[0] \
            == []
        assert [(choices, verdict) for choices, _, verdict, _, _ in runs][:5] == [
            ((0, 0, 5), DIV_BY_ZERO), ((0, 0, 6), DIV_BY_ZERO), ((0, 1, 5), DIV_BY_ZERO),
            ((0, 1, 6), DIV_BY_ZERO), ((1, 0, 5, -1), OK)]
        assert runs[4][1] == {"k": 1, "r": -4, "x": 5}

    def test_halts_in_a_segment(self, monkeypatch):
        runs, _ = _agree_under_every_monitor(monkeypatch, parse_program(HALTS_IN_A_SEGMENT))
        assert [(choices, verdict) for choices, _, verdict, _, _ in runs] == [
            ((-1, 0), OK), ((-1, 1), ASSUME_INFEASIBLE), ((-1, 2), OK),
            ((0, 0), DIV_BY_ZERO), ((0, 1), DIV_BY_ZERO), ((0, 2), DIV_BY_ZERO),
            ((1, 0), ASSERT_FAILED), ((1, 1), ASSUME_INFEASIBLE), ((1, 2), ASSERT_FAILED)]
        # A halt leaves the environment as it was before the halting node.
        assert [env["x"] for _, env, _, _, _ in runs] == [-10, -6, -10, 1, 2, 3, 7, 6, 7]

    @pytest.mark.parametrize("kind", ["if", "while"])
    def test_deep_block_stays_on_tier0(self, monkeypatch, kind):
        # Nested deeper than one generated def may hold its blocks.
        prog = parse_program(_deep_block(kind))
        runs = _refused(monkeypatch, _executions(prog, record_trace=False))
        assert [(env["acc"], verdict) for _, env, verdict, _, _ in runs] == [
            (1, OK), (4, OK), (9, ASSERT_FAILED), (22, OK), (37, OK)]
        analyses = analyze_program(prog, AnalysisConfig())
        _shift_up(analyses)
        assert _refused(monkeypatch, _soundness(prog, analyses))[0]

    def test_monitor_without_bounds_stays_on_tier0(self, monkeypatch):
        # Tier 1 only inlines a monitor's bounds, so it never runs the trace
        # recorder or another monitor that must see every point.
        prog = parse_program(ORACLE_ENUM_SHAPED)
        runs = _refused(monkeypatch, _executions(prog))
        assert len(runs) == 392 and all(trace for *_, trace in runs)

        def counted():
            monitor = _PointCounter()
            return _states(enumerate_executions(prog, monitor=monitor)), monitor.points
        assert _refused(monkeypatch, counted)[1] == sum(len(trace) for *_, trace in runs)

    def test_violations_keep_one_order_on_both_tiers_and_every_hash_seed(self, monkeypatch):
        # Environments' key order is unspecified, and varies with the run
        # here; a point's violations follow its analysis state's names.
        prog = parse_program(ORDER_VARIES)
        analyses = analyze_program(prog, AnalysisConfig())
        _shift_up(analyses)
        limits = range(1, _most_steps(prog) + 2, 2)
        for step_limit in limits:
            _assert_tiers_agree(monkeypatch, _soundness(prog, analyses, step_limit))
            # Recorded points replay to the violations, in order, that the
            # soundness monitor finds as it runs.
            traced = enumerate_executions(prog, step_limit=step_limit)
            assert check_soundness(prog, analyses, step_limit, executions=traced) == \
                check_soundness(prog, analyses, step_limit)
        src = str(pathlib.Path(intana.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = {subprocess.run(
            [sys.executable, "-c", _VIOLATIONS_ON_BOTH_TIERS, ORDER_VARIES]
            + [str(limit) for limit in limits],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            check=True, capture_output=True, text=True).stdout for seed in ("0", "1", "2", "3")}
        assert len(outputs) == 1
        tier0, tier1 = json.loads(outputs.pop())
        assert tier0 == tier1
        reference = _reference_violations(analyses, enumerate_executions(
            prog, step_limit=limits[-1]))
        assert len(reference) > 50
        assert tier0[-1] == json.loads(json.dumps([dataclasses.astuple(v) for v in reference]))

    def test_runs_cut_short_finish_where_tier1_stopped_them(self, monkeypatch, tmp_path,
                                                           capsys):
        # Every run hits the limit: tier 0 starts only the first from the
        # entry, and finishes each later one from the segment that passed it.
        path = tmp_path / "loop.mini"
        path.write_text(LOOP_PAST_THE_LIMIT)
        calls = _tier0_calls(monkeypatch, lambda: intana.cli.main(
            ["check", "--step-limit", "2000", str(path)]))
        assert calls == [(1, 50)] * 3
        assert capsys.readouterr().out.endswith("result: incomplete\n")


def _nested_whiles(depth: int) -> str:
    counters = ["c%d" % i for i in range(depth)]
    body = "n = n + 1;"
    for c in reversed(counters):
        body = "while (%s < 1) { %s = %s + 1; %s }" % (c, c, c, body)
    return "fn main() { int n = nondet(0, 199); %s %s }" % (
        " ".join("int %s = 0;" % c for c in counters), body)


def _assignment(rhs: str) -> str:
    return "fn main() { int x = nondet(0, 399); int y = %s; }" % rhs


def _conjunction(terms: int) -> str:
    return "fn main() { int x = nondet(0, 399); if (%s) { x = 0; } }" % " && ".join(
        ["x < 300"] * terms)


# Runs `check` on argv[1] with tier 1 never compiled, then as shipped, and
# prints both outputs and the tiers the second run compiled.
_CHECK_BOTH_TIERS = """
import contextlib, io, json, sys
import intana.oracle
from intana.cli import main

def check(tier_up):
    out, err, tiers = io.StringIO(), io.StringIO(), []
    compile_tier = intana.oracle._tier_up
    def spy(tier0):
        tier = compile_tier(tier0)
        tiers.append(tier is not None)
        return tier
    intana.oracle._tier_up = spy
    intana.oracle.TIER_UP_STEPS_PER_NODE = tier_up
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", sys.argv[1]])
    intana.oracle._tier_up = compile_tier
    return [code, out.getvalue(), err.getvalue(), tiers]

shipped = intana.oracle.TIER_UP_STEPS_PER_NODE
print(json.dumps([check(float("inf")), check(shipped)]))
"""


class TestCompilerLimits:
    """Inputs at depths `check` accepts, heavy enough that tier 1 would run
    them, check exactly as on tier 0 alone.  The emitter refuses a program
    with a block or an expression deeper than one generated def may hold,
    and tiers up the deepest it accepts."""

    @pytest.mark.parametrize("source,compiled", [
        (_nested_whiles(15), True),
        (_nested_whiles(16), False),
        (_nested_whiles(21), False),
        (_nested_whiles(40), False),
        (_assignment(" + ".join(["x"] * 32)), True),
        (_assignment(" + ".join(["x"] * 33)), False),
        (_assignment(" + ".join(["x"] * 250)), False),
        (_assignment(" + ".join(["x"] * 980)), False),
        # Parentheses add no node: this is `x`, and tier 1 runs it.
        (_assignment("(" * 320 + "x" + ")" * 320), True),
        (_assignment("x + (" * 239 + "x" + ")" * 239), False),
        (_conjunction(490), False),
    ], ids=["while-15", "while-16", "while-21", "while-40", "sum-32", "sum-33", "sum-250",
            "sum-980", "parens-320", "right-nested-240", "and-490"])
    def test_check_matches_tier0(self, tmp_path, source, compiled):
        path = tmp_path / "deep.mini"
        path.write_text(source)
        src = str(pathlib.Path(intana.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        tier0, shipped = json.loads(subprocess.run(
            [sys.executable, "-c", _CHECK_BOTH_TIERS, str(path)], env=env, check=True,
            capture_output=True, text=True).stdout)
        assert tier0[:3] == shipped[:3]
        assert tier0[0] == 0 and tier0[1].endswith("result: clean\n")
        assert tier0[3] == [] and shipped[3]
        assert (True in shipped[3]) == compiled, shipped[3]
