"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Budgets (wall clock, generous hardware-independent ceilings):
  1. soundness fuzz            < 600 s
  2. optimization equivalence  < 600 s
  3. instrumentation invariance (no stated budget; bounded fuzz set)
  4. contractor suite          < 120 s
  5. interval algebra          <  60 s
"""

import glob
import itertools
import json
import operator
import pathlib
import random
import time

import numpy as np

from intana.absint import AnalysisConfig, analyze_program
from intana.contractor import (
    classify_condition,
    lower_comparison,
    parse_box,
)
from intana.fuzz import random_constraint_box, random_program
from intana.instrument import instrument_program
from intana.interval import Interval, Truth3, and3, interval_binop, not3, or3
from intana.lang import (
    Binary,
    BoolLit,
    IntLit,
    Nondet,
    Var,
    free_vars,
    parse_condition,
    parse_program,
    program_to_source,
)
from intana.optimize import optimize_program
from intana.oracle import check_equivalence, check_soundness, enumerate_executions

HERE = pathlib.Path(__file__).parent
CORPUS = sorted(glob.glob(str(HERE.parent / "corpus" / "*.mini")))

ALL_CONFIGS = [AnalysisConfig(interval_arith=ia, use_contractors=uc)
               for ia in (True, False) for uc in (True, False)]


def report(capfd, number, name, ok, detail=""):
    with capfd.disabled():
        status = "PASS" if ok else "FAIL"
        print("ACCEPTANCE %d %s: %s%s" % (number, status, name,
                                          " (%s)" % detail if detail else ""))
    assert ok, "%s %s" % (name, detail)


# --- independent concrete evaluation (test-local oracle) ---------------------

def tdiv(a, b):
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def eval_point(e, env):
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if e.__class__.__name__ == "Unary":
        v = eval_point(e.operand, env)
        return -v if e.op == "neg" else not v
    a, b = eval_point(e.left, env), eval_point(e.right, env)
    if e.op == "/":
        if b == 0:
            raise ZeroDivisionError
        return tdiv(a, b)
    return {"+": a + b, "-": a - b, "*": a * b,
            "==": a == b, "!=": a != b, "<": a < b,
            "<=": a <= b, ">": a > b, ">=": a >= b}[e.op]


def integer_solutions(cond, box):
    names = sorted(box)
    for point in itertools.product(*[box[n].values() for n in names]):
        env = dict(zip(names, point))
        try:
            if eval_point(cond, env):
                yield env
        except ZeroDivisionError:
            continue


# --- criterion 1 --------------------------------------------------------------

def test_criterion_1_soundness_fuzz(capfd):
    start = time.time()
    violations = []
    for seed in range(1000):
        prog = parse_program(random_program(seed))
        runs = enumerate_executions(prog, step_limit=10_000, cap=100_000)
        for config in ALL_CONFIGS:
            analyses = analyze_program(prog, config)
            found = check_soundness(prog, analyses, executions=runs)
            if found:
                violations.append((seed, config, found[0]))
    elapsed = time.time() - start
    ok = not violations and elapsed < 600
    report(capfd, 1, "soundness fuzz, 1000 programs x 4 configs", ok,
           "%d violations, %.1fs" % (len(violations), elapsed))


# --- criterion 2 --------------------------------------------------------------

def test_criterion_2_optimization_equivalence(capfd):
    start = time.time()
    failures = []
    for seed in range(2000, 2500):
        prog = parse_program(random_program(seed))
        optimized, _, _ = optimize_program(prog, AnalysisConfig())
        result = check_equivalence(prog, optimized, step_limit=100_000)
        if not result:
            failures.append((seed, result.counterexample))
    # The pipeline must also be safe with each knob disabled.
    for seed in range(2000, 2100):
        prog = parse_program(random_program(seed))
        for config in (AnalysisConfig(use_contractors=False),
                       AnalysisConfig(interval_arith=False)):
            optimized, _, _ = optimize_program(prog, config)
            if not check_equivalence(prog, optimized, step_limit=100_000):
                failures.append((seed, config))
    elapsed = time.time() - start
    ok = not failures and elapsed < 600
    report(capfd, 2, "optimization equivalence, 500 fuzzed programs", ok,
           "%d failures, %.1fs" % (len(failures), elapsed))


# --- criterion 3 --------------------------------------------------------------

def test_criterion_3_instrumentation_invariance(capfd):
    failures = []
    scope_failures = []
    for seed in range(3000, 3500):
        prog = parse_program(random_program(seed))
        config = AnalysisConfig()
        analyses = analyze_program(prog, config)
        instrumented, points = instrument_program(prog, analyses, config)
        reparsed = parse_program(program_to_source(instrumented))
        if not check_equivalence(prog, reparsed, step_limit=200_000):
            failures.append(seed)
        for point in points:
            if not free_vars(point.emitted) <= point.vars:
                scope_failures.append((seed, point))
    ok = not failures and not scope_failures
    report(capfd, 3, "instrumentation invariance, 500 fuzzed programs", ok,
           "%d behavior, %d scope" % (len(failures), len(scope_failures)))


# --- criterion 4 --------------------------------------------------------------

def contractor_violations(pairs):
    # Resolved through the module so criterion 8's patches are visible.
    import intana.contractor as contractor
    issues = []
    hull_checked = 0
    for seed, (source, box, hull_checkable) in pairs:
        cond = parse_condition(source, list(box))
        c = lower_comparison(cond, box)
        out = contractor.hc4_revise(c, box)
        if not out.leq(box):
            issues.append((seed, "contraction"))
        solutions = list(integer_solutions(cond, box))
        for env in solutions:
            if any(env[n] not in out[n] for n in box):
                issues.append((seed, "correctness"))
                break
        fixed = contractor.contract_fixpoint([c], box, max_rounds=500)
        if contractor.contract_fixpoint([c], fixed, max_rounds=500) != fixed:
            issues.append((seed, "idempotence"))
        if hull_checkable:
            hull_checked += 1
            if not solutions:
                if not out.is_bottom:
                    issues.append((seed, "hull-empty"))
            else:
                for name in box:
                    values = [env[name] for env in solutions]
                    if (out[name].lo, out[name].hi) != (min(values), max(values)):
                        issues.append((seed, "hull"))
                        break
    return issues, hull_checked


def test_criterion_4_contractor_suite(capfd):
    start = time.time()
    pairs = [(seed, random_constraint_box(seed)) for seed in range(200)]
    issues, hull_checked = contractor_violations(pairs)
    elapsed = time.time() - start
    ok = not issues and hull_checked >= 40 and elapsed < 120
    report(capfd, 4, "contractor suite, 200 constraint/box pairs", ok,
           "%d issues, %d hull-checked, %.1fs" % (len(issues), hull_checked, elapsed))


# --- criterion 5 --------------------------------------------------------------

def test_criterion_5_interval_algebra(capfd):
    start = time.time()
    issues = 0

    # Exhaustive tightness within [-8, 8], checked against numpy image sets.
    intervals = [Interval(lo, hi) for lo in range(-8, 9) for hi in range(lo, 9)]
    arrays = {iv: np.arange(iv.lo, iv.hi + 1) for iv in intervals}
    for a, b in itertools.product(intervals, repeat=2):
        va, vb = arrays[a], arrays[b]
        for op, table in (("+", np.add.outer(va, vb)),
                          ("-", np.subtract.outer(va, vb)),
                          ("*", np.multiply.outer(va, vb))):
            got = interval_binop(op, a, b)
            if (got.lo, got.hi) != (int(table.min()), int(table.max())):
                issues += 1
        nonzero = vb[vb != 0]
        got = interval_binop("/", a, b)
        if nonzero.size == 0:
            issues += 0 if got.is_bottom else 1
        else:
            table = np.trunc(va[:, None] / nonzero[None, :]).astype(int)
            if got.is_bottom or (got.lo, got.hi) != (int(table.min()), int(table.max())):
                issues += 1

    # All 21 Kleene cases.
    T, F, M = Truth3.TRUE, Truth3.FALSE, Truth3.MAYBE
    and_table = {(T, T): T, (T, F): F, (T, M): M,
                 (F, T): F, (F, F): F, (F, M): F,
                 (M, T): M, (M, F): F, (M, M): M}
    or_table = {(T, T): T, (T, F): T, (T, M): T,
                (F, T): T, (F, F): F, (F, M): M,
                (M, T): T, (M, F): M, (M, M): M}
    not_table = {T: F, F: T, M: M}
    for (x, y), want in and_table.items():
        issues += and3(x, y) is not want
    for (x, y), want in or_table.items():
        issues += or3(x, y) is not want
    for x, want in not_table.items():
        issues += not3(x) is not want

    # Widening chains stabilize within 3 steps.
    rng = random.Random(5)
    for _ in range(500):
        lo = rng.randint(-50, 50)
        current = Interval(lo, lo + rng.randint(0, 10))
        steps = 0
        for _ in range(10):
            grow = Interval(current.lo - rng.randint(0, 5),
                            current.hi + rng.randint(0, 5))
            widened = current.widen(current.join(grow))
            if widened == current:
                break
            current = widened
            steps += 1
        if steps > 3 or current.widen(current) != current:
            issues += 1

    elapsed = time.time() - start
    ok = issues == 0 and elapsed < 60
    report(capfd, 5, "interval algebra: exhaustive tightness, Kleene, widening",
           ok, "%d issues, %.1fs" % (issues, elapsed))


# --- criterion 6 --------------------------------------------------------------

def test_criterion_6_worked_examples(capfd):
    ok = True
    detail = []

    prog = parse_program(
        "fn main() { int i = 0; while (i < 10) { i = i + 1; } }")
    fa = analyze_program(prog, AnalysisConfig())["main"]
    head = next(iter(fa.cfg.loop_heads))
    body_node = fa.cfg.stmt_node[prog.main.body[1].body[0].sid]
    checks = {
        "head before": (fa.result.before[head].get("i"), Interval(0, 10)),
        "body before": (fa.result.before[body_node].get("i"), Interval(0, 9)),
        "exit": (fa.result.before[fa.cfg.exit].get("i"), Interval(10, 10)),
    }
    for name, (got, want) in checks.items():
        if got != want:
            ok = False
            detail.append("loop %s: %s != %s" % (name, got.render(), want.render()))

    cond = parse_condition("x > 3 && x < 10", ["x"])
    inner = classify_condition(cond, parse_box("x:[4,9]"))
    wide = classify_condition(cond, parse_box("x:[0,20]"))
    if inner.verdict is not Truth3.TRUE:
        ok = False
        detail.append("guard on [4,9] not definitely true")
    if wide.verdict is not Truth3.MAYBE or wide.box_in.as_dict() != {"x": Interval(4, 9)}:
        ok = False
        detail.append("guard on [0,20] misclassified")

    golden = json.loads((HERE / "golden" / "loop_analyze.json").read_text())
    from intana.cli import main as cli_main
    import io, contextlib
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(["analyze", CORPUS[0], "--format", "json"])
    if code != 0 or json.loads(buffer.getvalue()) != golden:
        ok = False
        detail.append("golden analyze dump drifted")

    report(capfd, 6, "worked examples pinned", ok, "; ".join(detail))


# --- criterion 7 --------------------------------------------------------------

def pointwise_leq(tight, loose):
    for fname, fa in tight.items():
        other = loose[fname]
        for nid in fa.cfg.nodes:
            for table in ("before", "after"):
                a = getattr(fa.result, table)[nid]
                b = getattr(other.result, table)[nid]
                if not a.leq(b):
                    return False
    return True


def strictly_tighter_somewhere(tight, loose):
    for fname, fa in tight.items():
        other = loose[fname]
        for nid in fa.cfg.nodes:
            for table in ("before", "after"):
                a = getattr(fa.result, table)[nid]
                b = getattr(other.result, table)[nid]
                if not b.leq(a):
                    return True
    return False


def test_criterion_7_precision_ordering(capfd):
    assert len(CORPUS) == 30
    ordering_failures = []
    strict_improvements = 0
    for path in CORPUS:
        with open(path) as handle:
            prog = parse_program(handle.read())
        with_contractors = analyze_program(prog, AnalysisConfig(use_contractors=True))
        without = analyze_program(prog, AnalysisConfig(use_contractors=False))
        if not pointwise_leq(with_contractors, without):
            ordering_failures.append((path, "contractors"))
        if strictly_tighter_somewhere(with_contractors, without):
            strict_improvements += 1
        arith_on = analyze_program(prog, AnalysisConfig(interval_arith=True))
        arith_off = analyze_program(prog, AnalysisConfig(interval_arith=False))
        if not pointwise_leq(arith_on, arith_off):
            ordering_failures.append((path, "interval-arith"))
    ok = not ordering_failures and strict_improvements >= 5
    report(capfd, 7, "precision ordering on 30-program corpus", ok,
           "%d ordering failures, %d strict contractor improvements"
           % (len(ordering_failures), strict_improvements))


# --- criterion 8 --------------------------------------------------------------

def detect_soundness(seeds=range(25)):
    import intana.absint as absint
    try:
        for seed in seeds:
            prog = parse_program(random_program(seed))
            runs = enumerate_executions(prog, step_limit=5_000, cap=50_000)
            for config in (AnalysisConfig(), AnalysisConfig(use_contractors=False)):
                analyses = absint.analyze_program(prog, config)
                if check_soundness(prog, analyses, executions=runs):
                    return True
    except Exception:
        return True
    return False


EQUIV_PROGRAMS = [
    "fn main() { int x = nondet(0, 1); int y; y = x; assert(y <= 1); }",
    "fn main() { int x = nondet(4, 9); if (x > 3 && x < 10) { x = 0; } }",
    "fn main() { int x = nondet(0, 5); if (x < 2 || x > 8) { x = 1; } }",
    "fn main() { int d = nondet(0, 2); int x = 7;"
    " if (x / d >= 0 || x > 0) { x = 1; } }",
    "fn main() { int y; y = (0 - 7) / 2; assert(y == -3); }",
    "fn main() { int d = nondet(0, 1); int x = 1;"
    " if (false && x / d > 0) { x = 2; } }",
    "fn main() { int x = 1; if (x < 0) { x = 5; } else { x = 7; } }",
]


def detect_equivalence(seeds=range(25), config=None):
    config = config or AnalysisConfig()
    try:
        for source in EQUIV_PROGRAMS:
            prog = parse_program(source)
            optimized, _, _ = optimize_program(prog, config)
            if not check_equivalence(prog, optimized, step_limit=50_000):
                return True
        for seed in seeds:
            prog = parse_program(random_program(seed))
            optimized, _, _ = optimize_program(prog, config)
            if not check_equivalence(prog, optimized, step_limit=50_000):
                return True
    except Exception:
        return True
    return False


def detect_equivalence_plain_intervals():
    return detect_equivalence(config=AnalysisConfig(use_contractors=False))


CONTRACTOR_PAIRS = [
    ("x + y == 5", "x:[0,10], y:[2,4]"),
    ("x * y == 6", "x:[0,10], y:[2,2]"),
    ("x / 3 == 2", "x:[-20,20]"),
    ("x * x <= 4", "x:[-10,10]"),
    ("x - y == 0", "x:[0,5], y:[3,8]"),
    ("x != 5", "x:[0,10]"),
    ("x <= 4", "x:[0,10]"),
    ("x > 2", "x:[0,10]"),
]


def detect_contractor():
    try:
        pairs = [(i, (source, parse_box(box), True))
                 for i, (source, box) in enumerate(CONTRACTOR_PAIRS)]
        # The fixed pairs include repeated variables; only run the
        # hull check on the genuinely single-use linear ones.
        fixed = []
        for i, (source, box, _) in pairs:
            hull = source in ("x + y == 5", "x - y == 0", "x <= 4", "x > 2")
            fixed.append((i, (source, box, hull)))
        issues, _ = contractor_violations(fixed)
        if issues:
            return True
        random_pairs = [(seed, random_constraint_box(seed)) for seed in range(40)]
        issues, _ = contractor_violations(random_pairs)
        return bool(issues)
    except Exception:
        return True


def detect_invariance(seeds=range(25)):
    try:
        crafted = [
            "fn main() { int i = 0; while (i < 10) { i = i + 1; } }",
            "fn main() { int x = nondet(0, 4); assert(x <= 4); }",
        ]
        for source in crafted:
            prog = parse_program(source)
            config = AnalysisConfig()
            analyses = analyze_program(prog, config)
            instrumented, _ = instrument_program(prog, analyses, config)
            if not check_equivalence(prog, instrumented, step_limit=50_000):
                return True
        for seed in seeds:
            prog = parse_program(random_program(seed))
            config = AnalysisConfig()
            analyses = analyze_program(prog, config)
            instrumented, _ = instrument_program(prog, analyses, config)
            if not check_equivalence(prog, instrumented, step_limit=100_000):
                return True
    except Exception:
        return True
    return False


def build_mutants():
    """Each entry: (name, detector, [(module, attribute, replacement)])."""
    import intana.absint as absint
    import intana.contractor as contractor
    import intana.instrument as instrument
    import intana.optimize as optimize

    orig_assign = absint.transfer_assign
    orig_assume = absint.transfer_assume
    orig_eval = absint.eval_expr
    orig_edge = absint._edge_state
    orig_cmp = absint.eval_cmp
    orig_prune = absint._simple_prune
    orig_tdiv_pre = contractor._tdiv_preimage
    orig_assume_expr = instrument.intervals_to_assume_expr
    orig_analyze = absint.analyze

    def assign_off_by_one(state, target, rhs, config=None):
        out = orig_assign(state, target, rhs, config)
        iv = out.get(target) if not out.is_bottom else None
        if iv is not None and not iv.is_bottom and not iv.is_top:
            return out.set(target, iv.shift(1))
        return out

    def nondet_shrunk(e, state, arith=True):
        if isinstance(e, Nondet) and e.bounded:
            return Interval.make(e.lo, e.hi - 1)
        return orig_eval(e, state, arith)

    def assume_forced_positive(state, cond, polarity=True, config=None):
        return orig_assume(state, cond, True, config)

    def edge_swapped(node, after, label, config):
        flipped = {"branch-true": "branch-false",
                   "branch-false": "branch-true"}.get(label, label)
        return orig_edge(node, after, flipped, config)

    def cmp_optimistic(op, a, b):
        verdict = orig_cmp(op, a, b)
        return Truth3.TRUE if verdict is Truth3.MAYBE else verdict

    def nnf_no_flip(e, negated=False):
        return e

    orig_lower = contractor.lower_condition

    def lower_ignores_polarity(cond, polarity, box):
        return orig_lower(cond, True, box)

    def contract_always_empty(cond, box, max_rounds=10):
        return box.as_bottom()

    def prune_off_by_one(cond, state, arith):
        out = orig_prune(cond, state, arith)
        if isinstance(cond, Binary) and cond.op in ("<=", ">=") \
                and isinstance(cond.left, Var) and not out.is_bottom:
            iv = out.get(cond.left.name)
            if not iv.is_bottom and not iv.is_top:
                return out.set(cond.left.name, iv.shift(1))
        return out

    def inv_mul_broken(z, y):
        return Interval(0, 0)

    def tdiv_preimage_narrow(z, yv):
        out = orig_tdiv_pre(z, yv)
        if not out.is_bottom and out.is_finite and out.hi > out.lo:
            return Interval(out.lo, out.hi - 1)
        return out

    def inv_square_broken(z, x):
        return Interval(-1, 1)

    def backward_no_refine(code, box):
        return box

    _orig_hc4 = contractor.hc4_revise

    def hc4_neq_overprunes(c, box):
        if c.relation == "!=":
            if 0 in contractor.eval_expr(Binary("-", c.lhs, c.rhs), box):
                return box.as_bottom()
        return _orig_hc4(c, box)

    _orig_classify = optimize._classify

    def opt_classify_optimistic(cond, state, config):
        verdict = _orig_classify(cond, state, config)
        return Truth3.TRUE if verdict is Truth3.MAYBE else verdict

    _orig_literalize = optimize._literalize

    def literalize_swapped(cond, verdict, state, config, rep):
        flipped = {Truth3.TRUE: Truth3.FALSE, Truth3.FALSE: Truth3.TRUE}[verdict]
        return _orig_literalize(cond, flipped, state, config, rep)

    _orig_subst = optimize._subst_singletons

    def subst_width_one(e, state, rep):
        if isinstance(e, Var):
            iv = state.get(e.name)
            if not iv.is_bottom and iv.is_finite and iv.hi - iv.lo <= 1:
                rep.singletons_propagated += 1
                return IntLit(iv.lo)
            return e
        return _orig_subst(e, state, rep)

    def fold_bool_reckless(op, left, right, rep):
        neutral = op == "&&"
        for lit, other in ((left, right), (right, left)):
            if isinstance(lit, BoolLit):
                rep.constants_folded += 1
                return other if lit.value == neutral else BoolLit(not neutral)
        return None

    def assume_expr_shifted(varnames, state):
        expr = orig_assume_expr(varnames, state)
        if isinstance(expr, Binary) and expr.op == ">=":
            return Binary(">=", expr.left, IntLit(expr.right.value + 1))
        if isinstance(expr, Binary) and expr.op == "&&":
            def bump(e):
                if isinstance(e, Binary) and e.op == ">=":
                    return Binary(">=", e.left, IntLit(e.right.value + 1))
                if isinstance(e, Binary) and e.op == "&&":
                    return Binary("&&", bump(e.left), bump(e.right))
                return e
            return bump(expr)
        return expr

    def exit_states_shifted(cfg, init, config=None):
        result = orig_analyze(cfg, init, config)
        state = result.before[cfg.exit]
        for name in state.names:
            iv = state.get(name)
            if not iv.is_bottom and not iv.is_top:
                state = state.set(name, iv.shift(1))
        result.before[cfg.exit] = state
        return result

    def assume_expr_tightened_hi(varnames, state):
        expr = orig_assume_expr(varnames, state)
        def clamp(e):
            if isinstance(e, Binary) and e.op == "<=":
                return Binary("<=", e.left, IntLit(e.right.value - 1))
            if isinstance(e, Binary) and e.op == "&&":
                return Binary("&&", clamp(e.left), clamp(e.right))
            return e
        return clamp(expr) if expr is not None else None

    return [
        ("assign transfer off by one", detect_soundness,
         [(absint, "transfer_assign", assign_off_by_one)]),
        ("nondet upper bound dropped", detect_soundness,
         [(absint, "eval_expr", nondet_shrunk)]),
        ("assume ignores branch polarity", detect_soundness,
         [(absint, "transfer_assume", assume_forced_positive)]),
        ("branch edges swapped", detect_soundness,
         [(absint, "_edge_state", edge_swapped)]),
        ("three-valued comparison optimistic", detect_equivalence_plain_intervals,
         [(absint, "eval_cmp", cmp_optimistic)]),
        # absint calls nnf only on the contractor-free path (eval_cond3 and
        # _simple_prune), which detect_soundness also runs.
        ("negation normal form disabled", detect_soundness,
         [(absint, "nnf", nnf_no_flip)]),
        ("lowering ignores polarity", detect_soundness,
         [(contractor, "lower_condition", lower_ignores_polarity),
          (absint, "lower_condition", lower_ignores_polarity)]),
        ("condition contraction empties everything", detect_soundness,
         [(absint, "contract_condition", contract_always_empty)]),
        ("simple pruning off by one", detect_soundness,
         [(absint, "_simple_prune", prune_off_by_one)]),
        ("relation range <= made strict", detect_contractor,
         [(contractor, "RELATION_RANGE",
           {**contractor.RELATION_RANGE,
            "<=": Interval.make(-float("inf"), -1)})]),
        ("relation range > made non-strict", detect_contractor,
         [(contractor, "RELATION_RANGE",
           {**contractor.RELATION_RANGE, ">": Interval.make(0, float("inf"))})]),
        ("multiplication inverse collapsed", detect_contractor,
         [(contractor, "inv_mul", inv_mul_broken)]),
        ("division preimage off by one", detect_contractor,
         [(contractor, "_tdiv_preimage", tdiv_preimage_narrow)]),
        ("square inverse constant", detect_contractor,
         [(contractor, "_inv_square", inv_square_broken)]),
        ("backward propagation dropped", detect_contractor,
         [(contractor, "_backward", backward_no_refine)]),
        ("!= prunes non-singletons", detect_contractor,
         [(contractor, "hc4_revise", hc4_neq_overprunes)]),
        ("guard classifier optimistic", detect_equivalence,
         [(optimize, "_classify", opt_classify_optimistic)]),
        ("guard literal polarity swapped", detect_equivalence,
         [(optimize, "_literalize", literalize_swapped)]),
        ("singleton test accepts width two", detect_equivalence,
         [(optimize, "_subst_singletons", subst_width_one)]),
        ("division safety check disabled", detect_equivalence,
         [(optimize, "division_safe", lambda e, state, arith: True)]),
        ("constant folding floors division", detect_equivalence,
         [(optimize, "CONCRETE", {**optimize.CONCRETE, "/": operator.floordiv})]),
        ("boolean folding drops divisions", detect_equivalence,
         [(optimize, "_fold_bool", fold_bool_reckless)]),
        ("assumed lower bounds too tight", detect_invariance,
         [(instrument, "intervals_to_assume_expr", assume_expr_shifted)]),
        ("assumed upper bounds too tight", detect_invariance,
         [(instrument, "intervals_to_assume_expr", assume_expr_tightened_hi)]),
        ("exit states shifted", detect_soundness,
         [(absint, "analyze", exit_states_shifted)]),
    ]


def test_criterion_8_mutation_detection(capfd, monkeypatch):
    mutants = build_mutants()
    assert len(mutants) >= 25
    missed = []
    for name, detector, patches in mutants:
        with monkeypatch.context() as patcher:
            for module, attribute, replacement in patches:
                patcher.setattr(module, attribute, replacement)
            if not detector():
                missed.append(name)
    ok = not missed
    report(capfd, 8, "mutation detection, %d seeded faults" % len(mutants), ok,
           "missed: %s" % ", ".join(missed) if missed else "all caught")
