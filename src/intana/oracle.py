"""Exhaustive concrete interpreter over bounded nondeterminism.

Every `nondet(lo, hi)` evaluation is a choice point; the driver walks the
choice tree depth-first, yielding one execution per complete assignment
of choices (in dynamic program order, so nondet inside loops and callees
is handled uniformly).  This is the ground truth against which analysis
soundness and rewrite equivalence are checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang import (
    Assert,
    Assign,
    Assume,
    Binary,
    BoolLit,
    BRANCH_FALSE,
    BRANCH_TRUE,
    Call,
    Decl,
    FALLTHROUGH,
    IntLit,
    Nondet,
    Program,
    Return,
    Skip,
    Unary,
    Var,
    build_cfg,
    program_nondets,
)

OK = "ok"
ASSERT_FAILED = "assert-failed"
ASSUME_INFEASIBLE = "assume-infeasible"
DIV_BY_ZERO = "div-by-zero"
STEP_LIMIT = "step-limit"


class UnboundedNondetError(ValueError):
    pass


class EnumerationCapError(RuntimeError):
    pass


class NondetMismatchError(RuntimeError):
    """The two programs requested different nondet choices."""


@dataclass
class ConcreteState:
    """One complete execution of the program."""

    choices: "tuple[int, ...]"
    env: "dict[str, int]"  # entry function's final environment
    verdict: str
    verdict_node: "tuple[str, int] | None" = None
    trace: "list[tuple[str, int, dict[str, int]]]" = field(default_factory=list)


class _Halt(Exception):
    def __init__(self, verdict, node=None):
        self.verdict = verdict
        self.node = node


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Chooser:
    """Replays a prefix of choices, then extends with each range minimum."""

    def __init__(self, prefix):
        self.prefix = list(prefix)
        self.taken = []  # (value, lo, hi)
        self.index = 0

    def choose(self, lo: int, hi: int) -> int:
        value = self.prefix[self.index] if self.index < len(self.prefix) else lo
        self.taken.append((value, lo, hi))
        self.index += 1
        return value


def _tdiv(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


class _Interpreter:
    def __init__(self, prog, cfgs, chooser, step_limit, record_trace):
        self.prog = prog
        self.cfgs = cfgs
        self.chooser = chooser
        self.step_limit = step_limit
        self.record_trace = record_trace
        self.steps = 0
        self.trace = []

    def eval(self, e, env, fname, node):
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, Var):
            return env[e.name]
        if isinstance(e, Nondet):
            if not e.bounded:
                raise UnboundedNondetError("unbounded nondet during execution")
            return self.chooser.choose(e.lo, e.hi)
        if isinstance(e, Unary):
            v = self.eval(e.operand, env, fname, node)
            return -v if e.op == "neg" else not v
        if isinstance(e, Binary):
            # Strict connectives: both operands always evaluate.
            a = self.eval(e.left, env, fname, node)
            b = self.eval(e.right, env, fname, node)
            op = e.op
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                if b == 0:
                    raise _Halt(DIV_BY_ZERO, (fname, node))
                return _tdiv(a, b)
            if op == "==":
                return a == b
            if op == "!=":
                return a != b
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            if op == ">=":
                return a >= b
            if op == "&&":
                return bool(a) and bool(b)
            if op == "||":
                return bool(a) or bool(b)
        raise TypeError(e)

    def run_function(self, fname: str, env: "dict[str, int]") -> "int | None":
        """Run one function frame; env is mutated in place by the caller's dict."""
        cfg = self.cfgs[fname]
        n = cfg.entry
        value = None
        try:
            while True:
                node = cfg.nodes[n]
                if node.kind == "exit":
                    break
                if node.kind == "entry":
                    n = _follow(cfg, n, FALLTHROUGH)
                    continue
                self.steps += 1
                if self.steps > self.step_limit:
                    raise _Halt(STEP_LIMIT, (fname, n))
                if self.record_trace:
                    self.trace.append((fname, n, dict(env)))
                if node.kind == "cond":
                    taken = self.eval(node.cond, env, fname, n)
                    n = _follow(cfg, n, BRANCH_TRUE if taken else BRANCH_FALSE)
                    continue
                stmt = node.stmt
                if isinstance(stmt, Decl):
                    env[stmt.name] = (self.eval(stmt.init, env, fname, n)
                                      if stmt.init is not None else 0)
                elif isinstance(stmt, Assign):
                    env[stmt.target] = self.eval(stmt.rhs, env, fname, n)
                elif isinstance(stmt, Assume):
                    if not self.eval(stmt.cond, env, fname, n):
                        raise _Halt(ASSUME_INFEASIBLE, (fname, n))
                elif isinstance(stmt, Assert):
                    if not self.eval(stmt.cond, env, fname, n):
                        raise _Halt(ASSERT_FAILED, (fname, n))
                elif isinstance(stmt, Call):
                    callee = self.prog.functions[stmt.callee]
                    values = [self.eval(a, env, fname, n) for a in stmt.args]
                    frame = dict(zip(callee.params, values))
                    rv = self.run_function(stmt.callee, frame)
                    if stmt.result is not None:
                        env[stmt.result] = rv
                elif isinstance(stmt, Return):
                    raise _Return(self.eval(stmt.value, env, fname, n))
                elif isinstance(stmt, Skip):
                    pass
                else:
                    raise TypeError(stmt)
                n = _follow(cfg, n, FALLTHROUGH)
        except _Return as ret:
            value = ret.value
        if self.record_trace:  # the frame's exit state, checked like any other
            self.trace.append((fname, cfg.exit, dict(env)))
        return value


def _follow(cfg, n, label):
    for m, l in cfg.successors(n):
        if l == label:
            return m
    raise RuntimeError("missing %s edge from node %d" % (label, n))


def build_cfgs(prog: Program):
    return {name: build_cfg(fn) for name, fn in prog.functions.items()}


def _run_once(prog, cfgs, prefix, step_limit, record_trace):
    chooser = _Chooser(prefix)
    interp = _Interpreter(prog, cfgs, chooser, step_limit, record_trace)
    main_env = {}
    verdict, node = OK, None
    try:
        interp.run_function(prog.entry, main_env)
    except _Halt as halt:
        verdict, node = halt.verdict, halt.node
    state = ConcreteState(
        choices=tuple(v for v, _, _ in chooser.taken),
        env=main_env,
        verdict=verdict,
        verdict_node=node,
        trace=interp.trace,
    )
    return state, chooser


def enumerate_executions(prog: Program, step_limit: int = 10_000,
                         cap: int = 1_000_000, record_trace: bool = True):
    """One ConcreteState per complete assignment of nondet choices.

    Deterministic: executions are produced in lexicographic choice order.
    """
    for nd in program_nondets(prog):
        if not nd.bounded:
            raise UnboundedNondetError("program contains unbounded nondet()")
    if prog.functions[prog.entry].params:
        raise UnboundedNondetError("entry function must not take parameters")
    cfgs = build_cfgs(prog)
    results = []
    prefix = []
    while True:
        state, chooser = _run_once(prog, cfgs, prefix, step_limit, record_trace)
        results.append(state)
        if len(results) > cap:
            raise EnumerationCapError("more than %d executions" % cap)
        taken = chooser.taken
        while taken and taken[-1][0] >= taken[-1][2]:
            taken.pop()
        if not taken:
            return results
        prefix = [v for v, _, _ in taken[:-1]] + [taken[-1][0] + 1]


@dataclass(frozen=True)
class SoundnessViolation:
    function: str
    node: int
    var: str
    value: int
    interval: str
    choices: "tuple[int, ...]"


def check_soundness(prog: Program, analyses, step_limit: int = 10_000,
                    cap: int = 1_000_000, executions=None):
    """Every concrete value at every trace point must lie in its interval."""
    if executions is None:
        executions = enumerate_executions(prog, step_limit, cap)
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
                if value not in iv:
                    violations.append(SoundnessViolation(
                        fname, node, var, value, iv.render(), state.choices))
    return violations


@dataclass
class EquivalenceResult:
    equal: bool
    counterexample: "tuple | None" = None

    def __bool__(self):
        return self.equal


def check_equivalence(a: Program, b: Program, step_limit: int = 10_000,
                      cap: int = 1_000_000) -> EquivalenceResult:
    """Compare final entry-function states and verdicts across all choices."""
    runs_a = enumerate_executions(a, step_limit, cap, record_trace=False)
    runs_b = enumerate_executions(b, step_limit, cap, record_trace=False)
    by_choice_a = {r.choices: r for r in runs_a}
    by_choice_b = {r.choices: r for r in runs_b}
    if set(by_choice_a) != set(by_choice_b):
        raise NondetMismatchError(
            "programs draw different nondet choice sequences")
    common = (set(a.main.variables) & set(b.main.variables))
    for choices in sorted(by_choice_a):
        ra, rb = by_choice_a[choices], by_choice_b[choices]
        ea = {v: ra.env[v] for v in common if v in ra.env}
        eb = {v: rb.env[v] for v in common if v in rb.env}
        if ra.verdict != rb.verdict or ea != eb:
            return EquivalenceResult(False, (choices, (ra.verdict, ea), (rb.verdict, eb)))
    return EquivalenceResult(True)
