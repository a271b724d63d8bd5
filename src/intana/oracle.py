"""Exhaustive concrete interpreter over bounded nondeterminism.

Every `nondet(lo, hi)` evaluation is a choice point; the driver walks the
choice tree depth-first, yielding one execution per complete assignment
of choices (in dynamic program order, so nondet inside loops and callees
is handled uniformly).  This is the ground truth against which analysis
soundness and rewrite equivalence are checked.

Each enumeration compiles the program once: every CFG node becomes a
tuple holding a Python closure for its statement or condition, so the
executions walk those tuples instead of the AST.

An enumeration may carry one monitor, which sees every point of every
execution as it runs: each node's environment before the node runs, and
each frame's environment at its exit.  A monitor has two methods.
`watch(fname)` is called once per function when the program is compiled
and returns a callable `(node, env)` that is called at each point of that
function; it must not keep or change `env`.  `end(state)` is called with
each finished `ConcreteState`.  Two monitors exist: `_TraceRecorder`
copies every point into `ConcreteState.trace` (`record_trace=True`), and
`_SoundnessMonitor` tests every point against the analysis states in
place, so `check_soundness` needs no trace.
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
    CONCRETE,
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
    # (function, node, env copy) per point; empty unless record_trace was set.
    trace: "list[tuple[str, int, dict[str, int]]]" = field(default_factory=list)


class _Halt(Exception):
    def __init__(self, verdict, node=None):
        self.verdict = verdict
        self.node = node


class _Chooser:
    """Replays a prefix of choices, then extends with each range minimum.

    `values` holds the prefix, then each value drawn past it; `highs` holds
    the high end of each range drawn from so far.  A prefix is a previous
    run's values with the last one changed, so a run draws at least as many
    values as its prefix holds, and `values` ends as the run's choices.
    """

    def __init__(self):
        self.reset([])

    def reset(self, prefix: "list[int]") -> None:
        self.values = prefix
        self.highs = []

    def choose(self, lo: int, hi: int) -> int:
        highs = self.highs
        i = len(highs)
        highs.append(hi)
        if i < len(self.values):
            return self.values[i]
        self.values.append(lo)
        return lo


def _compile_expr(e, choose, where):
    """A closure env -> value; `where` is the (function, node) a halt names."""
    if isinstance(e, (IntLit, BoolLit)):
        value = e.value
        return lambda env: value
    if isinstance(e, Var):
        name = e.name
        return lambda env: env[name]
    if isinstance(e, Nondet):
        lo, hi = e.lo, e.hi
        return lambda env: choose(lo, hi)
    if isinstance(e, Unary):
        f = _compile_expr(e.operand, choose, where)
        if e.op == "neg":
            return lambda env: -f(env)
        return lambda env: not f(env)
    if isinstance(e, Binary):
        left = _compile_expr(e.left, choose, where)
        right = _compile_expr(e.right, choose, where)
        if e.op in ("&&", "||"):
            # Strict connectives: both operands always evaluate.
            conj = e.op == "&&"

            def connective(env):
                a = bool(left(env))
                b = bool(right(env))
                return a and b if conj else a or b
            return connective
        op = CONCRETE[e.op]
        if e.op == "/":
            def divide(env):
                a = left(env)
                b = right(env)
                if b == 0:
                    raise _Halt(DIV_BY_ZERO, where)
                return op(a, b)
            return divide
        # Variable and literal operands are read in place: most conditions
        # and updates are of these shapes, and each saves a call.
        if isinstance(e.left, Var) and isinstance(e.right, Var):
            a, b = e.left.name, e.right.name
            return lambda env: op(env[a], env[b])
        if isinstance(e.left, Var) and isinstance(e.right, IntLit):
            a, c = e.left.name, e.right.value
            return lambda env: op(env[a], c)
        return lambda env: op(left(env), right(env))
    raise TypeError(e)


# Node kinds of a compiled CFG.
_EXIT, _ASSIGN, _CHECK, _COND, _CALL, _RETURN = range(6)


def _compile_node(prog, fname, n, node, succ, choose):
    """(kind, action, next, other) for one CFG node other than the entry.

    `next` is the fall-through or true successor.  `other` is the false
    successor of a condition, the target of an assignment, the verdict
    of a failed assume or assert, or (callee, result variable) of a call.
    """
    where = (fname, n)
    stmt = node.stmt
    if node.kind == "exit":
        return _EXIT, None, None, None
    if node.kind == "cond":
        return (_COND, _compile_expr(stmt.cond, choose, where),
                succ[BRANCH_TRUE], succ[BRANCH_FALSE])
    if isinstance(stmt, Decl):
        value = (_compile_expr(stmt.init, choose, where) if stmt.init is not None
                 else lambda env: 0)
        return _ASSIGN, value, succ[FALLTHROUGH], stmt.name
    if isinstance(stmt, Assign):
        return _ASSIGN, _compile_expr(stmt.rhs, choose, where), succ[FALLTHROUGH], stmt.target
    if isinstance(stmt, (Assume, Assert)):
        verdict = ASSUME_INFEASIBLE if isinstance(stmt, Assume) else ASSERT_FAILED
        return _CHECK, _compile_expr(stmt.cond, choose, where), succ[FALLTHROUGH], verdict
    if isinstance(stmt, Skip):  # a check that always holds
        return _CHECK, lambda env: True, succ[FALLTHROUGH], None
    if isinstance(stmt, Call):
        params = prog.functions[stmt.callee].params
        args = [_compile_expr(arg, choose, where) for arg in stmt.args]

        def frame(env):
            return dict(zip(params, [arg(env) for arg in args]))
        return _CALL, frame, succ[FALLTHROUGH], (stmt.callee, stmt.result)
    if isinstance(stmt, Return):
        return _RETURN, _compile_expr(stmt.value, choose, where), None, None
    raise TypeError(stmt)


def _compile_cfg(prog, fname, cfg, choose):
    """A function's nodes compiled into a list indexed by node id, the node
    its entry falls through to, and its exit node."""
    code = [None] * (max(cfg.nodes) + 1)
    succ = {n: {label: m for m, label in cfg.successors(n)} for n in cfg.nodes}
    for n, node in cfg.nodes.items():
        if n != cfg.entry:
            code[n] = _compile_node(prog, fname, n, node, succ[n], choose)
    return code, succ[cfg.entry][FALLTHROUGH], cfg.exit


class _Interpreter:
    """Runs the executions of one program, whose CFGs it compiles once."""

    def __init__(self, prog: Program, step_limit: int, monitor=None):
        self.chooser = _Chooser()
        choose = self.chooser.choose
        self.code = {}
        for fname, fn in prog.functions.items():
            watch = monitor.watch(fname) if monitor is not None else None
            self.code[fname] = _compile_cfg(prog, fname, build_cfg(fn), choose) + (watch,)
        self.entry = prog.entry
        self.step_limit = step_limit
        self.monitor = monitor

    def run(self, prefix) -> ConcreteState:
        """One execution that replays `prefix`, then takes each range minimum."""
        self.chooser.reset(prefix)
        self.steps = 0
        env = {}
        verdict, node = OK, None
        try:
            self.run_function(self.entry, env)
        except _Halt as halt:
            verdict, node = halt.verdict, halt.node
        state = ConcreteState(
            choices=tuple(self.chooser.values),
            env=env,
            verdict=verdict,
            verdict_node=node,
        )
        if self.monitor is not None:
            self.monitor.end(state)
        return state

    def run_function(self, fname: str, env: "dict[str, int]") -> "int | None":
        """Run one function frame, mutating env in place."""
        code, n, exit_node, watch = self.code[fname]
        limit = self.step_limit
        steps = self.steps
        value = None
        while True:
            kind, action, succ, other = code[n]
            if kind == _EXIT:
                break
            steps += 1
            if steps > limit:
                raise _Halt(STEP_LIMIT, (fname, n))
            if watch is not None:
                watch(n, env)
            if kind == _ASSIGN:
                env[other] = action(env)
                n = succ
            elif kind == _COND:
                n = succ if action(env) else other
            elif kind == _CHECK:
                if not action(env):
                    raise _Halt(other, (fname, n))
                n = succ
            elif kind == _CALL:
                callee, result = other
                frame = action(env)
                self.steps = steps
                rv = self.run_function(callee, frame)
                steps = self.steps
                if result is not None:
                    env[result] = rv
                n = succ
            else:
                value = action(env)
                break
        self.steps = steps
        if watch is not None:  # the frame's exit state, checked like any other
            watch(exit_node, env)
        return value


class _TraceRecorder:
    """The monitor that copies every point into `ConcreteState.trace`."""

    def __init__(self):
        self.trace = []

    def watch(self, fname: str):
        append = self.trace.append
        return lambda n, env: append((fname, n, env.copy()))

    def end(self, state: ConcreteState) -> None:
        state.trace = self.trace.copy()
        self.trace.clear()


def enumerate_executions(prog: Program, step_limit: int = 10_000,
                         cap: int = 1_000_000, record_trace: bool = True,
                         monitor=None):
    """One ConcreteState per complete assignment of nondet choices.

    Deterministic: executions are produced in lexicographic choice order.
    `monitor` (see the module docstring) sees every point of every
    execution as it runs.  Without one, `record_trace` fills each state's
    `trace` with a copy of every point; with one, no trace is recorded.
    """
    if step_limit < 1:
        raise ValueError("step_limit must be >= 1")
    for nd in program_nondets(prog):
        if not nd.bounded:
            raise UnboundedNondetError("program contains unbounded nondet()")
    if prog.functions[prog.entry].params:
        raise UnboundedNondetError("entry function must not take parameters")
    if monitor is None and record_trace:
        monitor = _TraceRecorder()
    interp = _Interpreter(prog, step_limit, monitor)
    results = []
    chooser = interp.chooser
    prefix = []
    while True:
        results.append(interp.run(prefix))
        if len(results) > cap:
            raise EnumerationCapError("more than %d executions" % cap)
        # The next prefix: drop the trailing choices at their range's high
        # end, then take the next value of the last one left.
        prefix, highs = chooser.values, chooser.highs
        while prefix and prefix[-1] >= highs[-1]:
            prefix.pop()
            highs.pop()
        if not prefix:
            return results
        prefix[-1] += 1


@dataclass(frozen=True)
class SoundnessViolation:
    function: str
    node: int
    var: str
    value: int
    interval: str
    choices: "tuple[int, ...]"


class _SoundnessMonitor:
    """The monitor that tests every point against its analysis state.

    Per function it holds a list, indexed by node id, of the node's
    `(name, lo, hi)` bounds; unbounded intervals are left out, as no value
    falls outside them.  A point is tested in place, only on the names its
    environment has.  A node's entry is None until the node is first
    reached, and stays None if its state is bottom or missing; such a
    point, and any point that fails, takes the slow path, which walks the
    environment against the state to build the violations.
    """

    def __init__(self, analyses):
        self.analyses = analyses
        self.violations = []
        self.pending = []  # the running execution's violations, without choices

    def watch(self, fname: str):
        before = self.analyses[fname].result.before
        bounds = [None] * (max(before, default=-1) + 1)
        pending = self.pending

        def slow(n, env):
            state = before.get(n)
            if state is None:
                pending.append((fname, n, "<missing>", 0, "no state"))
                return
            abstract = state.as_dict()
            if not any(iv.lo > iv.hi for iv in abstract.values()):
                bounds[n] = tuple((name, iv.lo, iv.hi)
                                  for name, iv in abstract.items() if not iv.is_top)
            for var, value in env.items():
                iv = abstract[var]
                if not iv.lo <= value <= iv.hi:  # a bottom has lo > hi
                    pending.append((fname, n, var, value, iv.render()))

        def check(n, env):
            try:
                node_bounds = bounds[n]
            except IndexError:
                node_bounds = None
            if node_bounds is not None:
                for name, lo, hi in node_bounds:
                    if name in env and not lo <= env[name] <= hi:
                        break
                else:
                    return
            slow(n, env)
        return check

    def end(self, state: ConcreteState) -> None:
        if self.pending:
            self.violations.extend(SoundnessViolation(*found, state.choices)
                                   for found in self.pending)
            self.pending.clear()


def check_soundness(prog: Program, analyses, step_limit: int = 10_000,
                    executions=None, runs=None):
    """Every concrete value at every point must lie in its analysis interval.

    Returns the violations in execution order, then point order, then the
    order of the point's environment.  Without `executions`, the program
    is enumerated once with a monitor that checks each point as it runs,
    and no trace is recorded.  `executions` may instead hold runs
    enumerated with `record_trace`; their recorded points are replayed
    through the same monitor.  If `runs` is a list, the executions
    checked are appended to it, so a caller can check them in other ways
    without enumerating the program again.
    """
    monitor = _SoundnessMonitor(analyses)
    if executions is None:
        executions = enumerate_executions(prog, step_limit, monitor=monitor)
    else:
        watchers = {fname: monitor.watch(fname) for fname in prog.functions}
        for state in executions:
            for fname, node, env in state.trace:
                watchers[fname](node, env)
            monitor.end(state)
    if runs is not None:
        runs.extend(executions)
    return monitor.violations


@dataclass
class EquivalenceResult:
    """`truncated` counts the choices on which only `b` hit the step limit.

    Those were not compared, so the result is true only when there are none.
    """

    counterexample: "tuple | None" = None
    truncated: int = 0

    def __bool__(self):
        return self.counterexample is None and not self.truncated


def check_equivalence(a: Program, b: Program, step_limit: int = 10_000,
                      executions=None) -> EquivalenceResult:
    """Compare final entry-function states and verdicts across all choices.

    The counterexample is the first choice, in sorted order, on which they
    differ.  A choice on which only `b` hit the step limit is counted in
    `truncated` instead.

    `executions` may hold `a`'s executions, enumerated with the same
    step limit and in the order `enumerate_executions` returned them, so
    a caller that already has them does not enumerate `a` again.
    """
    runs_a = executions
    if runs_a is None:
        runs_a = enumerate_executions(a, step_limit, record_trace=False)
    runs_b = enumerate_executions(b, step_limit, record_trace=False)
    # Both lists are in lexicographic choice order, which is sorted order.
    if len(runs_a) != len(runs_b):
        raise NondetMismatchError(
            "programs draw different nondet choice sequences")
    # Sorted, so a counterexample lists its variables in the same order
    # under every hash seed.
    common = sorted(set(a.main.variables) & set(b.main.variables))
    counterexample, truncated = None, 0
    for ra, rb in zip(runs_a, runs_b):
        if ra.choices != rb.choices:
            raise NondetMismatchError(
                "programs draw different nondet choice sequences")
        if rb.verdict == STEP_LIMIT and ra.verdict != STEP_LIMIT:
            # `b` may only take more steps, so this run decides nothing.
            truncated += 1
            continue
        # Equal whole environments are equal on `common`, so only runs that
        # differ somewhere need the restricted ones.
        if counterexample is None and (ra.verdict != rb.verdict or ra.env != rb.env):
            ea = {v: ra.env[v] for v in common if v in ra.env}
            eb = {v: rb.env[v] for v in common if v in rb.env}
            if ra.verdict != rb.verdict or ea != eb:
                counterexample = (ra.choices, (ra.verdict, ea), (rb.verdict, eb))
    return EquivalenceResult(counterexample, truncated)
