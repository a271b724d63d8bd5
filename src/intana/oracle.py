"""Exhaustive concrete interpreter over bounded nondeterminism.

Every `nondet(lo, hi)` evaluation is a choice point; the driver walks the
choice tree depth-first, yielding one execution per complete assignment
of choices (in dynamic program order, so nondet inside loops and callees
is handled uniformly).  This is the ground truth against which analysis
soundness and rewrite equivalence are checked.

An enumeration runs on two tiers.  It starts on tier 0, which walks the
program's CFGs node by node and evaluates each expression from its AST,
so it builds nothing but the CFGs.  Tier 1 is Python source, one `def`
per mini function with Python's own `if` and `while`, emitted from the
AST and `exec`'d once.  Compiling it costs as much as tier 1 saves over
some 45 steps per CFG node, or 60 without a monitor, more than most
enumerations run, so an enumeration compiles it only once its steps
reach a budget per CFG node, `TIER_UP_STEPS_PER_NODE`, or are predicted
to.  The first execution draws each range's minimum, so it draws every
range the enumeration starts from: if its steps times the sizes of those
ranges reach the budget, tier 1 is compiled before the second execution.
Otherwise tier 0 runs until the steps it has run pass the budget.  Tier
1 then runs every remaining execution in one loop.  Both tiers share one
chooser and one set of CFGs, halt on the same node and return the same
outcome, `(verdict, node, env)`, from which `enumerate_executions` alone
builds each `ConcreteState`; so the moment of the switch changes no
result, and a wrong prediction costs one compile.

Tier 1 keeps each mini variable in a Python local of its def, draws
inline on the chooser's lists, and builds a frame's environment as a dict
only where one is seen: in an outcome, or where tier 0 takes the frame
over; the key order of `ConcreteState.env` is unspecified.  It tests the
step limit once per segment, a straight-line run of nodes, or per loop
iteration (see `_Emitter`).  A test fails only where the steps it guards
pass the limit, and then deoptimizes (Hölzle, Chambers & Ungar 1992):
tier 0 takes over the frame at the test's first node, with the steps run
before it and the frame's environment, and runs it to the halt.  Tier 0
takes over only in `_Interpreter.resume`: at a deopt, a redo (below), or
a halt the entry function's def does not return itself.

An enumeration may carry one monitor, which sees every point of every
execution as it runs: each node's environment before the node runs, and
each frame's environment at its exit.  A monitor has two methods.
`watch(fname)` is called once per function when the enumeration starts
and returns a callable `(node, env)` that is called at each point of that
function; it must not keep or change `env`.  `end(state)` is called with
each finished `ConcreteState`.  Two monitors exist: `_TraceRecorder`
copies every point into `ConcreteState.trace` (`record_trace=True`), and
`_SoundnessMonitor` tests every point against the analysis states in
place, so `check_soundness` needs no trace.  A monitor may also have
`bounds(fname)`, as `_SoundnessMonitor` does: a dict from node id to the
`(name, lo, hi)` tests a point passes when the monitor has nothing to do
there, or None where it always has.  Tier 1 inlines those tests and
never calls the monitor: an execution with a point that fails them is
redone, run again on tier 0 from its start, which shows the monitor
every point.

Tier 1 refuses some enumerations, which then stay on tier 0: those whose
monitor has no `bounds`, such as `_TraceRecorder`, and those of programs
with a block nested in more than 15 compound statements, an expression
more than 32 nodes deep or with a draw inside (only an AST has one), a
statement at two CFG nodes, or an int of more digits than CPython writes
as a literal (`sys.get_int_max_str_digits()`).  CPython rejects Python
nested as deep as some of those programs are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .lang import (
    Assert,
    Assign,
    Assume,
    Binary,
    BoolLit,
    BRANCH_TRUE,
    Call,
    CONCRETE,
    Decl,
    If,
    IntLit,
    Nondet,
    Program,
    Return,
    Skip,
    Unary,
    Var,
    While,
    fold,
    program_nondets,
    subexprs,
    walk_stmts,
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
    """An execution halts: its verdict and the (function, node) it names."""

    def __init__(self, verdict, node=None):
        self.verdict = verdict
        self.node = node


_TDIV = CONCRETE["/"]


def _divide(a, b, where=None):
    """`a / b` on both tiers; a zero divisor halts at `where`, the
    (function, node) tier 1 names, or on tier 0 at the node that
    `_Interpreter.run_function` is running."""
    if b == 0:
        raise _Halt(DIV_BY_ZERO, where)
    return _TDIV(a, b)


# Each binary operator on its operands' values; tier 0 evaluates both
# operands of `&&` and `||` before it applies the connective.
_OPERATORS = {**CONCRETE, "/": _divide,
              "&&": lambda a, b: a and b, "||": lambda a, b: a or b}


class _Chooser:
    """Replays a prefix of choices, then extends with each range minimum.

    `values` holds the prefix, then each value drawn past it; `highs` holds
    the high end of each range drawn from so far.  A prefix is a previous
    run's values with the last one changed, so a run draws at least as many
    values as its prefix holds, and `values` ends as the run's choices.
    Both stay the same lists, so tier 1 can hold them.
    """

    def __init__(self):
        self.values, self.highs = [], []

    def reset(self, prefix: "list[int]") -> None:
        self.values[:] = prefix
        self.highs.clear()

    def choose(self, lo: int, hi: int) -> int:
        highs = self.highs
        i = len(highs)
        highs.append(hi)
        if i < len(self.values):
            return self.values[i]
        self.values.append(lo)
        return lo


class _Interpreter:
    """Tier 0: runs the executions of one program by walking its CFGs.
    `steps` counts the last run's steps."""

    def __init__(self, prog: Program, step_limit: int, monitor=None):
        self.chooser = _Chooser()
        self.prog = prog
        self.cfgs = {fname: fn.cfg for fname, fn in prog.functions.items()}
        self.watches = {fname: monitor.watch(fname) if monitor is not None else None
                        for fname in prog.functions}
        self.entry = prog.main.name
        self.step_limit = step_limit
        self.monitor = monitor
        self.steps = 0

    def run(self, prefix) -> tuple:
        """One execution that replays `prefix`, then takes each range
        minimum; returns its outcome, `(verdict, node, env)`."""
        self.chooser.reset(prefix)
        self.steps = 0
        env = {}
        try:
            self.run_function(self.entry, env)
        except _Halt as halt:
            return halt.verdict, halt.node, env
        return OK, None, env

    def run_function(self, fname: str, env: "dict[str, int]",
                     start: "int | None" = None) -> "int | None":
        """Run one function frame, mutating env in place, from its first
        node or from node `start`."""
        cfg, watch = self.cfgs[fname], self.watches[fname]
        nodes, succs, exit_node = cfg.nodes, cfg.succs, cfg.exit
        n = succs[cfg.entry][0][0] if start is None else start
        choose = self.chooser.choose

        def visit(e, a=None, b=None):
            """e's value in env from its operands' values a and b, both for `&&` and `||`.
            A zero divisor halts naming no node; the handler below names node n."""
            kind = type(e)
            if kind is Var:
                return env[e.name]
            if kind is Binary:
                return _OPERATORS[e.op](a, b)
            if kind is IntLit or kind is BoolLit:
                return e.value
            if kind is Nondet:
                return choose(e.lo, e.hi)
            if kind is Unary:
                return -a if e.op == "neg" else not a
            raise TypeError(e)

        limit = self.step_limit
        steps = self.steps
        value = None
        try:
            while n != exit_node:
                steps += 1
                if steps > limit:
                    raise _Halt(STEP_LIMIT, (fname, n))
                if watch is not None:
                    watch(n, env)
                node = nodes[n]
                stmt = node.stmt
                if node.kind == "cond":
                    (taken, label), (other, _) = succs[n]
                    if label != BRANCH_TRUE:
                        taken, other = other, taken
                    n = taken if fold(stmt.cond, visit) else other
                    continue
                kind = type(stmt)
                if kind is Assign:
                    env[stmt.target] = fold(stmt.rhs, visit)
                elif kind is Decl:
                    env[stmt.name] = 0 if stmt.init is None else fold(stmt.init, visit)
                elif kind is Assume or kind is Assert:
                    if not fold(stmt.cond, visit):
                        raise _Halt(ASSUME_INFEASIBLE if kind is Assume else ASSERT_FAILED,
                                    (fname, n))
                elif kind is Call:
                    params = self.prog.functions[stmt.callee].params
                    frame = dict(zip(params, [fold(arg, visit) for arg in stmt.args]))
                    self.steps = steps
                    rv = self.run_function(stmt.callee, frame)
                    steps = self.steps
                    if stmt.result is not None:
                        env[stmt.result] = rv
                elif kind is Return:
                    value = fold(stmt.value, visit)
                    break
                n = succs[n][0][0]  # the one successor; `skip` does nothing else
        except _Halt as halt:
            if steps > self.steps:  # it halted in this frame, not in a callee
                self.steps = steps
            if halt.node is None:  # a zero divisor in an expression of node n
                halt.node = (fname, n)
            raise
        self.steps = steps
        if watch is not None:  # the frame's exit state, checked like any other
            watch(exit_node, env)
        return value

    def resume(self, fname: str, stop: Exception, env: "dict[str, int]") -> tuple:
        """Take over an execution that tier 1 stopped in a frame of `fname`
        whose environment is `env`, and return its outcome, as `run` does.
        A `_Halt`, which only the entry function's def passes, ends it.  A
        `_Redo` runs it again from its start.  A `_Deopt`, before steps that
        pass the step limit, runs the frame from their first node to the
        halt it raises; a callee frame's halt is raised on to the entry
        function's def."""
        if type(stop) is _Redo:
            # Tier 0 shows the monitor every point.  The values tier 1
            # appended to the prefix are range minimums, which tier 0 draws.
            return self.run(self.chooser.values)
        if type(stop) is _Deopt:
            n, self.steps = stop.args
            try:
                self.run_function(fname, env, n)
            except _Halt as halt:
                if fname != self.entry:
                    raise
                return halt.verdict, halt.node, env
            raise RuntimeError("tier 1 deoptimized %s before steps that fit" % fname)
        return stop.verdict, stop.node, env


# Steps per CFG node that an enumeration runs, or is predicted to, before
# it compiles tier 1.  Measured on the oracle-enum programs (Python 3.11,
# 2 vCPUs) as the machine's load varied, the break-evens are 42-48 steps
# per node with the soundness monitor and 58-67 without one.  They were
# 60-75 and 115-135 when tier 0 ran closures compiled from each node, and
# near a break-even either side cost about the same (a budget of 120 for
# the enumerations without a monitor gained 0-0.7%), so one budget served
# both.  100 keeps every corpus and fuzz program's `check` on tier 0; 70
# would tier up `random_program(203)`.
TIER_UP_STEPS_PER_NODE = 100

# The deepest indentation of a block in one generated def, whose body sits
# at 2 inside a `try`; tier 1 refuses a program with a block nested deeper.
# CPython rejects more than 20 nested blocks (loops and `try`), and 100
# indentation levels, in one function.
_MAX_DEPTH = 17

# Tier 1 refuses a program with an expression deeper than this.  CPython's
# parser allows 200 nested parentheses and its compiler recurses on an
# expression's depth.
_MAX_INLINE_DEPTH = 32

# The value of a tier-1 variable its frame has not declared yet.
_U = object()

_ANY = (-math.inf, math.inf)

# Statements that fall through to the next one; a run of them, and the
# statement that ends it, make up a segment.
_SIMPLE = (Decl, Assign, Assume, Assert, Skip)


class _Redo(Exception):
    """A tier-1 execution reached a point its monitor must see."""


class _Deopt(Exception):
    """A tier-1 segment would pass the step limit; `args` are its first node
    and the steps run before it."""


class _Refused(Exception):
    """Tier 1 does not run this program under this monitor (see `_Emitter`)."""


def _env(names, values):
    """A frame's environment from its variables' values in tier 1."""
    return {name: value for name, value in zip(names, values) if value is not _U}


def _assigned(stmts) -> "set[str]":
    """The names a block's statements, nested ones too, may assign."""
    names = set()
    for s in walk_stmts(stmts):
        if isinstance(s, Decl):
            names.add(s.name)
        elif isinstance(s, Assign):
            names.add(s.target)
        elif isinstance(s, Call) and s.result is not None:
            names.add(s.result)
    return names


def _steps(stmts) -> "int | None":
    """The steps every run through a block takes, or None if runs differ
    in length or the block holds a loop, a call or a return."""
    steps = 0
    for stmt in stmts:
        if isinstance(stmt, If):
            then = _steps(stmt.then)
            if then is None or then != _steps(stmt.orelse or []):
                return None
            steps += 1 + then
        elif isinstance(stmt, _SIMPLE):
            steps += 1
        else:
            return None
    return steps


def _range(e) -> "tuple":
    """An interval e's value surely lies in: a (negated) literal's, a draw's or any."""
    if isinstance(e, Unary) and e.op == "neg" and isinstance(e.operand, IntLit):
        return -e.operand.value, -e.operand.value
    if isinstance(e, IntLit):
        return e.value, e.value
    return (e.lo, e.hi) if isinstance(e, Nondet) else _ANY


def _merge(a, b):
    """The facts that hold after either of two paths (see `_Emitter`)."""
    merged = {}
    for name, (present, lo, hi) in a.items():
        if name in b:
            other_present, other_lo, other_hi = b[name]
            merged[name] = (present and other_present, min(lo, other_lo), max(hi, other_hi))
    return merged


def _var(name: str) -> str:
    """The Python local holding a mini variable; no generated name starts
    with `v_`."""
    return "v_" + name


def _and_vars(names) -> str:
    """The locals of mini variables, each after a comma."""
    return "".join(", v_" + name for name in names)


class _Emitter:
    """Tier-1 source for the program of a tier-0 interpreter, from its ASTs
    and the CFGs tier 0 built.

    Each mini function becomes `def _f<i>(s, <params>)`, which returns `(s,
    value)`: `s` counts the steps run so far, and `value` is None when the
    body falls off its end.  Every mini variable is a local `v_<name>`; one
    not yet declared holds `_U`.  Every value the code uses, from literals
    and analysis bounds to the step limit and verdicts, is its literal.
    The entry function's value is the execution's outcome, `(verdict,
    node, env)`: at its end, at a failed assume or assert of its own, and
    from its handler, where `_Interpreter.resume` takes over at any other
    halt, a deopt or a redo.  So it always returns one.

    Steps are counted per segment: a run of simple statements and the node
    that ends it (a condition, loop head, call or return), or the loop head
    a loop body's last run falls through to.  A segment adds its length to
    `s` and tests the limit once, before its first node.  A loop whose body
    has no loop, call or return, and whose every path back to the head
    takes the same steps, adds and tests them once per iteration, at its
    top, and its segments do neither.  A failed test raises `_Deopt`, and
    the def's handler has tier 0 finish the frame from the test's first
    node (`_Interpreter.resume`).  A draw works on the chooser's lists,
    which every def takes as the defaults V and H.  A connective is `and`
    or `or` if its right operand cannot halt, else `&` or `|`.

    The monitor is not called: a point that fails its bounds, or whose
    state is bottom or missing, raises `_Redo`, and tier 0 runs that
    execution again.  So a test that earlier tests, a literal or a draw's
    range imply is left out.  The emitter keeps, per name, `(present, lo,
    hi)`: whether the name is surely declared at the code being emitted,
    and an interval its value surely lies in if it is.

    `program` raises `_Refused` for a monitor without bounds, such as the
    trace recorder, a block nested deeper than `_MAX_DEPTH`, an expression
    deeper than `_MAX_INLINE_DEPTH` or with a draw, a statement at two CFG
    nodes, and a value `const` cannot write.
    """

    def __init__(self, tier0: _Interpreter):
        self.tier0 = tier0
        self.namespace = {"_Halt": _Halt, "_Deopt": _Deopt, "_Redo": _Redo,
                          "_resume": tier0.resume, "_divide": _divide, "_U": _U, "_env": _env,
                          "_V": tier0.chooser.values, "_H": tier0.chooser.highs}
        self.names = {fname: "_f%d" % i for i, fname in enumerate(tier0.prog.functions)}
        self.defs = []
        self.iteration = False  # in a loop body whose head counts its steps

    def const(self, value) -> str:
        """The Python literal of a value; raises `_Refused` for an int with
        more digits than CPython writes (`sys.get_int_max_str_digits()`)."""
        try:
            return repr(value)
        except ValueError:
            raise _Refused

    def line(self, depth: int, text: str) -> None:
        self.out.append("    " * depth + text)

    def program(self) -> str:
        """The source, one def per mini function; raises `_Refused` for
        what tier 1 does not run (see above)."""
        monitor = self.tier0.monitor
        if monitor is not None and not hasattr(monitor, "bounds"):
            raise _Refused
        self.limit = self.const(self.tier0.step_limit)
        for fname, fn in self.tier0.prog.functions.items():
            cfg = self.tier0.cfgs[fname]
            self.nodes = {id(node.stmt): n for n, node in cfg.nodes.items()
                          if node.stmt is not None}
            if len(self.nodes) != len(cfg.nodes) - 2:  # all but entry and exit
                raise _Refused
            self.fname, self.exit_node = fname, cfg.exit
            self.entry = fname == self.tier0.entry
            self.variables = fn.variables
            self.declared = set(self.variables)
            self.bounds = None if monitor is None else monitor.bounds(fname)
            self.define(self.names[fname], fn.params, fn.body)
        return "\n".join(self.defs)

    def define(self, name: str, params, stmts) -> None:
        """Emit the def of the mini function being emitted."""
        self.out = []
        self.line(0, "def %s(s%s, V=_V, H=_H):" % (name, _and_vars(params)))
        undeclared = [_var(v) for v in self.variables if v not in params]
        if undeclared:
            self.line(1, "%s = _U" % " = ".join(undeclared))
        self.line(1, "try:")
        facts = self.block(stmts, 2, {v: (True,) + _ANY for v in params})
        if facts is not None:
            self.exit(2, facts, "None")
        # Tier 0 takes the frame over at a deopt, and the entry function's
        # execution at a zero divisor in it, a callee's halt or a redo.
        self.line(1, "except %s as x: return s, _resume(%s, x, %s)"
                  % ("(_Deopt, _Halt, _Redo)" if self.entry else "_Deopt",
                     self.const(self.fname), self.env({})))
        self.defs.append("\n".join(self.out) + "\n")

    def block(self, stmts, depth: int, facts, follow=None):
        """Emit a block one segment at a time; `follow` is the loop head it
        falls through to, if any.  Returns the facts after it, or None if it
        cannot fall through (its rest is unreachable and not emitted)."""
        if depth > _MAX_DEPTH:
            raise _Refused
        facts = dict(facts)
        i, start = 0, len(self.out)
        while True:
            j = i
            while j < len(stmts) and isinstance(stmts[j], _SIMPLE):
                j += 1
            segment = stmts[i:j + 1]
            steps = len(segment) + (j == len(stmts) and follow is not None)
            self.count(self.nodes[id(segment[0])] if segment else follow, steps, depth)
            for stmt in segment:
                facts = self.stmt(stmt, self.nodes[id(stmt)], depth, facts)
                if facts is None:
                    return None
            if j == len(stmts):
                break
            i = j + 1
        if len(self.out) == start:
            self.line(depth, "pass")
        return facts

    def env(self, facts) -> str:
        """Code for the frame's environment: a dict display if `facts` say
        every variable is declared, else the declared ones picked at run
        time."""
        names = self.variables
        if all(facts.get(name, (False,))[0] for name in names):
            return "{%s}" % ", ".join("%r: %s" % (name, _var(name)) for name in names)
        values = "(%s,)" % _and_vars(names)[2:] if names else "()"
        return "_env(%s, %s)" % (self.const(names), values)

    def count(self, first: int, steps: int, depth: int) -> None:
        """Count a segment's steps, and go back to tier 0 at its first node
        if they pass the step limit, unless its loop's head counted them."""
        if steps and not self.iteration:
            self.line(depth, "s += %d" % steps)
            self.line(depth, "if s > %s: raise _Deopt(%d, s - %d)" % (self.limit, first, steps))

    def where(self, n: int) -> str:
        """The literal of the (function, node) a halt at node n names."""
        return self.const((self.fname, n))

    def point(self, n: int, depth: int, facts) -> None:
        """The monitor's inlined tests at point n, where it has bounds: go
        back to tier 0 if they fail.  Updates `facts` with the tests, which
        hold past the point."""
        if self.bounds is None:
            return
        tests = self.bounds.get(n)
        if tests is None:  # a bottom or missing state
            self.line(depth, "raise _Redo")
            return
        parts = []
        for name, lo, hi in tests:
            if name not in self.declared:  # never in the environment
                continue
            present, known_lo, known_hi = facts.get(name, (False,) + _ANY)
            if lo <= known_lo and known_hi <= hi:
                continue
            facts[name] = (present, max(lo, known_lo), min(hi, known_hi))
            # An infinite side always holds.
            test = ("" if lo == -math.inf else self.const(lo) + " <= ") + _var(name) \
                + ("" if hi == math.inf else " <= " + self.const(hi))
            # An undeclared name passes.
            parts.append(test if present else "(%s is _U or %s)" % (_var(name), test))
        if parts:
            self.line(depth, "if not (%s): raise _Redo" % " and ".join(parts))

    def exit(self, depth: int, facts, value: str) -> None:
        """Test the frame's exit state like any point, then return `value`,
        or from the entry function its verdict, no node and its
        environment."""
        if self.entry:
            value = "(%s, None, %s)" % (self.const(OK), self.env(facts))
        self.point(self.exit_node, depth, facts)
        self.line(depth, "return s, " + value)

    def stmt(self, stmt, n: int, depth: int, facts):
        """Emit the statement at node n, whose step its segment counted;
        returns the facts after it, or None if it cannot fall through."""
        if isinstance(stmt, While):
            assigned = _assigned(stmt.body)
            facts = {name: (fact[0],) + _ANY if name in assigned else fact
                     for name, fact in facts.items()}
            start = len(self.out)
            self.line(depth, "while True:")
            self.point(n, depth + 1, facts)
            cond = self.expr(stmt.cond, n)
            if len(self.out) == start + 1:
                self.out[start] = "    " * depth + "while %s:" % cond
            else:
                self.line(depth + 1, "if not %s: break" % cond)
            steps = _steps(stmt.body)
            if steps is not None:
                first = self.nodes[id(stmt.body[0])] if stmt.body else n
                self.line(depth + 1, "if s + %d > %s: raise _Deopt(%d, s)"
                          % (steps + 1, self.limit, first))
                self.line(depth + 1, "s += %d" % (steps + 1))
            self.iteration = steps is not None
            self.block(stmt.body, depth + 1, facts, follow=n)
            self.iteration = False
            return facts
        self.point(n, depth, facts)
        if isinstance(stmt, If):
            self.line(depth, "if %s:" % self.expr(stmt.cond, n))
            then = self.block(stmt.then, depth + 1, facts)
            orelse = facts
            if stmt.orelse:
                self.line(depth, "else:")
                orelse = self.block(stmt.orelse, depth + 1, facts)
            if then is None or orelse is None:
                return orelse if then is None else then
            return _merge(then, orelse)
        if isinstance(stmt, (Decl, Assign)):
            name, value = ((stmt.name, stmt.init) if isinstance(stmt, Decl)
                           else (stmt.target, stmt.rhs))
            facts[name] = (True,) + _range(IntLit(0) if value is None else value)
            if isinstance(value, Nondet):
                # `_Chooser.choose`: the value at the next index of V, or a
                # new range minimum; H gets the range's high end.
                lo = self.const(value.lo)
                self.line(depth, "%s = V[d] if (d := len(H)) < len(V) else V.append(%s) or %s"
                          % (_var(name), lo, lo))
                self.line(depth, "H.append(%s)" % self.const(value.hi))
            else:
                text = self.const(0) if value is None else self.expr(value, n)
                self.line(depth, "%s = %s" % (_var(name), text))
        elif isinstance(stmt, (Assume, Assert)):
            verdict = self.const(ASSUME_INFEASIBLE if isinstance(stmt, Assume) else ASSERT_FAILED)
            halt = ("return s, (%s, %s, %s)" % (verdict, self.where(n), self.env(facts))
                    if self.entry else "raise _Halt(%s, %s)" % (verdict, self.where(n)))
            self.line(depth, "if not %s: %s" % (self.expr(stmt.cond, n), halt))
        elif isinstance(stmt, Call):
            args = [self.expr(arg, n) for arg in stmt.args]
            target = "_"
            if stmt.result is not None:
                facts[stmt.result] = (True,) + _ANY
                target = _var(stmt.result)
            self.line(depth, "s, %s = %s(%s)" % (target, self.names[stmt.callee],
                                                 ", ".join(["s"] + args)))
        elif isinstance(stmt, Return):
            self.line(depth, "r = %s" % self.expr(stmt.value, n))
            self.exit(depth, facts, "r")
            return None
        return facts

    def expr(self, e, n: int, depth: int = 1) -> str:
        """Code for e at node n, at `depth` in the statement's expression."""
        if depth > _MAX_INLINE_DEPTH or isinstance(e, Nondet):
            raise _Refused
        if isinstance(e, (IntLit, BoolLit)):
            return self.const(e.value)
        if isinstance(e, Var):
            return _var(e.name)
        if isinstance(e, Unary):
            return "(%s%s)" % ("-" if e.op == "neg" else "not ",
                               self.expr(e.operand, n, depth + 1))
        left, right = self.expr(e.left, n, depth + 1), self.expr(e.right, n, depth + 1)
        if e.op == "/":
            return "_divide(%s, %s, %s)" % (left, right, self.where(n))
        op = e.op
        if op in ("&&", "||"):
            # The operands are of sort bool, so Python bools.  Tier 0
            # evaluates both; `and` and `or` skip the right one where the
            # left decides, which only shows if it could halt, and `&` and
            # `|` evaluate both.
            strict = any(isinstance(sub, Binary) and sub.op == "/" for sub in subexprs(e.right))
            op = {"&&": "&", "||": "|"}[op] if strict else {"&&": "and", "||": "or"}[op]
        return "(%s %s %s)" % (left, op, right)


def _tier_up(tier0: _Interpreter):
    """Tier 1 for tier 0's program, or None if the emitter refuses it: the
    entry function's def, from the source `_Emitter` writes, called as
    `entry(0)`, which draws from tier 0's chooser and returns the steps and
    the execution's outcome.  Its globals hold the code it calls and every
    def: the enumeration clears them at its end, which breaks that cycle."""
    emitter = _Emitter(tier0)
    try:
        source = emitter.program()
    except _Refused:
        return None
    exec(compile(source, "<intana tier 1>", "exec"), emitter.namespace)
    return emitter.namespace[emitter.names[tier0.entry]]


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
    `trace` with a copy of every point, on tier 0 alone; with one, no trace
    is recorded.
    """
    if step_limit < 1:
        raise ValueError("step_limit must be >= 1")
    for nd in program_nondets(prog):
        if not nd.bounded:
            raise UnboundedNondetError("program contains unbounded nondet()")
    if prog.main.params:
        raise UnboundedNondetError("entry function must not take parameters")
    if monitor is None and record_trace:
        monitor = _TraceRecorder()
    interp = _Interpreter(prog, step_limit, monitor)
    # The steps tier 0 may still run before tier 1 is compiled.
    budget = sum(len(cfg.nodes) for cfg in interp.cfgs.values()) * TIER_UP_STEPS_PER_NODE
    results, prefix, highs = [], interp.chooser.values, interp.chooser.highs
    entry = None
    try:
        while True:
            if budget < 0:
                entry, budget = _tier_up(interp), math.inf
            if entry is None:
                verdict, node, env = interp.run(prefix)
                if not results:
                    # The first run drew each range's minimum: were every
                    # run as long, the enumeration would take `work` steps.
                    work = interp.steps
                    for lo, hi in zip(prefix, highs):
                        work *= hi - lo + 1
                    if work >= budget:
                        budget = -1
                budget -= interp.steps
            else:
                highs.clear()
                verdict, node, env = entry(0)[1]
            state = ConcreteState(tuple(prefix), env, verdict, node)
            if monitor is not None:
                monitor.end(state)
            results.append(state)
            if len(results) > cap:
                raise EnumerationCapError("more than %d executions" % cap)
            # The next prefix: drop the trailing choices at their range's high
            # end, then take the next value of the last one left.
            while prefix and prefix[-1] >= highs[-1]:
                prefix.pop()
                highs.pop()
            if not prefix:
                return results
            prefix[-1] += 1
    finally:
        if entry is not None:
            entry.__globals__.clear()


def _bounds(abstract):
    """A state's `(name, lo, hi)` bounds, or None if it is bottom."""
    if any(iv.lo > iv.hi for iv in abstract.values()):
        return None
    return tuple((name, iv.lo, iv.hi) for name, iv in abstract.items() if not iv.is_top)


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

    Per function it holds a dict from node id to the node's `(name, lo,
    hi)` bounds, filled when `watch` is called; unbounded intervals are
    left out, as no value falls outside them.  Tier 0's `watch` callable
    and tier 1's inlined tests read that one table.  A point is tested in
    place, only on the names its environment has.  A node whose state is
    bottom has None, and a node without a state has no entry; such a
    point, and any point that fails, walks the environment against the
    state to build the violations.
    """

    def __init__(self, analyses):
        self.analyses = analyses
        self.violations = []
        self.pending = []  # the running execution's violations, without choices
        self.tables = {}

    def watch(self, fname: str):
        before = self.analyses[fname].result.before
        bounds = self.tables[fname] = {n: _bounds(state.as_dict())
                                       for n, state in before.items()}
        node_bounds, pending = bounds.get, self.pending

        def check(n, env):
            tests = node_bounds(n)
            if tests is not None:
                for name, lo, hi in tests:
                    if name in env and not lo <= env[name] <= hi:
                        break
                else:
                    return
            state = before.get(n)
            if state is None:
                pending.append((fname, n, "<missing>", 0, "no state"))
                return
            for var, iv in state.as_dict().items():
                # A bottom has lo > hi.
                if var in env and not iv.lo <= env[var] <= iv.hi:
                    pending.append((fname, n, var, env[var], iv.render()))
        return check

    def bounds(self, fname: str):
        """The bounds table of a function `watch` has seen."""
        return self.tables[fname]

    def end(self, state: ConcreteState) -> None:
        if self.pending:
            self.violations.extend(SoundnessViolation(*found, state.choices)
                                   for found in self.pending)
            self.pending.clear()


def check_soundness(prog: Program, analyses, step_limit: int = 10_000,
                    executions=None, runs=None):
    """Every concrete value at every point must lie in its analysis interval.

    Returns the violations in execution order, then point order, then the
    order of the names of the point's analysis state.  Without `executions`, the program
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
    """`truncated` counts the choices on which `b` hit the step limit and
    `a` did not.

    No choice on which either program hit the limit is compared.  Those on
    which `a` did are left out of `truncated`, as the caller has `a`'s
    executions; so the result is true when no compared choice differs and
    `b` alone was cut short on none.
    """

    counterexample: "tuple | None" = None
    truncated: int = 0

    def __bool__(self):
        return self.counterexample is None and not self.truncated


def check_equivalence(a: Program, b: Program, step_limit: int = 10_000,
                      executions=None) -> EquivalenceResult:
    """Compare final entry-function states and verdicts across all choices.

    The counterexample is the first choice, in sorted order, on which they
    differ.  A run cut short by the step limit has no final state to
    compare, so a choice on which either program hit the limit gives no
    counterexample; if only `b` hit it, it is counted in `truncated`.

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
        if STEP_LIMIT in (ra.verdict, rb.verdict):
            truncated += ra.verdict != STEP_LIMIT
            continue
        # Equal whole environments are equal on `common`, so only runs that
        # differ somewhere need the restricted ones.
        if counterexample is None and (ra.verdict != rb.verdict or ra.env != rb.env):
            ea = {v: ra.env[v] for v in common if v in ra.env}
            eb = {v: rb.env[v] for v in common if v in rb.env}
            if ra.verdict != rb.verdict or ea != eb:
                counterexample = (ra.choices, (ra.verdict, ea), (rb.verdict, eb))
    return EquivalenceResult(counterexample, truncated)
