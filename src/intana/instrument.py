"""Emit interval invariants as assume statements.

Assumptions are anchored at loops (before the condition and at the top
of the body), conditionals, assertions, and calls, and restricted to the
variables that occur in the anchor statement.  Because every emitted
bound comes from a sound analysis state, the assumptions never prune a
feasible execution: the instrumented program behaves identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .absint import AbstractState, AnalysisConfig, transfer_assume
from .lang import (
    Assert,
    Assume,
    Binary,
    Call,
    Expr,
    FALSE,
    If,
    IntLit,
    Program,
    Stmt,
    Var,
    While,
    free_vars,
    map_children,
    map_program,
    walk_stmts,
)

LOOP_BEFORE = "loop-before"
LOOP_INSIDE = "loop-inside"
CONDITIONAL = "conditional"
ASSERTION = "assertion"
CALL = "call"


@dataclass(frozen=True)
class InstrumentationPoint:
    function: str
    node: int
    kind: str
    vars: frozenset
    emitted: Expr


def _conjoin(parts: "list[Expr]") -> Expr:
    expr = parts[0]
    for p in parts[1:]:
        expr = Binary("&&", expr, p)
    return expr


def intervals_to_assume_expr(varnames, state: AbstractState) -> "Expr | None":
    """Bound conjunction over varnames, or None when nothing is known."""
    if state.is_bottom:
        return FALSE
    parts = []
    for name in sorted(varnames):
        iv = state.get(name)
        if not isinstance(iv.lo, float):
            parts.append(Binary(">=", Var(name), IntLit(iv.lo)))
        if not isinstance(iv.hi, float):
            parts.append(Binary("<=", Var(name), IntLit(iv.hi)))
    if not parts:
        return None
    return _conjoin(parts)


class _Instrumenter:
    def __init__(self, prog: Program, analyses, config: AnalysisConfig):
        self.analyses = analyses
        self.config = config
        self.points: "list[InstrumentationPoint]" = []
        # New statements are numbered past every sid of the input program.
        self.next_sid = 1 + max((s.sid for fn in prog.functions.values()
                                 for s in walk_stmts(fn.body)), default=0)

    def _assume(self, varnames, state, where: "tuple[str, int]",
                kind: str) -> "list[Stmt]":
        expr = intervals_to_assume_expr(varnames, state)
        if expr is None:
            return []
        self.points.append(InstrumentationPoint(
            *where, kind, frozenset(varnames), expr))
        stmt = Assume(cond=expr, sid=self.next_sid)
        self.next_sid += 1
        return [stmt]

    def stmt(self, fname: str, stmt: Stmt, walk) -> "list[Stmt]":
        analysis = self.analyses[fname]
        state = analysis.state_before(stmt)
        if state is None:
            return [stmt]
        where = (fname, analysis.cfg.stmt_node[stmt.sid])
        if isinstance(stmt, While):
            head = self._assume(free_vars(stmt.cond), state, where, LOOP_BEFORE)
            inside_state = transfer_assume(state, stmt.cond, True, self.config)
            inside = self._assume(free_vars(stmt.cond), inside_state, where,
                                  LOOP_INSIDE)
            loop = map_children(stmt, walk)
            return head + [replace(loop, body=inside + loop.body)]
        if isinstance(stmt, If):
            pre = self._assume(free_vars(stmt.cond), state, where, CONDITIONAL)
            return pre + [map_children(stmt, walk)]
        if isinstance(stmt, Assert):
            return self._assume(free_vars(stmt.cond), state, where,
                                ASSERTION) + [stmt]
        if isinstance(stmt, Call):
            varnames = set()
            for a in stmt.args:
                varnames |= free_vars(a)
            return self._assume(varnames, state, where, CALL) + [stmt]
        return [stmt]


def instrument_program(prog: Program, analyses,
                       config: "AnalysisConfig | None" = None
                       ) -> "tuple[Program, list[InstrumentationPoint]]":
    config = config or AnalysisConfig()
    worker = _Instrumenter(prog, analyses, config)
    return map_program(prog, worker.stmt), worker.points
