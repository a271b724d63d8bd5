"""Interval-driven program rewriting.

Three passes over an analyzed program: singleton propagation (replace a
variable read whose interval is a single value with that literal), guard
elimination (resolve conditions in three-valued logic, recursing into
boolean operands, and flatten the dead branches), and constant folding.

Every rewrite must preserve observable behavior, including failure
behavior: a condition is never replaced by a literal if doing so would
drop a division whose divisor may be zero, and division by a literal
zero is never folded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .absint import (
    AbstractState,
    AnalysisConfig,
    FunctionAnalysis,
    analyze_program,
    condition_verdict,
    eval_expr,
)
from .interval import Truth3
from .lang import (
    ARITH_OPS,
    Assert,
    Assume,
    Binary,
    BoolLit,
    CONCRETE,
    Expr,
    FALSE,
    If,
    IntLit,
    Program,
    Stmt,
    TRUE,
    Unary,
    Var,
    While,
    map_children,
    map_exprs,
    map_program,
    subexprs,
)


@dataclass
class RewriteReport:
    singletons_propagated: int = 0
    guards_true: int = 0
    guards_false: int = 0
    constants_folded: int = 0
    dead_branches_removed: int = 0

    @property
    def guards_eliminated(self) -> int:
        return self.guards_true + self.guards_false

    def absorb(self, other: "RewriteReport") -> None:
        self.singletons_propagated += other.singletons_propagated
        self.guards_true += other.guards_true
        self.guards_false += other.guards_false
        self.constants_folded += other.constants_folded
        self.dead_branches_removed += other.dead_branches_removed


def has_division(e: Expr) -> bool:
    return any(isinstance(s, Binary) and s.op == "/" for s in subexprs(e))


def division_safe(e: Expr, state: AbstractState, arith: bool) -> bool:
    """True when no division in e can have a zero divisor under state."""
    for sub in subexprs(e):
        if isinstance(sub, Binary) and sub.op == "/":
            divisor = eval_expr(sub.right, state, arith)
            if divisor.is_bottom or 0 in divisor:
                return False
    return True


def _prune(stmt: Stmt, report: RewriteReport) -> "list[Stmt] | None":
    """The statements, not yet walked, that replace an If or While whose
    condition is now a literal: its live branch, or none.  None for any
    other statement, which keeps its sub-blocks."""
    cond = stmt.cond if isinstance(stmt, (If, While)) else None
    if not isinstance(cond, BoolLit) or isinstance(stmt, While) and cond.value:
        return None  # a loop whose condition is true stays
    report.dead_branches_removed += 1
    if isinstance(stmt, While):
        return []
    return stmt.then if cond.value else (stmt.orelse or [])


# --- singleton propagation ---------------------------------------------------

def _subst_singletons(e: Expr, state: AbstractState, report: RewriteReport) -> Expr:
    if isinstance(e, Var):
        iv = state.get(e.name)
        if iv.is_singleton:
            report.singletons_propagated += 1
            return IntLit(iv.lo)
        return e
    # An unchanged subtree is returned as it is, so guard classification
    # meets the analysis's own condition objects and their lowered forms.
    if isinstance(e, Unary):
        operand = _subst_singletons(e.operand, state, report)
        return Unary(e.op, operand) if operand is not e.operand else e
    if isinstance(e, Binary):
        left = _subst_singletons(e.left, state, report)
        right = _subst_singletons(e.right, state, report)
        return Binary(e.op, left, right) if left is not e.left or right is not e.right else e
    return e


def singleton_propagate(prog: Program, analyses) -> "tuple[Program, RewriteReport]":
    report = RewriteReport()

    def propagate(name, stmt, walk):
        state = analyses[name].state_before(stmt)
        if state is not None and not state.is_bottom:
            stmt = map_exprs(stmt, lambda e: _subst_singletons(e, state, report))
        return [map_children(stmt, walk)]

    return map_program(prog, propagate), report


# --- guard elimination -------------------------------------------------------

def _literalize(cond: Expr, verdict: Truth3, state: AbstractState,
                config: AnalysisConfig, report: RewriteReport) -> "Expr | None":
    """The literal for a resolved condition, or None if it must stay."""
    if not division_safe(cond, state, config.interval_arith):
        return None
    if verdict is Truth3.TRUE:
        report.guards_true += 1
        return TRUE
    if verdict is Truth3.FALSE:
        report.guards_false += 1
        return FALSE
    return None


def _resolve_cond(cond: Expr, state: "AbstractState | None",
                  config: AnalysisConfig, report: RewriteReport) -> Expr:
    if isinstance(cond, BoolLit) or state is None or state.is_bottom:
        return cond
    verdict = condition_verdict(cond, state, config)
    if verdict is not Truth3.MAYBE:
        lit = _literalize(cond, verdict, state, config, report)
        if lit is not None:
            return lit
    if isinstance(cond, Binary) and cond.op in ("&&", "||"):
        left = _resolve_cond(cond.left, state, config, report)
        right = _resolve_cond(cond.right, state, config, report)
        # A literal operand has the verdict of the operand it replaces, so
        # the rebuilt parent has the verdict found above, and it keeps every
        # division that stopped the parent from resolving.
        if left is not cond.left or right is not cond.right:
            return Binary(cond.op, left, right)
    if isinstance(cond, Unary) and cond.op == "not":
        inner = _resolve_cond(cond.operand, state, config, report)
        if inner is not cond.operand:
            return Unary("not", inner)
    return cond


def guard_eliminate(prog: Program, analyses,
                    config: AnalysisConfig = AnalysisConfig()) -> "tuple[Program, RewriteReport]":
    report = RewriteReport()

    def eliminate(name, stmt, walk):
        if isinstance(stmt, (Assume, Assert, If, While)):
            state = analyses[name].state_before(stmt)
            stmt = replace(stmt, cond=_resolve_cond(stmt.cond, state, config, report))
        live = _prune(stmt, report)
        return [map_children(stmt, walk)] if live is None else walk(live)

    return map_program(prog, eliminate), report


# --- constant folding --------------------------------------------------------

def _fold_expr(e: Expr, report: RewriteReport) -> Expr:
    if isinstance(e, Unary):
        operand = _fold_expr(e.operand, report)
        if e.op == "neg" and isinstance(operand, IntLit):
            report.constants_folded += 1
            return IntLit(-operand.value)
        if e.op == "not" and isinstance(operand, BoolLit):
            report.constants_folded += 1
            return BoolLit(not operand.value)
        return Unary(e.op, operand) if operand is not e.operand else e
    if not isinstance(e, Binary):
        return e
    left = _fold_expr(e.left, report)
    right = _fold_expr(e.right, report)
    op = e.op
    # A division by a literal zero is left for the concrete checker to trap.
    if isinstance(left, IntLit) and isinstance(right, IntLit) and (op != "/" or right.value):
        report.constants_folded += 1
        value = CONCRETE[op](left.value, right.value)
        return IntLit(value) if op in ARITH_OPS else BoolLit(value)
    if op in ("&&", "||"):
        folded = _fold_bool(op, left, right, report)
        if folded is not None:
            return folded
    if left is not e.left or right is not e.right:
        return Binary(op, left, right)
    return e


def _fold_bool(op: str, left: Expr, right: Expr,
               report: RewriteReport) -> "Expr | None":
    neutral = op == "&&"  # true is neutral for &&, false for ||
    for lit, other in ((left, right), (right, left)):
        if not isinstance(lit, BoolLit):
            continue
        if lit.value == neutral:
            report.constants_folded += 1
            return other
        # The absorbing literal discards the other operand entirely, which
        # is only behavior-preserving when it cannot divide by zero.
        if not has_division(other):
            report.constants_folded += 1
            return BoolLit(not neutral)
    return None


def const_fold(prog: Program) -> "tuple[Program, RewriteReport]":
    report = RewriteReport()

    def fold(name, stmt, walk):
        stmt = map_exprs(stmt, lambda e: _fold_expr(e, report))
        live = _prune(stmt, report)
        return [map_children(stmt, walk)] if live is None else walk(live)

    return map_program(prog, fold), report


# --- pipeline ----------------------------------------------------------------

def optimize_program(prog: Program, config: AnalysisConfig = AnalysisConfig()
                     ) -> "tuple[Program, RewriteReport, dict[str, FunctionAnalysis]]":
    """analyze, propagate singletons, eliminate guards, fold constants.

    The analyses returned are those of prog, as analyze_program gives them.
    """
    analyses = analyze_program(prog, config)
    # Statement ids survive rewriting, so one analysis serves both passes.
    propagated, report = singleton_propagate(prog, analyses)
    eliminated, r2 = guard_eliminate(propagated, analyses, config)
    folded, r3 = const_fold(eliminated)
    report.absorb(r2)
    report.absorb(r3)
    return folded, report, analyses
