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
    fold,
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


def _rebuild(e: Expr, a=None, b=None) -> Expr:
    """e over operands a (and b), or e itself if they are its own: guard
    classification meets the analysis's own conditions and their forms."""
    if isinstance(e, Unary):
        return e if a is e.operand else Unary(e.op, a)
    if isinstance(e, Binary):
        return e if a is e.left and b is e.right else Binary(e.op, a, b)
    return e


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
    def visit(e, a=None, b=None):
        if isinstance(e, Var):
            iv = state.get(e.name)
            if iv.is_singleton:
                report.singletons_propagated += 1
                return IntLit(iv.lo)
        return _rebuild(e, a, b)

    return fold(e, visit)


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
    """cond, or else each of its operands, resolved to a literal where the analysis
    decides it; a loop goes down left operands, and only right ones recurse."""
    if state is None or state.is_bottom:
        return cond
    spine = []  # the unresolved nodes from cond down
    while not isinstance(cond, BoolLit):
        verdict = condition_verdict(cond, state, config)
        if verdict is not Truth3.MAYBE:
            lit = _literalize(cond, verdict, state, config, report)
            if lit is not None:
                cond = lit
                break
        if not (isinstance(cond, Binary) and cond.op in ("&&", "||")
                or isinstance(cond, Unary) and cond.op == "not"):
            break
        spine.append(cond)
        cond = cond.left if isinstance(cond, Binary) else cond.operand
    # A literal operand has the verdict of the operand it replaces, so a
    # rebuilt parent has the verdict found for it, and it keeps every
    # division that stopped the parent from resolving.
    for node in reversed(spine):
        right = (_resolve_cond(node.right, state, config, report)
                 if isinstance(node, Binary) else None)
        cond = _rebuild(node, cond, right)
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
    def visit(e, left=None, right=None):
        if isinstance(e, Unary):
            if e.op == "neg" and isinstance(left, IntLit):
                report.constants_folded += 1
                return IntLit(-left.value)
            if e.op == "not" and isinstance(left, BoolLit):
                report.constants_folded += 1
                return BoolLit(not left.value)
        elif isinstance(e, Binary):
            op = e.op
            # A division by a literal zero is left for the concrete checker to trap.
            if type(left) is IntLit and type(right) is IntLit and (op != "/" or right.value):
                report.constants_folded += 1
                value = CONCRETE[op](left.value, right.value)
                return IntLit(value) if op in ARITH_OPS else BoolLit(value)
            if op in ("&&", "||"):
                folded = _fold_bool(op, left, right, report)
                if folded is not None:
                    return folded
        return _rebuild(e, left, right)

    return fold(e, visit)


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
