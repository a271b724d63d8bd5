"""Interval evaluation, and forward-backward contraction of boxes (AbstractStates).

`eval_expr` is the one forward interval evaluator: the analyzer's
transfer functions use it, and so does the contractor's forward stage.

A constraint `lhs <rel> rhs` is rewritten as `lhs - rhs <rel> 0`, the
expression tree is evaluated bottom-up over the box with each
subexpression's interval noted (forward stage), the root is met with the
relation's range from `interval.RELATION_RANGE`, and inverse projections
push the requirement back down to the variables (backward stage).  Strict
inequalities are tightened integer-wise (x < e becomes x <= e - 1).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .interval import (
    AbstractState,
    BOTTOM,
    Interval,
    NEG_INF,
    POS_INF,
    RELATION_RANGE,
    TOP,
    Truth3,
    divisor_parts,
    ext_add,
    ext_mul,
    interval_binop,
    is_finite,
)
from .lang import Binary, BoolLit, CMP_OPS, Expr, IntLit, Nondet, Unary, Var

# Sibling intervals at most this many values wide are projected by exact
# enumeration; larger ones fall back to a sound rational hull.
ENUM_LIMIT = 2048

_NEGATED_CMP = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", "<=": ">", ">": "<="}


@dataclass(frozen=True)
class Constraint:
    relation: str
    lhs: Expr
    rhs: Expr

    @staticmethod
    def from_expr(e: Expr) -> "Constraint":
        if not (isinstance(e, Binary) and e.op in CMP_OPS):
            raise ValueError("not a comparison: %r" % (e,))
        return Constraint(e.op, e.left, e.right)


def box_render(box: AbstractState) -> str:
    if box.is_bottom:
        return "empty"
    return ", ".join("%s:%s" % (v, iv.render()) for v, iv in box.items())


_BOX_ENTRY_RE = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*:\s*"
    r"\[\s*(?P<lo>[+-]?(?:\d+|inf))\s*,\s*(?P<hi>[+-]?(?:\d+|inf))\s*\]")


def parse_box(text: str) -> AbstractState:
    """Parse the dump syntax `x:[0,10], y:[2,4]` (with inf keywords), in order."""
    box = {}
    for m in _BOX_ENTRY_RE.finditer(text):
        box[m.group("name")] = Interval.make(
            _bound(m.group("lo")), _bound(m.group("hi")))
    rest = _BOX_ENTRY_RE.sub("", text).replace(",", "").strip()
    if rest or not box:
        raise ValueError("bad box syntax: %r" % text)
    return AbstractState.of(box)


def _bound(text: str):
    if text.endswith("inf"):
        return NEG_INF if text.startswith("-") else POS_INF
    return int(text)


# --- forward evaluation ------------------------------------------------------

def eval_expr(e: Expr, box: AbstractState, arith: bool = True, notes=None) -> Interval:
    """Bottom-up interval evaluation of an arithmetic expression.

    With a `notes` dict, each subexpression's interval is also recorded
    under its id(); it depends only on the subexpression and the box.
    """
    if box.is_bottom:
        return BOTTOM
    if isinstance(e, IntLit):
        itv = Interval.singleton(e.value)
    elif isinstance(e, Var):
        itv = box[e.name]
    elif isinstance(e, Nondet):
        itv = Interval(e.lo, e.hi) if e.bounded else TOP
    elif isinstance(e, Unary) and e.op == "neg":
        itv = eval_expr(e.operand, box, arith, notes).negate()
    elif isinstance(e, Binary):
        itv = interval_binop(e.op, eval_expr(e.left, box, arith, notes),
                             eval_expr(e.right, box, arith, notes), arith=arith)
    else:
        raise ValueError("not an arithmetic expression: %r" % (e,))
    if notes is not None:
        notes[id(e)] = itv
    return itv


# --- inverse projections -----------------------------------------------------

def _floor_div(a, b: int):
    if isinstance(a, float):
        return a if b > 0 else -a
    return a // b


def _ceil_div(a, b: int):
    if isinstance(a, float):
        return a if b > 0 else -a
    return -((-a) // b)


def _mul_preimage_exact(z: Interval, yv: int) -> Interval:
    """Hull of {x : x*yv in z} for a fixed nonzero yv."""
    if yv > 0:
        return Interval.make(_ceil_div(z.lo, yv), _floor_div(z.hi, yv))
    return Interval.make(_ceil_div(z.hi, yv), _floor_div(z.lo, yv))


def _ratio_corner(zb, yb):
    """Candidate endpoint of z/y at a corner; infinities by sign limit."""
    if isinstance(zb, float) and isinstance(yb, float):
        return POS_INF if (zb > 0) == (yb > 0) else NEG_INF
    if isinstance(zb, float):
        return POS_INF if (zb > 0) == (yb > 0) else NEG_INF
    if isinstance(yb, float):
        return Fraction(0)
    return Fraction(zb, yb)


def _mul_preimage_hull(z: Interval, part: Interval) -> Interval:
    corners = [_ratio_corner(zb, yb)
               for zb in (z.lo, z.hi) for yb in (part.lo, part.hi)]
    lo, hi = min(corners), max(corners)
    lo = NEG_INF if lo == NEG_INF else math.ceil(lo)
    hi = POS_INF if hi == POS_INF else math.floor(hi)
    return Interval.make(lo, hi)


def _over_divisors(z: Interval, y: Interval, exact, hull) -> Interval:
    """Join over y's nonzero parts: exact(z, yv) for each member of a part
    at most ENUM_LIMIT values wide, hull(z, part) for a wider one."""
    out = BOTTOM
    for part in divisor_parts(y):
        n = part.count()
        if n is not None and n <= ENUM_LIMIT:
            for yv in part.values():
                out = out.join(exact(z, yv))
        else:
            out = out.join(hull(z, part))
    return out


def inv_mul(z: Interval, y: Interval) -> Interval:
    """Hull of {x : exists y' in y with x*y' in z}."""
    if z.is_bottom or y.is_bottom:
        return BOTTOM
    if 0 in y and 0 in z:
        return TOP  # y' = 0 works for every x
    return _over_divisors(z, y, _mul_preimage_exact, _mul_preimage_hull)


def _tdiv_preimage_pos(z: Interval, yv: int) -> Interval:
    """Hull of {x : trunc(x / yv) in z} for a fixed yv > 0."""
    if z.is_bottom:
        return BOTTOM
    if not is_finite(z.lo):
        lo = NEG_INF
    elif z.lo > 0:
        lo = z.lo * yv
    else:
        lo = z.lo * yv - (yv - 1)
    if not is_finite(z.hi):
        hi = POS_INF
    elif z.hi < 0:
        hi = z.hi * yv
    else:
        hi = z.hi * yv + (yv - 1)
    return Interval.make(lo, hi)


def _tdiv_preimage(z: Interval, yv: int) -> Interval:
    # trunc(x / -m) = -trunc(x / m): mirror through negation of z.
    if yv > 0:
        return _tdiv_preimage_pos(z, yv)
    return _tdiv_preimage_pos(z.negate(), -yv)


def _tdiv_preimage_hull(z: Interval, part: Interval) -> Interval:
    # The preimage endpoints are linear in yv, so part corners suffice.
    def lo_at(yv):
        if not is_finite(z.lo):
            return NEG_INF
        if z.lo > 0:
            return ext_mul(z.lo, yv)
        return ext_add(ext_mul(z.lo - 1, yv), 1) if isinstance(yv, float) else z.lo * yv - (yv - 1)

    def hi_at(yv):
        if not is_finite(z.hi):
            return POS_INF
        if z.hi < 0:
            return ext_mul(z.hi, yv)
        return ext_add(ext_mul(z.hi + 1, yv), -1) if isinstance(yv, float) else z.hi * yv + (yv - 1)

    if part.lo > 0:
        los = [lo_at(part.lo), lo_at(part.hi)]
        his = [hi_at(part.lo), hi_at(part.hi)]
        return Interval.make(min(los), max(his))
    # Negative part: trunc(x / -m) = -trunc(x / m), so mirror the target
    # range; the dividend is the same.
    return _tdiv_preimage_hull(z.negate(), part.negate())


def inv_div_dividend(z: Interval, y: Interval) -> Interval:
    """Hull of {x : exists nonzero y' in y with trunc(x/y') in z}."""
    if z.is_bottom or y.is_bottom:
        return BOTTOM
    return _over_divisors(z, y, _tdiv_preimage, _tdiv_preimage_hull)


def inv_div_divisor(z: Interval, x: Interval, y: Interval) -> Interval:
    """Hull of {y' in y nonzero : exists x' in x with trunc(x'/y') in z}."""
    if z.is_bottom or x.is_bottom or y.is_bottom:
        return BOTTOM

    def exact(z, yv):
        return BOTTOM if _tdiv_preimage(z, yv).meet(x).is_bottom else Interval.singleton(yv)

    # A part too wide to enumerate is kept whole.
    return _over_divisors(z, y, exact, lambda z, part: part)


# --- backward propagation ----------------------------------------------------

def backward_prop(e: Expr, required: Interval, box: AbstractState, notes) -> AbstractState:
    """Push `required` down e, whose forward intervals over box are in
    `notes` (see eval_expr); returns the refined box."""
    ivs = list(box.intervals)
    if _backward(e, required, box, notes, ivs):
        return box.replaced(ivs)
    return box.as_bottom()


def _backward(e: Expr, required: Interval, box: AbstractState, notes, ivs: list) -> bool:
    """Refine ivs, the box's intervals, in place; False once one is empty."""
    itv = notes[id(e)].meet(required)
    if itv.is_bottom:
        return False
    if isinstance(e, Var):
        i = box.position(e.name)
        refined = ivs[i].meet(itv)
        if refined.is_bottom:
            return False
        ivs[i] = refined
        return True
    if isinstance(e, IntLit):
        return True
    if isinstance(e, Unary):
        return _backward(e.operand, itv.negate(), box, notes, ivs)
    left, right = e.left, e.right
    x, y = notes[id(left)], notes[id(right)]
    if e.op == "+":
        lreq = interval_binop("-", itv, y)
        rreq = interval_binop("-", itv, x)
    elif e.op == "-":
        lreq = interval_binop("+", itv, y)
        rreq = interval_binop("-", x, itv)
    elif e.op == "*":
        if left == right:
            # Syntactic square: both factors share one value in any point.
            sq = _inv_square(itv, x)
            return (_backward(left, sq, box, notes, ivs)
                    and _backward(right, sq, box, notes, ivs))
        lreq = inv_mul(itv, y)
        rreq = inv_mul(itv, x)
    elif e.op == "/":
        lreq = inv_div_dividend(itv, y)
        rreq = inv_div_divisor(itv, x, y)
    else:
        raise ValueError(e.op)
    return (_backward(left, lreq, box, notes, ivs)
            and _backward(right, rreq, box, notes, ivs))


def _inv_square(z: Interval, x: Interval) -> Interval:
    """Hull of {x' : x'*x' in z}, restricted to x's sign when definite."""
    z = z.meet(Interval.make(0, POS_INF))
    if z.is_bottom or x.is_bottom:
        return BOTTOM
    hi = POS_INF if not is_finite(z.hi) else math.isqrt(z.hi)
    if z.lo > 0:
        lo = math.isqrt(z.lo - 1) + 1  # smallest s with s*s >= z.lo
    else:
        lo = 0
    positive = Interval.make(lo, hi)
    if x.lo >= 0:
        return positive
    if x.hi <= 0:
        return positive.negate()
    return positive.join(positive.negate())


# --- single-constraint contraction -------------------------------------------

def hc4_revise(c: Constraint, box: AbstractState) -> AbstractState:
    """One forward-backward pass; contracts box, preserving all solutions."""
    if box.is_bottom:
        return box
    diff = Binary("-", c.lhs, c.rhs)
    notes = {}
    itv = eval_expr(diff, box, notes=notes)
    if c.relation == "!=":
        if itv == Interval(0, 0):
            return box.as_bottom()
        return box
    return backward_prop(diff, RELATION_RANGE[c.relation], box, notes)


def _round_robin(revise, items, box: AbstractState, max_rounds: int) -> AbstractState:
    """Apply revise(item, box) to each item in turn until the box is stable,
    empty, or max_rounds rounds have run."""
    current = box
    for _ in range(max_rounds):
        previous = current
        for item in items:
            current = revise(item, current)
            if current.is_bottom:
                return current
        if current == previous:
            break
    return current


def contract_fixpoint(cs, box: AbstractState, max_rounds: int = 10) -> AbstractState:
    """Round-robin single-constraint contraction until stable."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    return _round_robin(hc4_revise, cs, box, max_rounds)


# --- condition classification ------------------------------------------------

def nnf(e: Expr, negated: bool = False) -> Expr:
    """Negation normal form; negation flips comparisons and connectives."""
    if isinstance(e, BoolLit):
        return BoolLit(e.value != negated)
    if isinstance(e, Unary) and e.op == "not":
        return nnf(e.operand, not negated)
    if isinstance(e, Binary) and e.op in ("&&", "||"):
        op = e.op
        if negated:
            op = "||" if op == "&&" else "&&"
        return Binary(op, nnf(e.left, negated), nnf(e.right, negated))
    if isinstance(e, Binary) and e.op in CMP_OPS:
        return Binary(_NEGATED_CMP[e.op], e.left, e.right) if negated else e
    raise ValueError("not a condition: %r" % (e,))


def _flatten_and(e: Expr):
    if isinstance(e, Binary) and e.op == "&&":
        yield from _flatten_and(e.left)
        yield from _flatten_and(e.right)
    else:
        yield e


def _contract_conjunct(item: Expr, box: AbstractState) -> AbstractState:
    if isinstance(item, Binary) and item.op in CMP_OPS:
        return hc4_revise(Constraint.from_expr(item), box)
    return contract_condition(item, box, 1)


def contract_condition(cond: Expr, box: AbstractState, max_rounds: int = 10) -> AbstractState:
    """Contract a condition already in NNF; disjunctions are hulled."""
    if box.is_bottom:
        return box
    if isinstance(cond, BoolLit):
        return box if cond.value else box.as_bottom()
    if isinstance(cond, Binary) and cond.op in CMP_OPS:
        return hc4_revise(Constraint.from_expr(cond), box)
    if isinstance(cond, Binary) and cond.op == "||":
        left = contract_condition(cond.left, box, max_rounds)
        right = contract_condition(cond.right, box, max_rounds)
        return left.join(right)
    if isinstance(cond, Binary) and cond.op == "&&":
        return _round_robin(_contract_conjunct, list(_flatten_and(cond)), box,
                            max_rounds)
    raise ValueError("not an NNF condition: %r" % (cond,))


@dataclass
class Classification:
    verdict: Truth3
    box_in: AbstractState
    box_out: AbstractState


def classify_condition(cond: Expr, box: AbstractState) -> Classification:
    """Refined boxes for a condition and its negation, plus the verdict.

    The verdict is TRUE iff the negation's box is empty, FALSE iff the
    condition's box is empty, MAYBE otherwise (including an empty input
    box, which must never drive a rewrite).
    """
    box_in = contract_condition(nnf(cond), box)
    box_out = contract_condition(nnf(cond, negated=True), box)
    if box.is_bottom:
        verdict = Truth3.MAYBE
    elif box_out.is_bottom:
        verdict = Truth3.TRUE
    elif box_in.is_bottom:
        verdict = Truth3.FALSE
    else:
        verdict = Truth3.MAYBE
    return Classification(verdict, box_in, box_out)
