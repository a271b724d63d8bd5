"""Interval evaluation, and forward-backward contraction of boxes (AbstractStates).

`eval_expr` walks an expression tree; the analyzer's transfer functions
use it.  The contractors take one input form only: a condition lowered
once over a box's names.  `lower_comparison` lowers a variable against an
integer literal K, under any relation but `!=`, straight to one bound on
the variable's position, K + range (K - range with the variable on the
right), where range is the relation's from `interval.RELATION_RANGE`; no
slots are built.  Any other `lhs <rel> rhs` is lowered to `lhs - rhs` as
a postorder slot array that reads variables by position, with
variable-free subtrees folded, and is one bound too if the fold leaves a
variable against a constant.  `lower_condition` lowers a whole condition
or its negation, once per analysis.  HC4-revise meets a bound's variable
with it by position; it sweeps any other comparison forward, meets the
root with the relation's range, and sweeps the inverse projections back
to the variables.  Strict inequalities are integer-wise: x < e is
x - e <= -1.  The one round-robin loop is the
`&&` branch of `contract_condition`; `contract_fixpoint` runs it over a
list of comparisons.  A round of single-variable bounds alone is its
last: a second would meet each variable with the same bounds again.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass

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
    parse_range,
)
from .lang import (
    ARITH_OPS, Binary, BoolLit, CMP_OPS, Expr, IntLit, Nondet, Unary, Var, expr_to_source, fold,
    subexprs)

# Divisor parts at most this many values wide are projected member by
# member; a wider part is projected as one hull.
ENUM_LIMIT = 2048

_NEGATED_CMP = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", "<=": ">", ">": "<="}


def box_render(box: AbstractState) -> str:
    if box.is_bottom:
        return "empty"
    return ", ".join("%s:%s" % (v, iv.render()) for v, iv in box.items())


_BOX_ENTRY_RE = re.compile(
    r"([A-Za-z_][A-Za-z_0-9]*)\s*:\s*"
    r"\[\s*([+-]?(?:\d+|inf))\s*,\s*([+-]?(?:\d+|inf))\s*\]")
# Entries separated by single commas, nothing else.
_BOX_RE = re.compile(r"\s*%s(?:\s*,\s*%s)*\s*" % ((_BOX_ENTRY_RE.pattern,) * 2))


def parse_box(text: str) -> AbstractState:
    """Parse the dump syntax `x:[0,10], y:[2,4]` (with inf keywords), in order."""
    if not _BOX_RE.fullmatch(text):
        raise ValueError("bad box syntax: %r" % text)
    box = {}
    for m in _BOX_ENTRY_RE.finditer(text):
        name = m.group(1)
        if name in box:
            raise ValueError("duplicate variable %r in box" % name)
        box[name] = parse_range(m.group(2), m.group(3), " in box entry %r" % m.group(0))
    return AbstractState.of(box)


# --- forward evaluation ------------------------------------------------------

# The intervals of small literals, made once rather than at every visit.
_LITERALS = {v: Interval(v, v) for v in range(-256, 257)}


def eval_expr(e: Expr, box: AbstractState, arith: bool = True) -> Interval:
    """Bottom-up interval evaluation of an arithmetic expression."""
    if box.is_bottom:
        return BOTTOM

    def visit(e, a=None, b=None):
        kind = type(e)
        if kind is Var:
            return box[e.name]
        if kind is IntLit:
            iv = _LITERALS.get(e.value)
            return Interval(e.value, e.value) if iv is None else iv
        if kind is Binary:
            return interval_binop(e.op, a, b, arith=arith)
        if kind is Unary and e.op == "neg":
            return a.negate()
        if kind is Nondet:
            return Interval(e.lo, e.hi) if e.bounded else TOP
        raise ValueError("not an arithmetic expression: %r" % (e,))

    return fold(e, visit)


# --- inverse projections -----------------------------------------------------

def _floor_div(a, b):
    """floor(a / b) on extended ints, b != 0; a finite a over an infinite b is 0."""
    if isinstance(a, float):
        return a if b > 0 else -a
    return 0 if isinstance(b, float) else a // b


def _ceil_div(a, b):
    """ceil(a / b) on extended ints, b != 0; a finite a over an infinite b is 0."""
    if isinstance(a, float):
        return a if b > 0 else -a
    return 0 if isinstance(b, float) else -((-a) // b)


def _mul_preimage(z: Interval, part: Interval) -> Interval:
    """Hull of {x : x*y' in z} over y' in part, a one-signed nonzero interval;
    exact at a singleton part."""
    zlo, zhi, a, b = z.lo, z.hi, part.lo, part.hi
    if a < 0:  # x*y' in z iff x*(-y') in -z
        zlo, zhi, a, b = -zhi, -zlo, -b, -a
    # Over 0 < a <= y' <= b, zlo / y' is least at b if zlo >= 0, else at a,
    # and zhi / y' greatest at a if zhi >= 0, else at b.  ceil and floor
    # are monotone, so rounding those two ratios inward gives the hull.
    return Interval.make(_ceil_div(zlo, b if zlo >= 0 else a),
                         _floor_div(zhi, a if zhi >= 0 else b))


def _tdiv_preimage(z: Interval, part: Interval) -> Interval:
    """Hull of {x : trunc(x / y') in z} over y' in part, a one-signed nonzero
    interval; exact at a singleton part."""
    zlo, zhi, a, b = z.lo, z.hi, part.lo, part.hi
    if a < 0:  # trunc(x / -m) = -trunc(x / m): mirror z; the dividend is the same
        zlo, zhi, a, b = -zhi, -zlo, -b, -a
    # For y' > 0 the preimage is lo(y')..hi(y'), each end monotone in y'.
    if not is_finite(zlo):
        lo = NEG_INF
    elif zlo > 0:
        lo = zlo * a
    else:
        lo = ext_add(ext_mul(zlo - 1, b), 1)
    if not is_finite(zhi):
        hi = POS_INF
    elif zhi < 0:
        hi = zhi * a
    else:
        hi = ext_add(ext_mul(zhi + 1, b), -1)
    return Interval.make(lo, hi)


def _over_divisors(z: Interval, y: Interval, preimage) -> Interval:
    """Join of preimage(z, part) over y's nonzero parts, taken member by
    member (as singleton parts) in a part at most ENUM_LIMIT values wide."""
    out = BOTTOM
    for part in divisor_parts(y):
        n = part.count()
        if n is not None and n <= ENUM_LIMIT:
            for yv in part.values():
                out = out.join(preimage(z, Interval(yv, yv)))
        else:
            out = out.join(preimage(z, part))
    return out


def inv_mul(z: Interval, y: Interval) -> Interval:
    """Hull of {x : exists y' in y with x*y' in z}."""
    if z.is_bottom or y.is_bottom:
        return BOTTOM
    if 0 in y and 0 in z:
        return TOP  # y' = 0 works for every x
    return _over_divisors(z, y, _mul_preimage)


def inv_div_dividend(z: Interval, y: Interval) -> Interval:
    """Hull of {x : exists nonzero y' in y with trunc(x/y') in z}."""
    if z.is_bottom or y.is_bottom:
        return BOTTOM
    return _over_divisors(z, y, _tdiv_preimage)


def inv_div_divisor(z: Interval, x: Interval, y: Interval) -> Interval:
    """Hull of {y' in y nonzero : exists x' in x with trunc(x'/y') in z}."""
    if z.is_bottom or x.is_bottom or y.is_bottom:
        return BOTTOM

    def members(z, part):
        if part.lo != part.hi:
            return part  # a part too wide to enumerate is kept whole
        return BOTTOM if _tdiv_preimage(z, part).meet(x).is_bottom else part

    return _over_divisors(z, y, members)


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

# A comparison lowered over one box's names (see lower_comparison): a
# `bound` on the variable at `position` if the other side is constant, else
# `lhs - rhs` as postorder `slots` and one interval per slot in `vals`
# (both None for a variable against a literal).
_Code = namedtuple("_Code", "relation lhs rhs required position bound slots vals")


def _push(slots: list, kind: str, a, b) -> int:
    """Append slot (kind, a, b): a variable's position, a constant's interval, or an
    operation on slots a and b, folded when both are constants; return its index."""
    if kind not in ("var", "const") and slots[a][0] == slots[b][0] == "const":
        value = interval_binop("*" if kind == "sq" else kind, slots[a][1], slots[b][1])
        del slots[min(a, b):]
        kind, a, b = "const", value, None
    slots.append((kind, a, b))
    return len(slots) - 1


def _same(e: Expr, other: Expr) -> bool:
    """e == other without recursion: their preorders' nodes match in type and own fields."""
    return all(type(x) is type(y) and (x.op == y.op if type(x) in (Unary, Binary) else x == y)
               for x, y in zip(subexprs(e), subexprs(other)))


def _emit(e: Expr, box: AbstractState, slots: list) -> int:
    """Append e's slots after those of its operands; e's slot."""

    def visit(e, a=None, b=None):
        if isinstance(e, IntLit):
            return _push(slots, "const", Interval.singleton(e.value), None)
        if isinstance(e, Var):
            return _push(slots, "var", box.position(e.name), None)
        if isinstance(e, Unary) and e.op == "neg":  # as 0 - operand
            return _push(slots, "-", _push(slots, "const", Interval.singleton(0), None), a)
        if isinstance(e, Binary) and e.op == "*" and _same(e.left, e.right):
            del slots[a + 1:]  # both factors share the left one's value
            return _push(slots, "sq", a, a)
        if isinstance(e, Binary) and e.op in ARITH_OPS:
            return _push(slots, e.op, a, b)
        raise ValueError("not an arithmetic expression: %r" % (e,))

    return fold(e, visit)


def lower_comparison(e: Expr, box: AbstractState, polarity: bool = True) -> _Code:
    """The code of comparison e, or of its negation when polarity is False,
    over box's names; reads RELATION_RANGE now."""
    if not (isinstance(e, Binary) and e.op in CMP_OPS):
        raise ValueError("not a comparison: %s" % expr_to_source(e))
    relation, lhs, rhs = e.op if polarity else _NEGATED_CMP[e.op], e.left, e.right
    required = None if relation == "!=" else RELATION_RANGE[relation]
    if required is not None:  # x <rel> K or K <rel> x: one bound, no slots
        if type(lhs) is Var and type(rhs) is IntLit:
            return _Code(relation, lhs, rhs, required, box.position(lhs.name),
                         required.shift(rhs.value), None, None)
        if type(lhs) is IntLit and type(rhs) is Var:
            return _Code(relation, lhs, rhs, required, box.position(rhs.name),
                         required.negate().shift(lhs.value), None, None)
    slots, position, bound = [], None, None
    a, b = _emit(lhs, box, slots), _emit(rhs, box, slots)
    if required is not None and len(slots) == 2 and slots[0][0] != slots[1][0]:
        # x - K or K - x for a folded constant K: x in K + range or K - range.
        (_, position, _), (_, const, _) = slots if slots[0][0] == "var" else slots[::-1]
        bound = interval_binop("+" if slots[0][0] == "var" else "-", const, required)
    _push(slots, "-", a, b)
    return _Code(relation, lhs, rhs, required, position, bound, slots, [BOTTOM] * len(slots))


def _forward(code: _Code, ivs) -> Interval:
    """Fill code.vals from the box intervals ivs; the root's value."""
    vals = code.vals
    for k, (kind, a, b) in enumerate(code.slots):
        vals[k] = ivs[a] if kind == "var" else a if kind == "const" \
            else interval_binop("*" if kind == "sq" else kind, vals[a], vals[b])
    return vals[-1]


# Per kind: (z, x, y) -> what x and y must lie in for `x kind y` to lie in z.
_INVERSE = {
    "+": lambda z, x, y: (interval_binop("-", z, y), interval_binop("-", z, x)),
    "-": lambda z, x, y: (interval_binop("+", z, y), interval_binop("-", x, z)),
    "*": lambda z, x, y: (inv_mul(z, y), inv_mul(z, x)),
    "/": lambda z, x, y: (inv_div_dividend(z, y), inv_div_divisor(z, x, y)),
    "sq": lambda z, x, y: (_inv_square(z, x), TOP),
}


def _backward(code: _Code, box: AbstractState) -> AbstractState:
    """box narrowed to code's relation, after the forward sweep over box
    (a bound needs none)."""
    if code.bound is not None:
        ivs = box.intervals
        refined = ivs[code.position].meet(code.bound)
        if refined is ivs[code.position]:
            return box
        if refined.is_bottom:
            return box.as_bottom()
        ivs = list(ivs)
        ivs[code.position] = refined
        return box.replaced(ivs)
    ivs, vals = list(box.intervals), code.vals
    vals[-1] = vals[-1].meet(code.required)
    # A slot's value is narrowed by its parent's before it is visited.
    for k in range(len(vals) - 1, -1, -1):
        kind, a, b = code.slots[k]
        if kind == "var":
            ivs[a] = vals[k] = ivs[a].meet(vals[k])
        elif kind != "const" and not vals[k].is_bottom:
            lreq, rreq = _INVERSE[kind](vals[k], vals[a], vals[b])
            vals[a] = vals[a].meet(lreq)
            vals[b] = vals[b].meet(rreq)
        if vals[k].is_bottom:
            return box.as_bottom()
    return box.replaced(ivs)


def hc4_revise(code: _Code, box: AbstractState) -> AbstractState:
    """One forward-backward pass of a lower_comparison code; contracts box,
    preserving all solutions."""
    if box.is_bottom:
        return box
    if code.bound is None:
        root = _forward(code, box.intervals)
        if code.relation == "!=":
            return box.as_bottom() if root == Interval(0, 0) else box
    return _backward(code, box)


# --- condition classification ------------------------------------------------

def lower_condition(cond: Expr, polarity: bool, box: AbstractState):
    """cond, or its negation when polarity is False, lowered for boxes over
    box's names: a bool, a lowered comparison, or the tuple of `||`'s or list
    of `&&`'s flattened operands; negation flips comparisons and swaps the
    connectives.  Each sub-condition's form stays in box.forms under (id,
    polarity), pinned, until the next analysis over these names clears it."""
    forms, spine = box.forms, []  # (node, polarity) down left operands; right ones recurse
    while (known := forms.get((id(cond), polarity))) is None:
        if isinstance(cond, Unary) and cond.op == "not":
            spine.append((cond, polarity))
            cond, polarity = cond.operand, not polarity
        elif isinstance(cond, Binary) and cond.op in ("&&", "||"):
            spine.append((cond, polarity))
            cond = cond.left
        else:
            known = forms[id(cond), polarity] = cond, (
                cond.value == polarity if isinstance(cond, BoolLit)
                else lower_comparison(cond, box, polarity))
            break
    form = known[1]
    while spine:
        cond, polarity = spine.pop()
        if isinstance(cond, Binary):
            right = lower_condition(cond.right, polarity, box)
            # A conjunction flattens into a list, a disjunction into a tuple.
            flat = list if (cond.op == "&&") == polarity else tuple
            form = ((form if type(form) is flat else flat((form,)))
                    + (right if type(right) is flat else flat((right,))))
        forms[id(cond), polarity] = cond, form
    return form


def contract_condition(cond, box: AbstractState, max_rounds: int = 10) -> AbstractState:
    """Contract box by a lower_condition form.  `||` is hulled; `&&` contracts
    its conjuncts in turn until the box is stable, empty, or max_rounds
    rounds have run, or after one round if all are single-variable bounds."""
    if box.is_bottom:
        return box
    if cond is True or cond is False:
        return box if cond else box.as_bottom()
    if type(cond) is _Code:
        return hc4_revise(cond, box)
    if isinstance(cond, tuple):
        hull = contract_condition(cond[0], box, max_rounds)
        for side in cond[1:]:
            hull = hull.join(contract_condition(side, box, max_rounds))
        return hull
    # One round meets each variable with all of its single-variable
    # bounds, so a second round of bounds alone would change nothing.
    bounds_only = all(type(item) is _Code and item.bound is not None for item in cond)
    current = box
    for _ in range(max_rounds):
        previous = current
        for item in cond:
            current = (hc4_revise(item, current) if type(item) is _Code
                       else contract_condition(item, current, 1))
            if current.is_bottom:
                return current
        if bounds_only or current == previous:
            break
    return current


def contract_fixpoint(codes, box: AbstractState, max_rounds: int = 10) -> AbstractState:
    """Round-robin contraction by lower_comparison codes until stable."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    return contract_condition(list(codes), box, max_rounds)  # a list is `&&`


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
    box_in = contract_condition(lower_condition(cond, True, box), box)
    box_out = contract_condition(lower_condition(cond, False, box), box)
    if box.is_bottom:
        verdict = Truth3.MAYBE
    elif box_out.is_bottom:
        verdict = Truth3.TRUE
    elif box_in.is_bottom:
        verdict = Truth3.FALSE
    else:
        verdict = Truth3.MAYBE
    return Classification(verdict, box_in, box_out)
