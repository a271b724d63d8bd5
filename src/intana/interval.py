"""Integer intervals with infinite endpoints, and boxes of them.

The abstract domain is the lattice of closed integer intervals [lo, hi]
where endpoints may be -inf/+inf, plus a bottom element for the empty
interval.  Endpoints are plain Python ints; the infinities are the float
sentinels +-math.inf (mixed int/float comparisons are exact, and no finite
float value is ever produced).  An AbstractState is the product lattice:
one interval per variable, as used by both the analyzer and the
contractors.
"""

from __future__ import annotations

import enum
import math
import re
import weakref

from .lang.ast import tdiv

NEG_INF = -math.inf
POS_INF = math.inf


def is_finite(b) -> bool:
    return not isinstance(b, float)


def _sign(b) -> int:
    return (b > 0) - (b < 0)


def ext_add(a, b):
    """a + b on extended ints; never called with opposing infinities."""
    if isinstance(a, float):
        return a
    if isinstance(b, float):
        return b
    return a + b


def ext_mul(a, b):
    """a * b on extended ints with the convention 0 * inf = 0."""
    if a == 0 or b == 0:
        return 0
    if isinstance(a, float) or isinstance(b, float):
        return POS_INF if _sign(a) == _sign(b) else NEG_INF
    return a * b


def ext_tdiv(a, b):
    """a / b truncated toward zero on extended ints, b != 0."""
    if isinstance(a, float):
        return POS_INF if _sign(a) == _sign(b) else NEG_INF
    return 0 if isinstance(b, float) else tdiv(a, b)


class Interval:
    """Closed interval [lo, hi]; lo > hi encodes bottom (use BOTTOM).

    A value: instances are never mutated after construction, so they are
    shared freely, compared by bounds and usable as dict keys.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def __eq__(self, other) -> bool:
        if other.__class__ is not Interval:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return "Interval(lo=%r, hi=%r)" % (self.lo, self.hi)

    @staticmethod
    def make(lo, hi) -> "Interval":
        if lo > hi or lo == POS_INF or hi == NEG_INF:
            return BOTTOM
        return Interval(lo, hi)

    @staticmethod
    def singleton(v: int) -> "Interval":
        return Interval(v, v)

    @property
    def is_bottom(self) -> bool:
        return self.lo > self.hi

    @property
    def is_top(self) -> bool:
        return self.lo == NEG_INF and self.hi == POS_INF

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi and is_finite(self.lo)

    @property
    def is_finite(self) -> bool:
        return not self.is_bottom and is_finite(self.lo) and is_finite(self.hi)

    def __contains__(self, v: int) -> bool:
        return not self.is_bottom and self.lo <= v <= self.hi

    def values(self):
        """Iterate the members of a finite interval."""
        if self.is_bottom:
            return
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite interval")
        yield from range(self.lo, self.hi + 1)

    def count(self):
        """Number of members, or None when infinite."""
        if self.is_bottom:
            return 0
        if not self.is_finite:
            return None
        return self.hi - self.lo + 1

    # join, meet, widen and narrow return an operand, not a copy, whenever
    # the result equals it: the fixpoint then finds unchanged components by `is`.

    def join(self, other: "Interval") -> "Interval":
        if self.lo > self.hi:
            return other
        if self is other or other.lo > other.hi:
            return self
        lo, hi = self.lo, self.hi
        if lo <= other.lo and hi >= other.hi:
            return self
        if lo >= other.lo and hi <= other.hi:
            return other
        return Interval(min(lo, other.lo), max(hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        if self.lo > self.hi or other.lo > other.hi:
            return BOTTOM
        lo, hi = self.lo, self.hi
        if self is other or (lo >= other.lo and hi <= other.hi):
            return self
        if lo <= other.lo and hi >= other.hi:
            return other
        return Interval.make(max(lo, other.lo), min(hi, other.hi))

    def leq(self, other: "Interval") -> bool:
        """Lattice order: self contained in other."""
        if self is other or self.lo > self.hi:
            return True
        if other.lo > other.hi:
            return False
        return self.lo >= other.lo and self.hi <= other.hi

    def widen(self, new: "Interval") -> "Interval":
        """Extrapolate: bounds that grew jump to the infinities."""
        if self.is_bottom:
            return new
        if new.is_bottom or (new.lo >= self.lo and new.hi <= self.hi):
            return self
        lo = NEG_INF if new.lo < self.lo else self.lo
        hi = POS_INF if new.hi > self.hi else self.hi
        return Interval(lo, hi)

    def narrow(self, new: "Interval") -> "Interval":
        """Interpolate: refine only the infinite bounds from `new`."""
        if self.is_bottom or new.is_bottom:
            return BOTTOM
        lo = new.lo if self.lo == NEG_INF else self.lo
        hi = new.hi if self.hi == POS_INF else self.hi
        if lo == self.lo and hi == self.hi:
            return self
        if lo == new.lo and hi == new.hi:
            return new
        return Interval.make(lo, hi)

    def negate(self) -> "Interval":
        if self.is_bottom:
            return BOTTOM
        return Interval(-self.hi, -self.lo)

    def shift(self, k: int) -> "Interval":
        if self.is_bottom:
            return BOTTOM
        return Interval(ext_add(self.lo, k), ext_add(self.hi, k))

    def render(self) -> str:
        if self.is_bottom:
            return "bottom"
        return "[%s,%s]" % (_fmt_bound(self.lo), _fmt_bound(self.hi))

    def __str__(self) -> str:
        return self.render()

    @staticmethod
    def parse(text: str) -> "Interval":
        text = text.strip()
        if text == "bottom":
            return BOTTOM
        m = re.fullmatch(r"\[\s*([^,\s]+)\s*,\s*([^,\s\]]+)\s*\]", text)
        if not m:
            raise ValueError("bad interval syntax: %r" % text)
        return parse_range(m.group(1), m.group(2), ": %r" % text)


BOTTOM = Interval(1, 0)
TOP = Interval(NEG_INF, POS_INF)


class _Space:
    """The names shared by a family of states, their positions, bottom and forms.

    The space holds its bottom state weakly, as the state refers to the
    space, and no object of intana's is part of a reference cycle.  While a
    bottom state is alive it is the space's one bottom.
    """

    __slots__ = ("names", "index", "_bottom", "forms")

    def __init__(self, names):
        self.names = tuple(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self._bottom = None  # a weak reference, once a bottom was asked for
        self.forms = {}

    def bottom(self) -> "AbstractState":
        state = self._bottom() if self._bottom is not None else None
        if state is None:
            state = AbstractState(self, (BOTTOM,) * len(self.names))
            # With no names no range can be empty, so this "bottom" is reachable.
            state.is_bottom = bool(self.names)
            self._bottom = weakref.ref(state)
        return state


class AbstractState:
    """A box: one interval per variable, over names that derived states share.

    Any bottom component makes the state its names' one bottom, which alone
    has `is_bottom` set.  Operations work position by position, on states
    over the same names.
    """

    __slots__ = ("_space", "intervals", "is_bottom", "__weakref__")

    def __init__(self, space: _Space, intervals: tuple):
        self._space, self.intervals, self.is_bottom = space, intervals, False

    @staticmethod
    def of(env) -> "AbstractState":
        """The state of a name -> interval mapping, in the mapping's order."""
        space = _Space(env)
        if any(iv.is_bottom for iv in env.values()):
            return space.bottom()
        return AbstractState(space, tuple(env.values()))

    @staticmethod
    def top(names) -> "AbstractState":
        return AbstractState.of(dict.fromkeys(names, TOP))

    @staticmethod
    def bottom(names) -> "AbstractState":
        return AbstractState.top(names).as_bottom()

    @property
    def names(self) -> "tuple[str, ...]":
        return self._space.names

    @property
    def forms(self) -> dict:  # compiled conditions, see absint.transfer_assume
        return self._space.forms

    def as_bottom(self) -> "AbstractState":
        return self._space.bottom()

    def position(self, name: str) -> int:
        return self._space.index[name]

    def get(self, name: str) -> Interval:
        return self.intervals[self._space.index[name]]

    __getitem__ = get

    def __iter__(self):
        return iter(self._space.names)

    def items(self):
        return zip(self._space.names, self.intervals)

    def as_dict(self) -> "dict[str, Interval]":
        return dict(self.items())

    def replaced(self, intervals) -> "AbstractState":
        """These names with new intervals, none of which may be bottom."""
        return AbstractState(self._space, tuple(intervals))

    def set(self, name: str, iv: Interval) -> "AbstractState":
        # As per variable: bottom stays bottom unless its only range is replaced.
        if iv.is_bottom or (self.is_bottom and len(self.intervals) > 1):
            return self._space.bottom()
        ivs = list(self.intervals)
        ivs[self._space.index[name]] = iv
        return AbstractState(self._space, tuple(ivs))

    def _ascending(op):
        """join or widen by Interval's op: bottom is the identity on either
        side.  States derived by `set` or `replaced` share most components,
        so op runs only where the two differ; it returns its left operand
        exactly when that is the result, and an operand that already is the
        result is returned as it is."""

        def ascend(self, other: "AbstractState") -> "AbstractState":
            if self.is_bottom:
                return other
            mine, theirs = self.intervals, other.intervals
            if other.is_bottom or mine is theirs:
                return self
            ivs, i = None, 0
            for a, b in zip(mine, theirs):
                if a is not b:
                    c = op(a, b)
                    if c is not a:
                        if ivs is None:
                            ivs = list(mine)
                        ivs[i] = c
                i += 1
            if ivs is None:
                return self
            ivs = tuple(ivs)
            return other if ivs == theirs else AbstractState(self._space, ivs)

        return ascend

    # join is self itself exactly when other lies in self: the fixpoint's change test.
    join = _ascending(Interval.join)
    widen = _ascending(Interval.widen)
    del _ascending

    def narrow(self, new: "AbstractState") -> "AbstractState":
        # A bottom operand's components are all bottom, and so is the result.
        mine = self.intervals
        ivs = tuple(map(Interval.narrow, mine, new.intervals))
        if ivs == mine:
            return self
        if any(iv.is_bottom for iv in ivs):
            return self._space.bottom()
        return new if ivs == new.intervals else AbstractState(self._space, ivs)

    def leq(self, other: "AbstractState") -> bool:
        if self.is_bottom or other.is_bottom:
            return self.is_bottom
        if self.intervals is other.intervals:
            return True
        for a, b in zip(self.intervals, other.intervals):
            if a is not b and not a.leq(b):
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbstractState):
            return NotImplemented
        return self.intervals == other.intervals and self.names == other.names

    def __repr__(self) -> str:
        return "AbstractState(%s)" % ", ".join("%s:%s" % kv for kv in self.items())


def _fmt_bound(b) -> str:
    if b == NEG_INF:
        return "-inf"
    if b == POS_INF:
        return "+inf"
    return str(b)


def _parse_bound(text: str):
    if text in ("-inf",):
        return NEG_INF
    if text in ("inf", "+inf"):
        return POS_INF
    return int(text)


def parse_range(lo_text: str, hi_text: str, where: str) -> Interval:
    """The written range [lo_text, hi_text], which must hold an integer;
    `where` ends the error message.  Only `bottom` writes an empty interval."""
    lo, hi = _parse_bound(lo_text), _parse_bound(hi_text)
    if lo > hi:
        raise ValueError("reversed interval bounds%s" % where)
    if lo == POS_INF or hi == NEG_INF:
        raise ValueError("interval bounds hold no integer%s" % where)
    return Interval(lo, hi)


def _add_iv(a: Interval, b: Interval) -> Interval:
    return Interval(ext_add(a.lo, b.lo), ext_add(a.hi, b.hi))


def _sub_iv(a: Interval, b: Interval) -> Interval:
    return Interval(ext_add(a.lo, -b.hi), ext_add(a.hi, -b.lo))


def _mul_iv(a: Interval, b: Interval) -> Interval:
    corners = [ext_mul(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return Interval(min(corners), max(corners))


def divisor_parts(b: Interval):
    """Split a divisor interval into its negative and positive parts."""
    parts = []
    if b.lo <= -1:
        parts.append(Interval(b.lo, min(b.hi, -1)))
    if b.hi >= 1:
        parts.append(Interval(max(b.lo, 1), b.hi))
    return parts


def _div_iv(a: Interval, b: Interval) -> Interval:
    # Truncated toward zero; only nonzero divisors contribute.
    out = BOTTOM
    for part in divisor_parts(b):
        corners = [ext_tdiv(x, y) for x in (a.lo, a.hi) for y in (part.lo, part.hi)]
        out = out.join(Interval(min(corners), max(corners)))
    return out


def interval_binop(op: str, a: Interval, b: Interval, arith: bool = True) -> Interval:
    """Hull of {x op y | x in a, y in b}.

    With arith=False, any operation on a non-singleton operand is
    extrapolated to the full range (the imprecise fallback mode).
    """
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    if op == "/" and b == Interval(0, 0):
        return BOTTOM
    if not arith and not (a.is_singleton and b.is_singleton):
        return TOP
    if op == "+":
        return _add_iv(a, b)
    if op == "-":
        return _sub_iv(a, b)
    if op == "*":
        return _mul_iv(a, b)
    if op == "/":
        return _div_iv(a, b)
    raise ValueError("unknown arithmetic operator: %r" % op)


class Truth3(enum.Enum):
    """Three-valued truth: definitely true, definitely false, or unknown."""

    TRUE = "true"
    FALSE = "false"
    MAYBE = "maybe"

    @staticmethod
    def of(b: bool) -> "Truth3":
        return Truth3.TRUE if b else Truth3.FALSE

    def negate(self) -> "Truth3":
        if self is Truth3.MAYBE:
            return Truth3.MAYBE
        return Truth3.of(self is Truth3.FALSE)


def not3(a: Truth3) -> Truth3:
    return a.negate()


def and3(a: Truth3, b: Truth3) -> Truth3:
    if a is Truth3.FALSE or b is Truth3.FALSE:
        return Truth3.FALSE
    if a is Truth3.TRUE and b is Truth3.TRUE:
        return Truth3.TRUE
    return Truth3.MAYBE


def or3(a: Truth3, b: Truth3) -> Truth3:
    if a is Truth3.TRUE or b is Truth3.TRUE:
        return Truth3.TRUE
    if a is Truth3.FALSE and b is Truth3.FALSE:
        return Truth3.FALSE
    return Truth3.MAYBE


# The values of a - b for which `a <rel> b` holds.  `!=` is negated `==`.
RELATION_RANGE = {
    "==": Interval(0, 0),
    "<=": Interval(NEG_INF, 0),
    "<": Interval(NEG_INF, -1),
    ">=": Interval(0, POS_INF),
    ">": Interval(1, POS_INF),
}


def eval_cmp(op: str, a: Interval, b: Interval) -> Truth3:
    """Compare two intervals: TRUE/FALSE only when every/no pair agrees.

    Bottom operands yield MAYBE: an unreachable state must never drive a
    rewrite, and MAYBE is the no-action verdict.
    """
    if a.is_bottom or b.is_bottom:
        return Truth3.MAYBE
    if op == "!=":
        return eval_cmp("==", a, b).negate()
    holds = RELATION_RANGE.get(op)
    if holds is None:
        raise ValueError("unknown comparison operator: %r" % op)
    diff = _sub_iv(a, b)
    if diff.leq(holds):
        return Truth3.TRUE
    if diff.meet(holds).is_bottom:
        return Truth3.FALSE
    return Truth3.MAYBE
