import dataclasses
import re

import pytest
from hypothesis import given, strategies as st

from intana.interval import (
    AbstractState,
    BOTTOM,
    Interval,
    NEG_INF,
    POS_INF,
    TOP,
    Truth3,
    and3,
    divisor_parts,
    eval_cmp,
    ext_tdiv,
    interval_binop,
    not3,
    or3,
)
from intana.lang.ast import tdiv


def iv(lo, hi):
    return Interval(lo, hi)


bounded = st.integers(-20, 20)


@st.composite
def intervals(draw):
    lo = draw(bounded)
    hi = draw(st.integers(lo, 20))
    return Interval(lo, hi)


class TestConstruction:
    def test_make_normalizes_empty_to_bottom(self):
        assert Interval.make(3, 2).is_bottom
        assert Interval.make(POS_INF, POS_INF).is_bottom
        assert Interval.make(NEG_INF, NEG_INF).is_bottom

    def test_singleton(self):
        s = Interval.singleton(7)
        assert s.is_singleton and s.lo == s.hi == 7
        assert not TOP.is_singleton
        assert not BOTTOM.is_singleton

    def test_top_and_bottom(self):
        assert TOP.is_top and not TOP.is_bottom
        assert BOTTOM.is_bottom and not BOTTOM.is_top
        assert not iv(0, 5).is_top

    def test_contains(self):
        assert 3 in iv(1, 5)
        assert 0 not in iv(1, 5)
        assert 10 ** 9 in TOP
        assert 0 not in BOTTOM

    def test_values_and_count(self):
        assert list(iv(2, 4).values()) == [2, 3, 4]
        assert iv(2, 4).count() == 3
        assert TOP.count() is None
        assert BOTTOM.count() == 0


class TestLattice:
    @given(intervals(), intervals())
    def test_join_is_upper_bound(self, a, b):
        j = a.join(b)
        assert a.leq(j) and b.leq(j)

    @given(intervals(), intervals())
    def test_meet_is_lower_bound(self, a, b):
        m = a.meet(b)
        assert m.leq(a) and m.leq(b)

    @given(intervals())
    def test_bottom_and_top_are_extremes(self, a):
        assert BOTTOM.leq(a) and a.leq(TOP)
        assert a.join(BOTTOM) == a
        assert a.meet(TOP) == a

    def test_disjoint_meet_is_bottom(self):
        assert iv(0, 2).meet(iv(5, 9)).is_bottom

    @given(intervals(), intervals(), intervals())
    def test_join_associative(self, a, b, c):
        assert a.join(b).join(c) == a.join(b.join(c))


class TestWidenNarrow:
    def test_widen_unstable_bounds_jump_to_infinity(self):
        w = iv(0, 5).widen(iv(0, 9))
        assert w.lo == 0 and w.hi == POS_INF
        w = iv(-1, 5).widen(iv(-3, 5))
        assert w.lo == NEG_INF and w.hi == 5

    def test_widen_stable_is_identity(self):
        assert iv(0, 5).widen(iv(1, 4)) == iv(0, 5)

    @given(intervals(), intervals())
    def test_widen_chain_stabilizes_fast(self, a, b):
        x = a
        for _ in range(3):
            nxt = x.widen(x.join(b))
            if nxt == x:
                break
            x = nxt
        assert x.widen(x.join(b)) == x

    def test_narrow_refines_only_infinite_bounds(self):
        assert Interval.make(0, POS_INF).narrow(iv(0, 10)) == iv(0, 10)
        assert iv(0, 10).narrow(iv(2, 5)) == iv(0, 10)
        assert TOP.narrow(iv(-3, 3)) == iv(-3, 3)


class TestArithmetic:
    def test_add_sub(self):
        assert interval_binop("+", iv(1, 2), iv(10, 20)) == iv(11, 22)
        assert interval_binop("-", iv(1, 2), iv(10, 20)) == iv(-19, -8)

    def test_mul_sign_cases(self):
        assert interval_binop("*", iv(-2, 3), iv(-5, 4)) == iv(-15, 12)
        assert interval_binop("*", iv(2, 3), iv(4, 5)) == iv(8, 15)

    def test_div_truncates_toward_zero(self):
        assert interval_binop("/", iv(-7, -7), iv(2, 2)) == iv(-3, -3)
        assert interval_binop("/", iv(7, 7), iv(-2, -2)) == iv(-3, -3)

    def test_div_by_exact_zero_is_bottom(self):
        assert interval_binop("/", iv(1, 5), iv(0, 0)).is_bottom

    def test_div_straddling_zero_uses_nonzero_divisors(self):
        assert interval_binop("/", iv(6, 6), iv(-2, 3)) == iv(-6, 6)

    def test_divisor_parts(self):
        assert divisor_parts(iv(-2, 3)) == [iv(-2, -1), iv(1, 3)]
        assert divisor_parts(iv(0, 0)) == []
        assert divisor_parts(iv(2, 5)) == [iv(2, 5)]

    def test_infinite_operands(self):
        assert interval_binop("+", TOP, iv(1, 1)) == TOP
        assert interval_binop("*", Interval.make(0, POS_INF), iv(2, 3)) \
            == Interval.make(0, POS_INF)

    def test_bottom_propagates(self):
        for op in "+-*/":
            assert interval_binop(op, BOTTOM, iv(1, 2)).is_bottom

    def test_arith_disabled_extrapolates_non_singletons(self):
        assert interval_binop("+", iv(1, 2), iv(3, 3), arith=False) == TOP
        assert interval_binop("+", iv(2, 2), iv(3, 3), arith=False) == iv(5, 5)

    @given(intervals(), intervals(), st.sampled_from("+-*/"))
    def test_soundness_on_samples(self, a, b, op):
        got = interval_binop(op, a, b)
        for x in list(a.values())[:7]:
            for y in list(b.values())[:7]:
                if op == "/" and y == 0:
                    continue
                if op == "/":
                    q = abs(x) // abs(y)
                    v = q if (x >= 0) == (y >= 0) else -q
                else:
                    v = eval(f"{x} {op} {y}")
                assert v in got


class TestExtTdiv:
    def test_finite_case_is_concrete_division(self):
        for a in range(-6, 7):
            for b in range(-6, 7):
                if b != 0:
                    assert ext_tdiv(a, b) == tdiv(a, b), (a, b)

    @pytest.mark.parametrize("a,b,quotient", [
        (POS_INF, 3, POS_INF), (POS_INF, -3, NEG_INF),
        (NEG_INF, 3, NEG_INF), (NEG_INF, -3, POS_INF),
        (POS_INF, POS_INF, POS_INF), (POS_INF, NEG_INF, NEG_INF),
        (NEG_INF, POS_INF, NEG_INF), (NEG_INF, NEG_INF, POS_INF),
        (5, POS_INF, 0), (-5, POS_INF, 0), (5, NEG_INF, 0), (0, NEG_INF, 0),
    ])
    def test_infinite_cases(self, a, b, quotient):
        assert ext_tdiv(a, b) == quotient


class TestNegateShift:
    def test_negate(self):
        assert iv(-2, 5).negate() == iv(-5, 2)
        assert Interval.make(0, POS_INF).negate() == Interval.make(NEG_INF, 0)

    def test_shift(self):
        assert iv(1, 3).shift(4) == iv(5, 7)


class TestRenderParse:
    @pytest.mark.parametrize("interval,text", [
        (iv(0, 5), "[0,5]"),
        (TOP, "[-inf,+inf]"),
        (Interval.make(3, POS_INF), "[3,+inf]"),
        (BOTTOM, "bottom"),
    ])
    def test_render(self, interval, text):
        assert interval.render() == text

    @given(intervals())
    def test_round_trip(self, a):
        assert Interval.parse(a.render()) == a

    def test_parse_infinities(self):
        assert Interval.parse("[-inf,+inf]") == TOP
        assert Interval.parse("bottom").is_bottom

    @pytest.mark.parametrize("text", ["[inf,inf]", "[+inf,+inf]", "[-inf,-inf]"])
    def test_parse_rejects_bounds_without_an_integer(self, text):
        # Only `bottom` writes the empty interval.
        with pytest.raises(ValueError, match=re.escape("hold no integer: %r" % text)):
            Interval.parse(text)


@dataclasses.dataclass(frozen=True)
class FrozenInterval:
    """Reference for Interval's value semantics."""

    lo: object
    hi: object


class TestValueSemantics:
    @given(intervals(), intervals())
    def test_eq_hash_repr_match_a_frozen_dataclass(self, a, b):
        ra, rb = FrozenInterval(a.lo, a.hi), FrozenInterval(b.lo, b.hi)
        assert (a == b) == (ra == rb) and (a != b) == (ra != rb)
        assert hash(a) == hash(ra)
        assert repr(a) == repr(ra).replace("FrozenInterval", "Interval")

    def test_equal_only_to_intervals(self):
        assert Interval(1, 2) != (1, 2)
        assert not Interval(1, 2) == FrozenInterval(1, 2)
        assert Interval(1, 2) == Interval(1, 2) and Interval(1, 2) != Interval(1, 3)
        assert repr(TOP) == "Interval(lo=-inf, hi=inf)"
        assert {Interval(0, 0): "zero"}[Interval(0, 0)] == "zero"

    def test_no_attributes_beyond_the_bounds(self):
        with pytest.raises(AttributeError):
            Interval(1, 2).width = 1


class TestTruth3:
    def test_not3(self):
        assert not3(Truth3.TRUE) is Truth3.FALSE
        assert not3(Truth3.FALSE) is Truth3.TRUE
        assert not3(Truth3.MAYBE) is Truth3.MAYBE

    def test_and3_dominates(self):
        assert and3(Truth3.FALSE, Truth3.MAYBE) is Truth3.FALSE
        assert and3(Truth3.TRUE, Truth3.MAYBE) is Truth3.MAYBE
        assert and3(Truth3.TRUE, Truth3.TRUE) is Truth3.TRUE

    def test_or3_dominates(self):
        assert or3(Truth3.TRUE, Truth3.MAYBE) is Truth3.TRUE
        assert or3(Truth3.FALSE, Truth3.MAYBE) is Truth3.MAYBE
        assert or3(Truth3.FALSE, Truth3.FALSE) is Truth3.FALSE


class TestEvalCmp:
    def test_definite_true_and_false(self):
        assert eval_cmp("<", iv(0, 3), iv(5, 9)) is Truth3.TRUE
        assert eval_cmp("<", iv(5, 9), iv(0, 3)) is Truth3.FALSE
        assert eval_cmp("<", iv(0, 5), iv(3, 9)) is Truth3.MAYBE

    def test_equality(self):
        assert eval_cmp("==", iv(4, 4), iv(4, 4)) is Truth3.TRUE
        assert eval_cmp("==", iv(0, 3), iv(5, 9)) is Truth3.FALSE
        assert eval_cmp("==", iv(0, 3), iv(2, 9)) is Truth3.MAYBE

    def test_bottom_gives_maybe(self):
        assert eval_cmp("<", BOTTOM, iv(0, 1)) is Truth3.MAYBE

    def test_exhaustive_consistency_small(self):
        ops = {"==": lambda a, b: a == b, "!=": lambda a, b: a != b,
               "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
               ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}
        # Infinite ends are brute-forced clipped to +-5, past the finite
        # bounds -3..3, so every verdict the true interval allows shows.
        ends = list(range(-3, 4))
        cases = [iv(lo, hi) for lo in ends + [NEG_INF] for hi in ends + [POS_INF]
                 if lo <= hi]

        def clipped(a):
            return range(max(a.lo, -5), min(a.hi, 5) + 1)

        for a in cases:
            for b in cases:
                for op, f in ops.items():
                    outcomes = {f(x, y) for x in clipped(a) for y in clipped(b)}
                    want = (Truth3.MAYBE if len(outcomes) == 2
                            else Truth3.TRUE if True in outcomes else Truth3.FALSE)
                    assert eval_cmp(op, a, b) is want


# --- states: the product of per-variable intervals ---------------------------

components = st.one_of(
    intervals(),
    st.just(BOTTOM),
    st.just(TOP),
    bounded.map(lambda b: Interval(NEG_INF, b)),
    bounded.map(lambda b: Interval(b, POS_INF)),
)
name_sets = st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=5,
                     unique=True)


@st.composite
def state_pairs(draw):
    """Two states over one name set, both built from the same top."""
    names = draw(name_sets)
    top = AbstractState.top(names)
    pair = []
    for _ in range(2):
        ivs = [draw(components) for _ in names]
        state = top
        for name, component in zip(names, ivs):
            state = state.set(name, component)
        pair.append((state, ivs))
    return names, pair


def expect(top, names, ivs, got):
    """got is the state of per-variable intervals ivs, normalized."""
    if any(component.is_bottom for component in ivs):
        assert got is top.as_bottom()
        assert got.is_bottom
    else:
        assert not got.is_bottom
        assert list(got.items()) == list(zip(names, ivs))


class TestAbstractStateLattice:
    @given(state_pairs())
    def test_set_builds_the_per_variable_state(self, case):
        names, [(a, a_ivs), _] = case
        expect(a, names, a_ivs, a)

    @given(state_pairs())
    def test_operations_are_per_variable(self, case):
        names, [(a, _), (b, _)] = case
        a_ivs, b_ivs = list(a.intervals), list(b.intervals)
        for op in ("join", "widen", "narrow"):
            want = [getattr(x, op)(y) for x, y in zip(a_ivs, b_ivs)]
            expect(a, names, want, getattr(a, op)(b))
        assert a.leq(b) == all(x.leq(y) for x, y in zip(a_ivs, b_ivs))

    @given(state_pairs(), st.data())
    def test_set_replaces_one_component(self, case, data):
        names, [(a, _), _] = case
        name = data.draw(st.sampled_from(names))
        component = data.draw(components)
        want = [component if n == name else iv for n, iv in zip(names, a.intervals)]
        expect(a, names, want, a.set(name, component))

    @given(state_pairs())
    def test_equality_compares_components(self, case):
        names, [(a, _), (b, _)] = case
        assert (a == b) == (a.intervals == b.intervals)
        assert a == AbstractState.of(a.as_dict())


# --- fast paths: the same results as the plain formulas ----------------------

def plain_join(a, b):
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


def plain_meet(a, b):
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    return Interval.make(max(a.lo, b.lo), min(a.hi, b.hi))


def plain_leq(a, b):
    return a.is_bottom or (not b.is_bottom and b.lo <= a.lo and a.hi <= b.hi)


def plain_widen(a, b):
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    return Interval(NEG_INF if b.lo < a.lo else a.lo, POS_INF if b.hi > a.hi else a.hi)


def plain_narrow(a, b):
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    return Interval.make(b.lo if a.lo == NEG_INF else a.lo, b.hi if a.hi == POS_INF else a.hi)


# Equal operands come both as one object and as two.
interval_pairs = st.one_of(
    st.tuples(components, components),
    components.map(lambda a: (a, a)),
    components.map(lambda a: (a, Interval(a.lo, a.hi))),
)


@st.composite
def related_states(draw):
    """Two states over one name set that share some or all components."""
    names = draw(name_sets)
    top = AbstractState.top(names)
    a = top
    for name in names:
        a = a.set(name, draw(components))
    how = draw(st.sampled_from(["same", "same-tuple", "few-changes", "independent"]))
    if how == "same":
        b = a
    elif how == "same-tuple":
        b = a if a.is_bottom else a.replaced(a.intervals)
    else:
        b = a if how == "few-changes" else top
        changed = names if how == "independent" else draw(
            st.lists(st.sampled_from(names), max_size=2))
        for name in changed:
            b = b.set(name, draw(components))
    return (a, b) if draw(st.booleans()) else (b, a)


def plain_state(a, b, op):
    """op applied per variable; join and widen keep a bottom operand's other side."""
    if a.is_bottom:
        return list(b.intervals), b.is_bottom
    if b.is_bottom:
        return list(a.intervals), False
    ivs = [op(x, y) for x, y in zip(a.intervals, b.intervals)]
    return ivs, any(iv.is_bottom for iv in ivs)


class TestFastPaths:
    @given(interval_pairs)
    def test_interval_operations_match_the_formulas(self, pair):
        a, b = pair
        assert a.join(b) == plain_join(a, b)
        assert a.meet(b) == plain_meet(a, b)
        assert a.leq(b) == plain_leq(a, b)
        assert a.widen(b) == plain_widen(a, b)
        assert a.narrow(b) == plain_narrow(a, b)

    @given(interval_pairs)
    def test_join_and_meet_return_a_containing_or_contained_operand(self, pair):
        a, b = pair
        if a == b:
            join, meet = (a, b), (a, b)
        elif plain_leq(b, a):
            join, meet = (a,), (b,)
        elif plain_leq(a, b):
            join, meet = (b,), (a,)
        else:
            return
        assert any(a.join(b) is x for x in join)
        assert any(a.meet(b) is x for x in meet)

    @given(interval_pairs)
    def test_narrow_returns_an_equal_operand(self, pair):
        a, b = pair
        want = plain_narrow(a, b)
        if want == a:
            assert a.narrow(b) is a
        elif want == b:
            assert a.narrow(b) is b

    @given(related_states())
    def test_state_operations_match_the_formulas(self, pair):
        a, b = pair
        for op, plain in (("join", plain_join), ("widen", plain_widen)):
            got = getattr(a, op)(b)
            ivs, is_bottom = plain_state(a, b, plain)
            assert got.is_bottom == is_bottom
            if not is_bottom:
                assert list(got.intervals) == ivs
        want = a.is_bottom or (not b.is_bottom and all(
            plain_leq(x, y) for x, y in zip(a.intervals, b.intervals)))
        assert a.leq(b) == want

    @given(related_states())
    def test_state_join_returns_a_containing_operand(self, pair):
        a, b = pair
        if b.leq(a):
            assert a.join(b) is a
        elif a.leq(b):
            assert a.join(b) is b

    @given(related_states())
    def test_state_narrow_matches_the_formula(self, pair):
        a, b = pair
        check_narrow(a, b)


def check_narrow(a, b):
    """a.narrow(b) is the per-variable narrowing, and a or b itself when equal to it."""
    ivs = [plain_narrow(x, y) for x, y in zip(a.intervals, b.intervals)]
    got = a.narrow(b)
    assert got.is_bottom == any(iv.is_bottom for iv in ivs)
    if not got.is_bottom:
        assert list(got.intervals) == ivs
    if got == a:
        assert got is a
    elif got == b:
        assert got is b


# --- wide states: 20-30 names, a few components differ ------------------------

non_bottom = st.one_of(
    intervals(),
    st.just(TOP),
    bounded.map(lambda b: Interval(NEG_INF, b)),
    bounded.map(lambda b: Interval(b, POS_INF)),
)


@st.composite
def wide_states(draw):
    """A state over 20-30 names and one that differs from it in 0-3
    components: by a new interval, by an equal but distinct object, or by
    bottom; in either order."""
    names = ["v%d" % k for k in range(draw(st.integers(20, 30)))]
    a = AbstractState.top(names).replaced([draw(non_bottom) for _ in names])
    b = a
    for name in draw(st.lists(st.sampled_from(names), max_size=3, unique=True)):
        how = draw(st.sampled_from(["new", "copy", "bottom"]))
        old = a[name]
        b = b.set(name, draw(non_bottom) if how == "new"
                  else Interval(old.lo, old.hi) if how == "copy" else BOTTOM)
    return (a, b) if draw(st.booleans()) else (b, a)


class TestWideStates:
    @given(wide_states())
    def test_operations_match_the_formulas(self, pair):
        a, b = pair
        for op, plain in (("join", plain_join), ("widen", plain_widen)):
            got = getattr(a, op)(b)
            ivs, is_bottom = plain_state(a, b, plain)
            assert got.is_bottom == is_bottom
            if not is_bottom:
                assert list(got.intervals) == ivs
        check_narrow(a, b)
        assert a.leq(b) == (a.is_bottom or (not b.is_bottom and all(
            plain_leq(x, y) for x, y in zip(a.intervals, b.intervals))))

    @given(wide_states())
    def test_join_and_widen_return_an_operand(self, pair):
        # Either is self exactly when other lies in self, and else other
        # itself when the result equals it.
        a, b = pair
        for op in ("join", "widen"):
            got = getattr(a, op)(b)
            assert (got is a) == b.leq(a), op
            if got is not a and got == b:
                assert got is b, op
