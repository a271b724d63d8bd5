import itertools
import random
import re

import pytest

import intana.contractor as contractor
from intana.absint import _simple_prune, eval_cond3
from intana.contractor import (
    box_render,
    classify_condition,
    contract_condition,
    contract_fixpoint,
    eval_expr,
    hc4_revise,
    inv_div_dividend,
    inv_div_divisor,
    inv_mul,
    lower_comparison,
    lower_condition,
    parse_box,
    _Code,
    _backward,
    _forward,
    _mul_preimage,
    _tdiv_preimage,
)
from intana.fuzz import random_constraint_box
from intana.interval import AbstractState, BOTTOM, Interval, Truth3
from intana.lang import Binary, IntLit, Var, parse_condition


def iv(lo, hi):
    return Interval(lo, hi)


def lowered(source, box):
    return lower_comparison(parse_condition(source, list(box)), box)


def tdiv(a, b):
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def eval_point(e, env):
    from intana.lang import BoolLit, Unary
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Unary):
        v = eval_point(e.operand, env)
        return -v if e.op == "neg" else not v
    a, b = eval_point(e.left, env), eval_point(e.right, env)
    if e.op == "/":
        if b == 0:
            raise ZeroDivisionError
        return tdiv(a, b)
    return {"+": a + b, "-": a - b, "*": a * b,
            "==": a == b, "!=": a != b, "<": a < b,
            "<=": a <= b, ">": a > b, ">=": a >= b,
            "&&": a and b, "||": a or b}[e.op]


def solutions(cond, box):
    names = sorted(box)
    for point in itertools.product(*[box[n].values() for n in names]):
        env = dict(zip(names, point))
        try:
            if eval_point(cond, env):
                yield env
        except ZeroDivisionError:
            continue


class TestBoxHelpers:
    def test_parse_box(self):
        box = parse_box("x:[0,10], y:[2,4]")
        assert box.as_dict() == {"x": iv(0, 10), "y": iv(2, 4)}

    def test_parse_box_infinities(self):
        box = parse_box("x:[-inf,5], y:[0,+inf]")
        assert box["x"].lo == float("-inf") and box["y"].hi == float("inf")

    def test_parse_box_rejects_garbage(self):
        for text in ("x=[0,10]", "x:[0,5],,,", ",x:[0,5]", "x:[0,5],, y:[1,2]",
                     "x:[0,5] y:[1,2]", ""):
            with pytest.raises(ValueError, match="bad box syntax"):
                parse_box(text)

    def test_parse_box_rejects_reversed_bounds(self):
        with pytest.raises(ValueError, match=r"reversed interval bounds in box entry 'y:\[5,1\]'"):
            parse_box("x:[0,1], y:[5,1]")

    @pytest.mark.parametrize("entry", ["x:[inf,inf]", "x:[-inf,-inf]", "x:[+inf, inf]"])
    def test_parse_box_rejects_bounds_without_an_integer(self, entry):
        with pytest.raises(ValueError, match=re.escape("hold no integer in box entry %r" % entry)):
            parse_box(entry + ", y:[0,1]")

    def test_render_round_trips(self):
        box = AbstractState.of({"x": iv(1, 3), "y": iv(-2, 4)})
        assert parse_box(box_render(box)) == box

    def test_box_join_and_leq(self):
        a = AbstractState.of({"x": iv(0, 2)})
        b = AbstractState.of({"x": iv(5, 9)})
        assert a.join(b).as_dict() == {"x": iv(0, 9)}
        assert a.leq(a.join(b))

    def test_empty_box(self):
        assert AbstractState.of({"x": BOTTOM, "y": iv(0, 1)}).is_bottom
        assert not AbstractState.of({"x": iv(0, 1)}).is_bottom


class TestForwardBackward:
    def test_forward_sweep_fills_slots(self):
        box = AbstractState.of({"x": iv(1, 3), "y": iv(10, 20)})
        code = lowered("x + y == 5", box)
        assert code.slots == [("var", 0, None), ("var", 1, None), ("+", 0, 1),
                              ("const", iv(5, 5), None), ("-", 2, 3)]
        assert _forward(code, box.intervals) == iv(6, 18)
        assert code.vals == [iv(1, 3), iv(10, 20), iv(11, 23), iv(5, 5), iv(6, 18)]

    def test_backward_sweep_projects_onto_variables(self):
        box = AbstractState.of({"x": iv(0, 10), "y": iv(2, 4)})
        code = lowered("x + y == 5", box)
        _forward(code, box.intervals)
        refined = _backward(code, box)
        assert refined.as_dict() == {"x": iv(1, 3), "y": iv(2, 4)}

    def test_constant_subtrees_fold(self):
        box = parse_box("x:[0,10], y:[0,10]")
        code = lowered("x * y <= -(2 * 3) + 10 / 3", box)
        assert [kind for kind, _, _ in code.slots] == ["var", "var", "*", "const", "-"]
        assert code.slots[3][1] == iv(-3, -3)
        assert code.bound is None

    @pytest.mark.parametrize("source, bound", [
        ("x <= 3", iv(float("-inf"), 3)),
        ("x > 2 - 5", iv(-2, float("inf"))),
        ("3 < x", iv(4, float("inf"))),
        ("-4 >= x", iv(float("-inf"), -4)),
        ("x == 1 / 0", BOTTOM),
    ])
    def test_variable_against_constant_is_one_bound(self, source, bound):
        box = parse_box("y:[0,1], x:[-10,10]")
        code = lowered(source, box)
        assert (code.position, code.bound) == (1, bound)

    def test_not_equal_keeps_the_sweep(self):
        box = parse_box("x:[0,10]")
        assert lowered("x != 3", box).bound is None


class TestDirectBounds:
    """A variable against an integer literal is lowered straight to its
    bound, without slots; `x + 0` in its place keeps the slot sweep, and
    every consumer of the two forms agrees."""

    RELATIONS = ("==", "!=", "<", "<=", ">", ">=")

    @staticmethod
    def cases():
        """(direct, reference, box): x <rel> K and K <rel> x, built as trees
        so that a negative K is one literal, as constant folding makes it."""
        x, x0 = Var("x"), Binary("+", Var("x"), IntLit(0))
        for k in (-2, 0, 3):
            # finite, half-infinite, top, a singleton, and missing each side of k
            components = [iv(-5, 5), iv(float("-inf"), 1), iv(1, float("inf")),
                          iv(float("-inf"), float("inf")), iv(k, k), iv(k + 1, k + 4),
                          iv(k - 4, k - 1)]
            for relation in TestDirectBounds.RELATIONS:
                for direct, reference in ((Binary(relation, x, IntLit(k)), Binary(relation, x0, IntLit(k))),
                                          (Binary(relation, IntLit(k), x), Binary(relation, IntLit(k), x0))):
                    for component in components:
                        yield direct, reference, AbstractState.of({"y": iv(0, 4), "x": component})

    def test_no_slots_unless_not_equal(self):
        box = parse_box("y:[0,4], x:[0,10]")
        for direct, reference, _ in self.cases():
            for polarity in (True, False):
                code = lower_comparison(direct, box, polarity)
                assert (code.slots is None) == (code.relation != "!="), (direct, polarity)
                assert lower_comparison(reference, box, polarity).slots is not None

    def test_same_boxes_and_verdicts_as_the_sweep(self):
        other = Binary(">", Var("y"), IntLit(1))
        for direct, reference, box in self.cases():
            for polarity in (True, False):
                d, r = (lower_comparison(e, box, polarity) for e in (direct, reference))
                where = (direct, polarity, box)
                assert hc4_revise(d, box) == hc4_revise(r, box), where
                assert eval_cond3(d, box) is eval_cond3(r, box), where
                if d.relation == "!=":  # prunes nothing without contractors
                    assert _simple_prune(d, box, True) is box, where
                else:
                    assert _simple_prune(d, box, True) == hc4_revise(r, box), where
            for join in (lambda c: c, lambda c: Binary("&&", c, other),
                         lambda c: Binary("||", c, other), lambda c: Binary("&&", other, c),
                         lambda c: Binary("||", other, c)):
                d, r = join(direct), join(reference)
                for polarity in (True, False):
                    assert (contract_condition(lower_condition(d, polarity, box), box)
                            == contract_condition(lower_condition(r, polarity, box), box)), \
                        (d, polarity, box)
                assert classify_condition(d, box).verdict is classify_condition(r, box).verdict


class TestHc4Revise:
    def test_addition_example(self):
        box = parse_box("x:[0,10], y:[2,4]")
        out = hc4_revise(lowered("x + y == 5", box), box)
        assert out.as_dict() == {"x": iv(1, 3), "y": iv(2, 4)}

    def test_contradiction_empties_box(self):
        box = parse_box("x:[0,10]")
        out = hc4_revise(lowered("x + 1 <= 0", box), box)
        assert out.is_bottom

    def test_strict_inequality_is_integer_aware(self):
        box = parse_box("x:[0,10]")
        out = hc4_revise(lowered("x < 4", box), box)
        assert out["x"] == iv(0, 3)

    def test_square_constraint(self):
        box = parse_box("x:[-10,10]")
        out = hc4_revise(lowered("x * x <= 4", box), box)
        assert out["x"] == iv(-2, 2)
        box = parse_box("x:[1,10]")
        out = hc4_revise(lowered("x * x >= 9", box), box)
        assert out["x"] == iv(3, 10)

    def test_equal_factors_share_one_square_slot_at_any_depth(self):
        box = parse_box("x:[-10,10], y:[0,1]")
        long = " + ".join(["x"] * 1200)
        for source, square in [("(x + y) * (x + y) <= 4", True),
                               ("(x + y) * (y + x) <= 4", False),
                               ("(x + 1) * (x + 2) <= 4", False),
                               ("-x * -x <= 4", True),
                               ("(%s) * (%s) <= 4" % (long, long), True),
                               ("(%s) * (%s + y) <= 4" % (long, long), False)]:
            code = lowered(source, box)
            assert ("sq" in [kind for kind, _, _ in code.slots]) == square, source[:40]

    def test_not_equal_prunes_only_singleton_gap(self):
        box = parse_box("x:[5,5]")
        out = hc4_revise(lowered("x != 5", box), box)
        assert out.is_bottom
        box = parse_box("x:[5,9]")
        out = hc4_revise(lowered("x != 5", box), box)
        assert out["x"] == iv(5, 9)  # hull cannot exclude an interior point

    def test_division_truncation_preimage(self):
        box = parse_box("x:[-20,20]")
        out = hc4_revise(lowered("x / 3 == 2", box), box)
        assert out["x"] == iv(6, 8)

    def test_negative_divisor(self):
        box = parse_box("x:[-20,20]")
        out = hc4_revise(lowered("x / -2 == 3", box), box)
        assert out["x"] == iv(-7, -6)

    def test_negative_divisor_range_keeps_solutions(self):
        # a=1, b=-1 gives 1 < 2, so the box must not be emptied.
        box = parse_box("a:[0,2], b:[-inf,-1]")
        out = hc4_revise(lowered("a < (-2 / b)", box), box)
        assert box_render(out) == "a:[0,1], b:[-inf,-1]"

    def test_wide_negative_divisor_hull_matches_enumeration(self):
        # The divisor part is wider than ENUM_LIMIT, so the dividend
        # projection takes the corner hull rather than enumerating.
        z, y = iv(1, 2), iv(-5000, -1)
        expected = BOTTOM
        for yv in range(-5000, 0):
            expected = expected.join(_tdiv_preimage(z, iv(yv, yv)))
        assert expected == iv(-14999, -1)
        assert inv_div_dividend(z, y) == expected

    def test_multiplication_gap_detected_by_enumeration(self):
        box = parse_box("x:[0,10], y:[2,2]")
        out = hc4_revise(lowered("x * y == 5", box), box)
        assert out.is_bottom  # 5 is odd, y is exactly 2


def grid(lo, hi):
    """Every nonempty interval with both ends in lo..hi."""
    return [iv(a, b) for a in range(lo, hi + 1) for b in range(a, hi + 1)]


def hull_of(values):
    return iv(min(values), max(values)) if values else BOTTOM


class TestInverseProjections:
    """Each projection against the integer solutions on a small grid: equal
    to their hull where the divisor parts are enumerated (the default
    ENUM_LIMIT), and containing it where ENUM_LIMIT = 0 takes every part's
    hull."""

    @staticmethod
    def check(got, solutions, limit):
        if limit:
            assert got == hull_of(solutions)
        else:
            assert hull_of(solutions).leq(got)

    @pytest.mark.parametrize("limit", [contractor.ENUM_LIMIT, 0])
    def test_inv_mul(self, monkeypatch, limit):
        monkeypatch.setattr(contractor, "ENUM_LIMIT", limit)
        for z in grid(-4, 4):
            for y in grid(-3, 3):
                got = inv_mul(z, y)
                if 0 in y and 0 in z:
                    assert got.is_top
                    continue
                # |x| <= |x * y'| for y' != 0, so every solution is in -4..4.
                sols = [x for x in range(-4, 5) if any(x * yv in z for yv in y.values())]
                self.check(got, sols, limit)

    @pytest.mark.parametrize("limit", [contractor.ENUM_LIMIT, 0])
    def test_inv_div_dividend(self, monkeypatch, limit):
        monkeypatch.setattr(contractor, "ENUM_LIMIT", limit)
        for z in grid(-4, 4):
            for y in grid(-3, 3):
                # |trunc(x / y')| >= 5 once |x| >= 15 and |y'| <= 3.
                sols = [x for x in range(-15, 16)
                        if any(yv and tdiv(x, yv) in z for yv in y.values())]
                self.check(inv_div_dividend(z, y), sols, limit)

    @pytest.mark.parametrize("limit", [contractor.ENUM_LIMIT, 0])
    def test_inv_div_divisor(self, monkeypatch, limit):
        monkeypatch.setattr(contractor, "ENUM_LIMIT", limit)
        for z in grid(-3, 3):
            for x in grid(-3, 3):
                for y in grid(-3, 3):
                    sols = [yv for yv in y.values()
                            if yv and any(tdiv(xv, yv) in z for xv in x.values())]
                    self.check(inv_div_divisor(z, x, y), sols, limit)

    def test_inv_mul_unbounded_divisor_contains_solutions(self):
        # An infinite part is always hulled; a finite z over an infinite end
        # is the corner 0, and every finite end stays an int.
        inf = float("inf")
        for z in grid(-4, 4):
            for y in (iv(1, inf), iv(3, inf), iv(-inf, -1), iv(-inf, -2), iv(-inf, 2)):
                got = inv_mul(z, y)
                if 0 in y and 0 in z:
                    assert got.is_top
                    continue
                # A solution x != 0 has |y'| <= |x * y'| <= 4.
                sols = [x for x in range(-4, 5)
                        if any(x * yv in z for yv in range(-5, 6) if yv in y)]
                assert hull_of(sols).leq(got)
                assert all(type(b) is int or abs(b) == inf for b in (got.lo, got.hi))

    def test_singleton_preimage_is_exact(self):
        # Every bounded solution lies in -100..100, so one at the window's
        # edge stands for an infinite end.
        inf = float("inf")
        window = range(-100, 101)
        zs = [iv(a, b) for a in [-inf, *range(-6, 7)] for b in [*range(-6, 7), inf] if a <= b]
        for z in zs:
            for yv in [-4, -3, -2, -1, 1, 2, 3, 4]:
                for preimage, op in ((_mul_preimage, lambda x: x * yv),
                                     (_tdiv_preimage, lambda x: tdiv(x, yv))):
                    sols = [x for x in window if op(x) in z]
                    expected = hull_of(sols)
                    if sols:
                        expected = iv(-inf if sols[0] == window[0] else sols[0],
                                      inf if sols[-1] == window[-1] else sols[-1])
                    assert preimage(z, iv(yv, yv)) == expected, (z, yv, preimage)


class TestContractFixpoint:
    def test_single_constraint_matches_hc4(self):
        box = parse_box("x:[0,10], y:[2,4]")
        c = lowered("x + y == 5", box)
        assert contract_fixpoint([c], box) == hc4_revise(c, box)

    def test_round_robin_stabilizes_soundly(self):
        # Per-constraint contraction cannot reach the joint solution
        # {x:[2,2], y:[2,2]}: [0,4]^2 is a genuine fixpoint of both
        # individual contractors, and every joint solution is inside it.
        box = parse_box("x:[0,10], y:[0,10]")
        cs = [lowered("x == y", box),
              lowered("x + y == 4", box)]
        out = contract_fixpoint(cs, box, max_rounds=50)
        assert out.as_dict() == {"x": iv(0, 4), "y": iv(0, 4)}
        assert contract_fixpoint(cs, out, max_rounds=50) == out

    def test_rejects_nonpositive_rounds(self):
        with pytest.raises(ValueError):
            contract_fixpoint([], parse_box("x:[0,1]"), max_rounds=0)
        box = parse_box("x:[0,9]")
        with pytest.raises(ValueError):
            contract_fixpoint([lowered("x < 3", box)], box, max_rounds=0)


def reference_contract(cond, box, max_rounds=10):
    """contract_condition with its `&&` round robin run until the box is
    stable, empty or max_rounds rounds have run, whatever the conjuncts."""
    if box.is_bottom:
        return box
    if cond is True or cond is False:
        return box if cond else box.as_bottom()
    if type(cond) is _Code:
        return hc4_revise(cond, box)
    if isinstance(cond, tuple):
        left, right = (reference_contract(side, box, max_rounds) for side in cond)
        return left.join(right)
    current = box
    for _ in range(max_rounds):
        previous = current
        for item in cond:
            current = reference_contract(item, current, 1)
            if current.is_bottom:
                return current
        if current == previous:
            break
    return current


class TestBoundConjunctions:
    """A `&&` of single-variable bounds stops after one round, with the
    round robin's result."""

    def random_conjunction(self, rng, box):
        names, comparisons = list(box), []
        for _ in range(rng.randint(1, 6)):
            relation = rng.choice(["==", "!=", "<", "<=", ">", ">="])
            k = rng.randint(-6, 12)
            if rng.random() < 0.2:  # two variables: not a bound
                a, b = rng.sample(names, 2)
                source = "%s + %s %s %d" % (a, b, relation, k)
            elif rng.random() < 0.5:
                source = "%s %s %d" % (rng.choice(names), relation, k)
            else:
                source = "%d %s %s" % (k, relation, rng.choice(names))
            comparisons.append(lowered(source, box))
        return comparisons

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_round_robin(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            box = AbstractState.of({name: iv(rng.randint(-5, 3), rng.randint(3, 10))
                                    for name in ("x", "y", "z")})
            codes = self.random_conjunction(rng, box)
            for rounds in (1, 2, 3, 10):
                assert contract_fixpoint(codes, box, rounds) == \
                    reference_contract(codes, box, rounds)

    def test_variable_bounded_twice(self):
        box = parse_box("x:[0,10], y:[0,10]")
        codes = [lowered(source, box) for source in ("x >= 2", "y < 4", "x <= 5", "3 < x")]
        assert all(code.bound is not None for code in codes)
        out = contract_fixpoint(codes, box)
        assert out.as_dict() == {"x": iv(4, 5), "y": iv(0, 3)}
        assert out == reference_contract(codes, box)

    def test_empty_result(self):
        box = parse_box("x:[0,10], y:[0,10]")
        codes = [lowered(source, box) for source in ("x > 5", "y == 1", "x < 3")]
        assert contract_fixpoint(codes, box).is_bottom
        assert reference_contract(codes, box).is_bottom

    def test_one_round_of_revisions(self, monkeypatch):
        calls = []
        original = contractor.hc4_revise

        def counting(code, box):
            calls.append(code)
            return original(code, box)

        monkeypatch.setattr(contractor, "hc4_revise", counting)
        box = parse_box("x:[0,10], y:[0,10]")
        bounds = [lowered(source, box) for source in ("x >= 2", "y < 4", "x <= 5")]
        contract_fixpoint(bounds, box)
        assert len(calls) == 3  # the round robin took a second round of 3
        calls.clear()
        mixed = bounds + [lowered("x + y <= 6", box)]
        contract_fixpoint(mixed, box)
        assert len(calls) == 8  # a second round, which changes nothing


class TestLowerCondition:
    def test_negation_flips_comparison(self):
        box = parse_box("x:[0,10]")
        form = lower_condition(parse_condition("!(x < 5)", ["x"]), True, box)
        assert form.relation == ">="
        assert (form.lhs, form.rhs) == (Var("x"), IntLit(5))

    def test_de_morgan(self):
        box = parse_box("x:[0,10]")
        form = lower_condition(parse_condition("!(x < 5 && x > 1)", ["x"]), True, box)
        assert type(form) is tuple
        assert [side.relation for side in form] == [">=", "<="]

    def test_false_polarity_negates(self):
        box = parse_box("x:[0,10]")
        form = lower_condition(parse_condition("x < 5 || x == 7", ["x"]), False, box)
        assert [item.relation for item in form] == [">=", "!="]

    def test_conjunctions_flatten_and_literals_lower_to_bools(self):
        box = parse_box("x:[0,10]")
        cond = parse_condition("x > 1 && (x < 5 && true)", ["x"])
        form = lower_condition(cond, True, box)
        assert form[:2] == [lower_condition(cond.left, True, box),
                            lower_condition(cond.right.left, True, box)]
        assert form[2] is True
        assert lower_condition(cond, True, box) is form  # cached per analysis


class TestClassifyCondition:
    def test_guard_true_on_inner_box(self):
        cond = parse_condition("x > 3 && x < 10", ["x"])
        result = classify_condition(cond, parse_box("x:[4,9]"))
        assert result.verdict is Truth3.TRUE

    def test_guard_maybe_with_refined_boxes(self):
        cond = parse_condition("x > 3 && x < 10", ["x"])
        result = classify_condition(cond, parse_box("x:[0,20]"))
        assert result.verdict is Truth3.MAYBE
        assert result.box_in.as_dict() == {"x": iv(4, 9)}
        assert result.box_out.as_dict() == {"x": iv(0, 20)}  # hull of [0,3] and [10,20]

    def test_guard_false(self):
        cond = parse_condition("x > 3", ["x"])
        result = classify_condition(cond, parse_box("x:[0,2]"))
        assert result.verdict is Truth3.FALSE

    def test_empty_input_box_is_maybe(self):
        cond = parse_condition("x > 3", ["x"])
        result = classify_condition(cond, AbstractState.of({"x": BOTTOM}))
        assert result.verdict is Truth3.MAYBE

    def test_disjunction_hulls(self):
        cond = parse_condition("x < 2 || x > 8", ["x"])
        result = classify_condition(cond, parse_box("x:[0,10]"))
        assert result.verdict is Truth3.MAYBE
        assert result.box_in.as_dict() == {"x": iv(0, 10)}


class TestRandomizedProperties:
    @pytest.mark.parametrize("seed", range(60))
    def test_contraction_and_correctness(self, seed):
        source, box, hull_checkable = random_constraint_box(seed)
        cond = parse_condition(source, list(box))
        out = hc4_revise(lower_comparison(cond, box), box)
        assert out.leq(box)
        sols = list(solutions(cond, box))
        for env in sols:
            for name, value in env.items():
                assert value in out[name]
        if hull_checkable:
            if not sols:
                assert out.is_bottom
            else:
                for name in box:
                    values = [env[name] for env in sols]
                    assert (out[name].lo, out[name].hi) == (min(values), max(values))

    @pytest.mark.parametrize("seed", range(60))
    def test_variable_against_constant_is_exact(self, seed):
        # x <rel> e or e <rel> x for a variable-free e: the contracted box
        # is exactly the hull of the solutions, and empty when none exist.
        rng = random.Random(seed)

        def constant(depth):
            if depth <= 0 or rng.random() < 0.3:
                k = rng.randint(-6, 6)
                return rng.choice(["%d" % k, "(0 - %d)" % -k]) if k < 0 else str(k)
            if rng.random() < 0.1:
                return "(1 / 0)"
            return "(%s %s %s)" % (constant(depth - 1), rng.choice("+-*/"),
                                   constant(depth - 1))

        e = constant(3)
        try:
            center = eval_point(parse_condition("0 == %s" % e, []).right, {})
        except ZeroDivisionError:
            center = 0
        # x's range lies around e's value, so many cases have solutions.
        lo = center + rng.randint(-8, 3)
        ranges = {"x": iv(lo, lo + rng.randint(0, 10))}
        if rng.random() < 0.5:
            ranges["y"] = iv(-2, rng.randint(-2, 3))
        box = AbstractState.of(ranges)
        relation = rng.choice(["==", "<", "<=", ">", ">="])
        if rng.random() < 0.5:
            source = "x %s %s" % (relation, e)
        else:
            source = "%s %s x" % (e, relation)
        cond = parse_condition(source, list(box))
        out = hc4_revise(lower_comparison(cond, box), box)
        sols = list(solutions(cond, box))
        if not sols:
            assert out.is_bottom
        else:
            for name in box:
                values = [env[name] for env in sols]
                assert (out[name].lo, out[name].hi) == (min(values), max(values))
