"""Seeded random generation of small programs and constraint/box pairs.

The generated programs are used for differential testing: every nondet
is bounded with a small range (so exhaustive concrete enumeration stays
cheap), loops are counter-bounded (so executions terminate), and
declaration-before-use holds by construction.
"""

from __future__ import annotations

import random

from .interval import AbstractState, Interval

VAR_NAMES = ("a", "b", "c")
MAX_NONDETS = 3


class ProgramGenerator:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.vars: "list[str]" = []
        self.nondets = 0
        self.has_helper = False

    # --- expressions ---------------------------------------------------------

    def expr(self, depth: int, pool=None) -> str:
        rng = self.rng
        pool = pool if pool is not None else self.vars
        if depth <= 0 or rng.random() < 0.4:
            if pool and rng.random() < 0.6:
                return rng.choice(pool)
            return str(rng.randint(-4, 4))
        op = rng.choices(["+", "-", "*", "/"], weights=[4, 4, 2, 1])[0]
        left = self.expr(depth - 1, pool)
        right = self.expr(depth - 1, pool)
        return "(%s %s %s)" % (left, op, right)

    def comparison(self, pool=None) -> str:
        op = self.rng.choice(["==", "!=", "<", "<=", ">", ">="])
        return "%s %s %s" % (self.expr(1, pool), op, self.expr(1, pool))

    def cond(self, depth: int, pool=None) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.6:
            return self.comparison(pool)
        kind = rng.random()
        if kind < 0.4:
            return "(%s) && (%s)" % (self.cond(depth - 1, pool),
                                     self.cond(depth - 1, pool))
        if kind < 0.8:
            return "(%s) || (%s)" % (self.cond(depth - 1, pool),
                                     self.cond(depth - 1, pool))
        return "!(%s)" % self.cond(depth - 1, pool)

    def nondet_rhs(self, loop_depth: int) -> "str | None":
        if self.nondets >= MAX_NONDETS or loop_depth >= 2:
            return None
        width = self.rng.randint(0, 2 if loop_depth == 0 else 1)
        lo = self.rng.randint(-4, 4 - width)
        self.nondets += 1
        return "nondet(%d, %d)" % (lo, lo + width)

    # --- statements ----------------------------------------------------------

    def assign(self, loop_depth: int, targets) -> str:
        target = self.rng.choice(targets)
        if self.rng.random() < 0.25:
            rhs = self.nondet_rhs(loop_depth)
            if rhs is not None:
                return "%s = %s;" % (target, rhs)
        return "%s = %s;" % (target, self.expr(2))

    def stmt(self, depth: int, loop_depth: int, targets) -> "list[str]":
        rng = self.rng
        roll = rng.random()
        if roll < 0.45 or depth <= 0:
            return [self.assign(loop_depth, targets)]
        if roll < 0.60:
            head = "if (%s) {" % self.cond(1)
            lines = [head]
            lines += indent(self.block(depth - 1, loop_depth, targets, 1, 2))
            if rng.random() < 0.5:
                lines += ["} else {"]
                lines += indent(self.block(depth - 1, loop_depth, targets, 1, 2))
            lines += ["}"]
            return lines
        if roll < 0.75 and loop_depth < 2 and len(targets) > 1:
            counter = rng.choice(targets)
            inner = [t for t in targets if t != counter]
            bound = rng.randint(1, 3)
            lines = ["%s = 0;" % counter,
                     "while (%s < %d) {" % (counter, bound)]
            lines += indent(self.block(depth - 1, loop_depth + 1, inner, 1, 2))
            lines += indent(["%s = %s + 1;" % (counter, counter)])
            lines += ["}"]
            return lines
        if roll < 0.85:
            return ["assert(%s);" % self.cond(1)]
        if roll < 0.92:
            return ["assume(%s);" % self.cond(1)]
        if self.has_helper:
            target = rng.choice(targets)
            return ["%s = helper(%s);" % (target, self.expr(1))]
        return [self.assign(loop_depth, targets)]

    def block(self, depth: int, loop_depth: int, targets, lo: int, hi: int) -> "list[str]":
        lines = []
        for _ in range(self.rng.randint(lo, hi)):
            lines += self.stmt(depth, loop_depth, targets)
        return lines

    # --- whole programs ------------------------------------------------------

    def helper_source(self) -> "list[str]":
        lines = ["fn helper(p) {", "    int h = %d;" % self.rng.randint(-2, 2)]
        for _ in range(self.rng.randint(1, 2)):
            lines.append("    h = %s;" % self.expr(2, pool=["p", "h"]))
        lines += ["    return %s;" % self.expr(1, pool=["p", "h"]), "}", ""]
        return lines

    def program(self) -> str:
        rng = self.rng
        lines = []
        self.has_helper = rng.random() < 0.25
        if self.has_helper:
            lines += self.helper_source()
        lines.append("fn main() {")
        self.vars = list(VAR_NAMES[:rng.randint(2, 3)])
        for v in self.vars:
            roll = rng.random()
            if roll < 0.5:
                rhs = self.nondet_rhs(0)
                if rhs is not None:
                    lines.append("    int %s = %s;" % (v, rhs))
                    continue
            if roll < 0.8:
                lines.append("    int %s = %d;" % (v, rng.randint(-4, 4)))
            else:
                lines.append("    int %s;" % v)
        lines += indent(self.block(2, 0, self.vars, 2, 5))
        lines.append("}")
        return "\n".join(lines) + "\n"


def indent(lines: "list[str]") -> "list[str]":
    return ["    " + line for line in lines]


def random_program(seed: int) -> str:
    """Deterministic program source for a seed."""
    return ProgramGenerator(random.Random(seed)).program()


def random_constraint_box(seed: int) -> "tuple[str, AbstractState, bool]":
    """A (condition-source, box, hull-checkable) triple.

    Hull-checkable pairs use each variable at most once combined only
    with + and -, where the contracted box is provably the exact hull of
    the integer solutions.  Multiplication or division inside a larger
    term makes intermediate value sets non-contiguous, so their interval
    hulls can strictly exceed the solution hull; those pairs are still
    checked for contraction, correctness, and idempotence.
    """
    rng = random.Random(seed)
    names = list(VAR_NAMES[:rng.randint(1, 3)])
    ranges = {}
    for name in names:
        lo = rng.randint(-15, 15)
        ranges[name] = Interval(lo, lo + rng.randint(0, 20))
    box = AbstractState.of(ranges)

    if rng.random() < 0.5:
        # Linear flavor: each variable at most once, ops + and - only.
        rng.shuffle(names)
        used = names[:rng.randint(1, len(names))]
        term_src = used[0]
        for name in used[1:]:
            term_src = "(%s %s %s)" % (term_src, rng.choice(["+", "-"]), name)
        if rng.random() < 0.6:
            term_src = "(%s %s %d)" % (term_src, rng.choice(["+", "-"]),
                                       rng.randint(-10, 10))
        relation = rng.choice(["==", "<", "<=", ">", ">="])
        source = "%s %s %d" % (term_src, relation, rng.randint(-20, 20))
        return source, box, True

    counts = {name: 0 for name in names}
    relation = rng.choice(["==", "!=", "<", "<=", ">", ">="])
    source = "%s %s %s" % (_random_term(rng, names, counts, 2), relation,
                           _random_term(rng, names, counts, 1))
    if all(c == 0 for c in counts.values()):
        name = rng.choice(names)
        counts[name] = 1
        source = "%s %s %s" % (name, relation, rng.randint(-10, 10))
    return source, box, False


def _random_term(rng: random.Random, names, counts, depth: int) -> str:
    """A random arithmetic term; `counts` tallies each name it uses."""
    if depth <= 0 or rng.random() < 0.45:
        if rng.random() < 0.65:
            name = rng.choice(names)
            counts[name] += 1
            return name
        return str(rng.randint(-10, 10))
    op = rng.choices(["+", "-", "*", "/"], weights=[4, 4, 2, 1])[0]
    return "(%s %s %s)" % (_random_term(rng, names, counts, depth - 1), op,
                           _random_term(rng, names, counts, depth - 1))
