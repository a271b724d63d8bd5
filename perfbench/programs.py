"""Seeded input programs for the three benchmark workloads.

Nothing here imports intana (the fuzz generator is a frozen copy of
`intana.fuzz`), so a change under `src/` cannot change what the
benchmark runs.
Each generator takes a `random.Random` seeded from the benchmark's
`--seed`, so the same seed always yields the same programs.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

VAR_NAMES = ("a", "b", "c")
MAX_NONDETS = 3


@dataclass
class Program:
    """One input program and the size measure its workload fits against."""

    name: str
    source: str
    size: float
    meta: "dict[str, int]" = field(default_factory=dict)

    @property
    def lines(self) -> int:
        return self.source.count("\n")


def indent(lines: "list[str]") -> "list[str]":
    return ["    " + line for line in lines]


class FuzzGenerator:
    """Frozen copy of the seed's `intana.fuzz.ProgramGenerator`.

    Every nondet range is small and every loop is counter-bounded, so
    exhaustive concrete enumeration terminates quickly and never nears
    the oracle's step limit.  Unlike the original it also records
    `executions_bound`, the product over nondet sites of their range size
    raised to the iterations of the enclosing loops; recording it draws
    no extra random numbers, so the programs are unchanged.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.vars: "list[str]" = []
        self.nondets = 0
        self.has_helper = False
        self.trips: "list[int]" = []  # iteration counts of the enclosing loops
        self.executions_bound = 1

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
        self.executions_bound *= (width + 1) ** math.prod(self.trips)
        return "nondet(%d, %d)" % (lo, lo + width)

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
            lines = ["if (%s) {" % self.cond(1)]
            lines += indent(self.block(depth - 1, loop_depth, targets, 1, 2))
            if rng.random() < 0.5:
                lines += ["} else {"]
                lines += indent(self.block(depth - 1, loop_depth, targets, 1, 2))
            lines += ["}"]
            return lines
        if roll < 0.75 and loop_depth < 2 and len(targets) > 1:
            counter = rng.choice(targets)
            inner = [t for t in targets if t != counter]
            trips = rng.randint(1, 3)
            lines = ["%s = 0;" % counter, "while (%s < %d) {" % (counter, trips)]
            self.trips.append(trips)
            lines += indent(self.block(depth - 1, loop_depth + 1, inner, 1, 2))
            self.trips.pop()
            lines += indent(["%s = %s + 1;" % (counter, counter)])
            lines += ["}"]
            return lines
        if roll < 0.85:
            return ["assert(%s);" % self.cond(1)]
        if roll < 0.92:
            return ["assume(%s);" % self.cond(1)]
        if self.has_helper:
            return ["%s = helper(%s);" % (rng.choice(targets), self.expr(1))]
        return [self.assign(loop_depth, targets)]

    def block(self, depth: int, loop_depth: int, targets, lo: int, hi: int) -> "list[str]":
        lines = []
        for _ in range(self.rng.randint(lo, hi)):
            lines += self.stmt(depth, loop_depth, targets)
        return lines

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


# Buckets of a fuzz program's execution bound (upper edges), and the share
# of the generator's programs in each, measured over 40000 draws; the rare
# programs above the last edge are not used.  Filling fixed quotas keeps
# the count of enumeration-heavy programs, which set the latency tail,
# the same for every seed.
EXECUTION_BUCKETS = (1, 3, 9, 27, 81)
EXECUTION_SHARES = (0.215, 0.37, 0.308, 0.098, 0.008)


def fuzz_programs(rng: random.Random, count: int) -> "list[Program]":
    """`count` fuzz programs, sized by source lines, in fixed execution strata."""
    quotas = [round(share * count) for share in EXECUTION_SHARES]
    quotas[1] += count - sum(quotas)
    out = []
    while len(out) < count:
        gen = FuzzGenerator(random.Random(rng.getrandbits(64)))
        source = gen.program()
        bucket = bisect.bisect_left(EXECUTION_BUCKETS, gen.executions_bound)
        if bucket < len(quotas) and quotas[bucket] > 0:
            quotas[bucket] -= 1
            out.append(Program("fuzz-%03d" % len(out), source, source.count("\n")))
    return out


# The ROADMAP's synthetic family: nv variables, lp sequential counted
# `while` loops, each body holding ns guarded updates.  Lines are
# 3 + nv + lp * (4 + 5 * ns); the 39, 117, 393 and 753 line members
# reproduce the rows of the ROADMAP's baseline table.  nv grows with size
# because cost scales with variables x nodes, but stays at most 25: wider
# states make the largest member far more sensitive to cache contention
# from other tenants of the machine than the rest of the family.
SCALE_LADDER = ((8, 2, 2), (10, 2, 5), (12, 3, 6), (14, 6, 6),
                (16, 11, 6), (20, 16, 6), (25, 25, 5))


def scale_member(nv: int, lp: int, ns: int, rng: random.Random) -> str:
    """One family member.

    Every seed yields the same program up to a renaming of its variables,
    so every seed asks the analyzer for the same work: with seeded initial
    values or guard constants, the work per member varied by a fifth.
    """
    names = ["v%d" % k for k in range(nv)]
    rng.shuffle(names)
    lines = ["fn main() {"]
    # At most two nondet draws keep the exhaustive output check cheap.
    for k, name in enumerate(names):
        init = "nondet(0, 2)" if k < 2 else str(k % 7 - 3)
        lines.append("    int %s = %s;" % (name, init))
    lines.append("    int i;")
    for loop in range(lp):
        lines += ["    i = 0;", "    while (i < 3) {"]
        for k in range(ns):
            va = names[(loop + k) % nv]
            vb = names[(loop + 2 * k + 1) % nv]
            if vb == va:
                vb = names[(loop + 2 * k + 2) % nv]
            lines += ["        if (%s < 3 && %s > 1) {" % (va, vb),
                      "            %s = %s + 1;" % (va, vb),
                      "        } else {",
                      "            %s = %s - 1;" % (vb, va),
                      "        }"]
        lines += ["        i = i + 1;", "    }"]
    lines.append("}")
    return "\n".join(lines) + "\n"


def scale_family(rng: random.Random, ladder=SCALE_LADDER) -> "list[Program]":
    out = []
    for nv, lp, ns in ladder:
        source = scale_member(nv, lp, ns, rng)
        out.append(Program("scale-%04d" % source.count("\n"), source,
                           source.count("\n"), {"nv": nv, "lp": lp, "ns": ns}))
    return out


# Oracle-bound programs: three wide nondet ranges drawn before anything
# can halt, then a fixed-shape counted loop with no division, so every
# execution takes the same number of steps and the execution count is
# exactly the product of the range sizes.  The counts follow a fixed
# geometric ladder; the seed picks which variable gets which range, the
# comparisons and the constants.
ORACLE_MIN_EXECUTIONS = 100
ORACLE_MAX_EXECUTIONS = 1000
CMP = ("<", "<=", ">", ">=", "==", "!=")


def _range_sizes(target: int) -> "list[int]":
    """Three range sizes whose product is close to target; no seed involved,
    so the execution counts of the ladder are the same for every seed."""
    side = max(2, round(target ** (1.0 / 3.0)))
    return [side, side, max(2, round(target / (side * side)))]


def oracle_program(target: int, rng: random.Random) -> "tuple[str, int]":
    sizes = _range_sizes(target)
    rng.shuffle(sizes)
    lines = ["fn main() {"]
    for name, size in zip(VAR_NAMES, sizes):
        lo = rng.randint(-size, 2)
        lines.append("    int %s = nondet(%d, %d);" % (name, lo, lo + size - 1))
    a, b, c = rng.sample(VAR_NAMES, 3)

    def pm() -> str:
        return rng.choice("+-")

    lines += ["    int s = %d;" % rng.randint(-3, 3),
              "    int i = 0;",
              "    while (i < 3) {",
              "        if (%s %s %s %s i) {" % (a, rng.choice(CMP), b, pm()),
              "            s = s %s %s;" % (pm(), a),
              "        } else {",
              "            s = s %s %s;" % (pm(), c),
              "        }",
              "        if (%s %s s %s %d) {" % (c, rng.choice(CMP), pm(), rng.randint(0, 4)),
              "            s = s %s %s;" % (pm(), b),
              "        } else {",
              "            s = s %s i;" % pm(),
              "        }",
              "        i = i + 1;",
              "    }",
              "    assert(s %s %d);" % (rng.choice(CMP), rng.randint(-5, 5)),
              "}"]
    return "\n".join(lines) + "\n", math.prod(sizes)


def oracle_programs(rng: random.Random, count: int) -> "list[Program]":
    """`count` programs sized by their exact number of executions."""
    out = []
    ratio = ORACLE_MAX_EXECUTIONS / ORACLE_MIN_EXECUTIONS
    for k in range(count):
        target = round(ORACLE_MIN_EXECUTIONS * ratio ** (k / max(1, count - 1)))
        source, executions = oracle_program(target, random.Random(rng.getrandbits(64)))
        out.append(Program("enum-%03d" % k, source, executions,
                           {"executions": executions}))
    return out


def reference_work() -> int:
    """A fixed slice of interpreter-bound work (about 0.1 ms) that never changes.

    The benchmark times it next to and during every command to see how
    fast the machine is running at that moment (see run.Clock).
    """
    return sum(len(FuzzGenerator(random.Random(k)).program()) for k in (0, 1))
