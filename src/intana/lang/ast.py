"""AST for the mini imperative language.

Expressions are immutable and freely shared between trees.  Statements
carry a program-unique id (`sid`) assigned by the parser so analysis
results can be mapped back onto rewritten trees.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import partial

ARITH_OPS = frozenset({"+", "-", "*", "/"})
CMP_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})

# Binding strength of each binary operator, weakest first; all of them are
# left-associative.  Unary '-' and '!' bind tighter than any of them.
PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6,
}


def tdiv(a: int, b: int) -> int:
    """Integer division truncating toward zero, as in C; b must not be 0."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


# The integer function of each arithmetic and comparison operator.
CONCRETE = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": tdiv,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


# --- expressions -----------------------------------------------------------

class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'neg' or 'not'
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Nondet(Expr):
    lo: "int | None"
    hi: "int | None"

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None


TRUE = BoolLit(True)
FALSE = BoolLit(False)


def subexprs(e: Expr):
    """Yield e and every subexpression, in preorder.

    Iterative: a nested generator per level would pass each node up
    through every enclosing level, quadratic on a long chain.
    """
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, Unary):
            stack.append(e.operand)
        elif isinstance(e, Binary):
            stack += (e.right, e.left)


def free_vars(e: Expr) -> frozenset:
    return frozenset(sub.name for sub in subexprs(e) if isinstance(sub, Var))


# --- statements -------------------------------------------------------------

@dataclass
class Stmt:
    sid: int = field(default=-1, kw_only=True)


@dataclass
class Decl(Stmt):
    name: str = ""
    init: "Expr | None" = None


@dataclass
class Assign(Stmt):
    target: str = ""
    rhs: "Expr | None" = None


@dataclass
class Assume(Stmt):
    cond: "Expr | None" = None


@dataclass
class Assert(Stmt):
    cond: "Expr | None" = None


@dataclass
class If(Stmt):
    cond: "Expr | None" = None
    then: "list[Stmt]" = field(default_factory=list)
    orelse: "list[Stmt] | None" = None


@dataclass
class While(Stmt):
    cond: "Expr | None" = None
    body: "list[Stmt]" = field(default_factory=list)


@dataclass
class Call(Stmt):
    callee: str = ""
    args: "tuple[Expr, ...]" = ()
    result: "str | None" = None


@dataclass
class Return(Stmt):
    value: "Expr | None" = None


@dataclass
class Skip(Stmt):
    pass


@dataclass
class Function:
    name: str
    params: "tuple[str, ...]"
    body: "list[Stmt]"

    @property
    def locals(self) -> "tuple[str, ...]":
        """Declared names in source order, which is walk_stmts order."""
        return tuple(s.name for s in walk_stmts(self.body) if isinstance(s, Decl))

    @property
    def variables(self) -> "tuple[str, ...]":
        return self.params + self.locals

    @property
    def has_return(self) -> bool:
        return any(isinstance(s, Return) for s in walk_stmts(self.body))


@dataclass
class Program:
    functions: "dict[str, Function]"
    entry: str = "main"

    @property
    def main(self) -> Function:
        return self.functions[self.entry]


def walk_stmts(block):
    """Yield every statement in a block, recursing into bodies."""
    for s in block:
        yield s
        if isinstance(s, If):
            yield from walk_stmts(s.then)
            if s.orelse is not None:
                yield from walk_stmts(s.orelse)
        elif isinstance(s, While):
            yield from walk_stmts(s.body)


def map_exprs(s: Stmt, f) -> Stmt:
    """A copy of s with each expression it directly holds replaced by f(e).

    Sub-blocks are left alone; an absent Decl init or Return value is not
    passed to f.
    """
    if isinstance(s, Decl) and s.init is not None:
        return replace(s, init=f(s.init))
    if isinstance(s, Assign):
        return replace(s, rhs=f(s.rhs))
    if isinstance(s, (Assume, Assert, If, While)):
        return replace(s, cond=f(s.cond))
    if isinstance(s, Call):
        return replace(s, args=tuple(f(a) for a in s.args))
    if isinstance(s, Return) and s.value is not None:
        return replace(s, value=f(s.value))
    return replace(s)


def stmt_exprs(s: Stmt) -> "list[Expr]":
    """The expressions directly held by a statement (not its sub-blocks),
    those map_exprs passes to its function, in the same order."""
    if isinstance(s, Decl):
        return [] if s.init is None else [s.init]
    if isinstance(s, Assign):
        return [s.rhs]
    if isinstance(s, (Assume, Assert, If, While)):
        return [s.cond]
    if isinstance(s, Call):
        return list(s.args)
    if isinstance(s, Return) and s.value is not None:
        return [s.value]
    return []


def map_children(s: Stmt, walk) -> Stmt:
    """s with its If/While sub-blocks replaced by walk(sub_block).

    An If's orelse is walked before its then: instrumentation numbers its
    points in visit order.
    """
    if isinstance(s, If):
        orelse = None if s.orelse is None else walk(s.orelse)
        return replace(s, then=walk(s.then), orelse=orelse)
    if isinstance(s, While):
        return replace(s, body=walk(s.body))
    return s


def map_block(block, fn) -> "list[Stmt]":
    """Rewrite a block: fn(stmt, walk) returns the statements replacing stmt.

    walk rewrites a nested block the same way; fn decides which sub-blocks
    to visit, usually through map_children.
    """
    walk = partial(map_block, fn=fn)
    out = []
    for s in block:
        out.extend(fn(s, walk))
    return out


def map_program(prog: Program, fn) -> Program:
    """Rewrite every function body with map_block(body, fn(name, stmt, walk))."""
    return Program({name: replace(f, body=map_block(f.body, partial(fn, name)))
                    for name, f in prog.functions.items()}, prog.entry)


def program_nondets(prog: Program):
    for fn in prog.functions.values():
        for s in walk_stmts(fn.body):
            for e in stmt_exprs(s):
                for sub in subexprs(e):
                    if isinstance(sub, Nondet):
                        yield sub
