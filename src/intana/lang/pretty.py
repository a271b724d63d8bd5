"""Source rendering for the mini language; output re-parses to an equal AST."""

from __future__ import annotations

from .ast import (
    Assert,
    Assign,
    Assume,
    Binary,
    BoolLit,
    Call,
    Decl,
    Expr,
    Function,
    If,
    IntLit,
    Nondet,
    PRECEDENCE,
    Program,
    Return,
    Skip,
    Stmt,
    Unary,
    Var,
    While,
)

# Children with strictly lower binding strength get parentheses.  Unary
# operators bind tighter than every binary one, so their operand is
# parenthesized unless it is a literal, a variable or another unary.
_UNARY_PREC = max(PRECEDENCE.values()) + 1


def expr_to_source(e: Expr) -> str:
    return _expr(e, 0)


def _expr(e: Expr, parent_prec: int) -> str:
    kind = type(e)
    if kind is Var:
        return e.name
    if kind is IntLit:
        return str(e.value)
    if kind is Binary:
        prec = PRECEDENCE[e.op]
        # Left-associative: the right child needs parens at equal strength.
        left = _expr(e.left, prec)
        right = _expr(e.right, prec + 1)
        text = "%s %s %s" % (left, e.op, right)
        return text if prec >= parent_prec else "(%s)" % text
    if kind is Unary:
        prec = _UNARY_PREC
        sym = "!" if e.op == "not" else "-"
        inner = _expr(e.operand, prec)
        # Guard "- -x" from lexing as a decrement-like token soup.
        if sym == "-" and inner.startswith("-"):
            inner = "(%s)" % inner
        text = sym + inner
        return text if prec >= parent_prec else "(%s)" % text
    if kind is BoolLit:
        return "true" if e.value else "false"
    if kind is Nondet:
        if e.lo is None:
            return "nondet()"
        return "nondet(%d, %d)" % (e.lo, e.hi)
    raise TypeError(e)


def stmt_to_lines(s: Stmt, indent: int):
    pad = "    " * indent
    if isinstance(s, Decl):
        if s.init is None:
            yield "%sint %s;" % (pad, s.name)
        else:
            yield "%sint %s = %s;" % (pad, s.name, expr_to_source(s.init))
    elif isinstance(s, Assign):
        yield "%s%s = %s;" % (pad, s.target, expr_to_source(s.rhs))
    elif isinstance(s, Assume):
        yield "%sassume(%s);" % (pad, expr_to_source(s.cond))
    elif isinstance(s, Assert):
        yield "%sassert(%s);" % (pad, expr_to_source(s.cond))
    elif isinstance(s, If):
        yield "%sif (%s) {" % (pad, expr_to_source(s.cond))
        for sub in s.then:
            yield from stmt_to_lines(sub, indent + 1)
        if s.orelse is None:
            yield "%s}" % pad
        else:
            yield "%s} else {" % pad
            for sub in s.orelse:
                yield from stmt_to_lines(sub, indent + 1)
            yield "%s}" % pad
    elif isinstance(s, While):
        yield "%swhile (%s) {" % (pad, expr_to_source(s.cond))
        for sub in s.body:
            yield from stmt_to_lines(sub, indent + 1)
        yield "%s}" % pad
    elif isinstance(s, Call):
        args = ", ".join(expr_to_source(a) for a in s.args)
        if s.result is None:
            yield "%s%s(%s);" % (pad, s.callee, args)
        else:
            yield "%s%s = %s(%s);" % (pad, s.result, s.callee, args)
    elif isinstance(s, Return):
        yield "%sreturn %s;" % (pad, expr_to_source(s.value))
    elif isinstance(s, Skip):
        yield "%sskip;" % pad
    else:
        raise TypeError(s)


def function_to_source(fn: Function) -> str:
    lines = ["fn %s(%s) {" % (fn.name, ", ".join(fn.params))]
    for s in fn.body:
        lines.extend(stmt_to_lines(s, 1))
    lines.append("}")
    return "\n".join(lines)


def program_to_source(prog: Program) -> str:
    return "\n\n".join(function_to_source(fn) for fn in prog.functions.values()) + "\n"
