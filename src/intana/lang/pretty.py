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
    fold,
)

# Operands with strictly lower binding strength get parentheses.  Unary
# operators, and leaves, bind tighter than every binary one, so a unary's
# operand is parenthesized unless it is a literal, a variable or a unary.
_UNARY_PREC = max(PRECEDENCE.values()) + 1


def expr_to_source(e: Expr) -> str:
    return fold(e, _source)[0]


def _source(e: Expr, left=None, right=None):
    """e's text and binding strength, from its operands'."""
    kind = type(e)
    if kind is Var:
        return e.name, _UNARY_PREC
    if kind is IntLit:
        return str(e.value), _UNARY_PREC
    if kind is Binary:
        prec = PRECEDENCE[e.op]
        (ltext, lprec), (rtext, rprec) = left, right
        # Left-associative: the right operand needs parens at equal strength.
        return "%s %s %s" % (ltext if lprec >= prec else "(%s)" % ltext, e.op,
                             rtext if rprec > prec else "(%s)" % rtext), prec
    if kind is Unary:
        inner, strength = left
        # Guard "- -x" from lexing as a decrement-like token soup.
        if strength < _UNARY_PREC or e.op == "neg" and inner.startswith("-"):
            inner = "(%s)" % inner
        return ("!" if e.op == "not" else "-") + inner, _UNARY_PREC
    if kind is BoolLit:
        return "true" if e.value else "false", _UNARY_PREC
    if kind is Nondet:
        if e.lo is None:
            return "nondet()", _UNARY_PREC
        return "nondet(%d, %d)" % (e.lo, e.hi), _UNARY_PREC
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
