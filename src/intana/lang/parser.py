"""Lexer and recursive-descent parser for the mini language.

Parsing also enforces well-formedness: declaration before use, unique
names per function, disjoint arithmetic/boolean expression sorts, call
arity, and absence of recursion.
"""

from __future__ import annotations

import re

from .ast import (
    ARITH_OPS,
    Assert,
    Assign,
    Assume,
    Binary,
    BoolLit,
    Call,
    CMP_OPS,
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


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.message = message
        self.line = line
        self.col = col


_KEYWORDS = {
    "fn", "int", "if", "else", "while", "assert", "assume",
    "return", "skip", "nondet", "true", "false",
}

# One match per token, taking the whitespace and comments before it.  The
# token alternatives always match where the skipped text ends (`.` takes any
# character that is not whitespace), so the skip is never backtracked into.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|//[^\n]*)*
    (?:
      (?P<number>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<symbol>==|!=|<=|>=|&&|\|\||[-+*/<>=!(){},;])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "offset", "source")

    def __init__(self, kind, text, offset, source):
        self.kind = kind
        self.text = text
        self.offset = offset
        self.source = source

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.text)

    def error(self, message: str) -> ParseError:
        """A ParseError at this token's 1-based line and column."""
        line = self.source.count("\n", 0, self.offset) + 1
        col = self.offset - self.source.rfind("\n", 0, self.offset)
        return ParseError(message, line, col)


def tokenize(source: str):
    """The tokens of `source`, ending with one of kind "eof"."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text, offset = m.group(kind), m.start(kind)
        # A keyword, operator or punctuation token's kind is its text.
        if kind == "symbol" or kind == "ident" and text in _KEYWORDS:
            kind = text
        tok = Token(kind, text, offset, source)
        if kind == "bad":
            raise tok.error("unexpected character %r" % text)
        tokens.append(tok)
        if kind == "eof":
            return tokens


class Parser:
    def __init__(self, tokens):
        # A second eof lets peek(1) at the end read eof with no bounds check.
        self.tokens = [*tokens, tokens[-1]]
        self.pos = 0
        self.next_sid = 0
        self.declared: "set[str]" = set()
        self.function = None  # name of the function being parsed
        # (function, call, token of its callee) per call, in source order.
        self.calls: "list[tuple[str, Call, Token]]" = []

    # --- token plumbing ---

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error("expected %r, found %r" % (kind, tok.text or "end of input"), tok)
        return self.advance()

    def error(self, message: str, tok: "Token | None" = None):
        raise (tok or self.peek()).error(message)

    def fresh_sid(self) -> int:
        self.next_sid += 1
        return self.next_sid

    # --- grammar ---

    def parse_program(self) -> Program:
        functions = {}
        while self.peek().kind != "eof":
            tok = self.peek()
            fn = self.parse_function()
            if fn.name in functions:
                self.error("duplicate function %r" % fn.name, tok)
            functions[fn.name] = fn
        if "main" not in functions:
            self.error("no entry function 'main'")
        prog = Program(functions=functions, entry="main")
        self._validate_calls(prog)
        return prog

    def parse_function(self) -> Function:
        self.expect("fn")
        name = self.expect("ident").text
        self.expect("(")
        params = []
        if self.peek().kind != ")":
            while True:
                ptok = self.expect("ident")
                if ptok.text in params:
                    self.error("duplicate parameter %r" % ptok.text, ptok)
                params.append(ptok.text)
                if self.peek().kind != ",":
                    break
                self.advance()
        self.expect(")")
        self.declared = set(params)
        self.function = name
        return Function(name=name, params=tuple(params), body=self.parse_block())

    def parse_block(self) -> "list[Stmt]":
        self.expect("{")
        stmts = []
        while self.peek().kind != "}":
            stmts.append(self.parse_item())
        self.expect("}")
        return stmts

    def parse_item(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "int":
            return self.parse_decl()
        return self.parse_stmt()

    def parse_decl(self) -> Decl:
        self.expect("int")
        nametok = self.expect("ident")
        name = nametok.text
        if name in self.declared:
            self.error("redeclaration of %r" % name, nametok)
        init = None
        if self.peek().kind == "=":
            self.advance()
            init = self.parse_rhs()
        self.expect(";")
        self.declared.add(name)
        return Decl(name=name, init=init, sid=self.fresh_sid())

    def parse_rhs(self) -> Expr:
        # Assignment right-hand side: nondet(...) or an arithmetic expression.
        if self.peek().kind == "nondet":
            return self.parse_nondet()
        tok = self.peek()
        e = self.parse_expr()
        self._check_sort(e, "int", tok)
        return e

    def parse_nondet(self) -> Nondet:
        tok = self.expect("nondet")
        self.expect("(")
        lo = hi = None
        if self.peek().kind != ")":
            lo = self.parse_int_bound()
            self.expect(",")
            hi = self.parse_int_bound()
            if lo > hi:
                self.error("nondet bounds reversed: %d > %d" % (lo, hi), tok)
        self.expect(")")
        return Nondet(lo, hi)

    def parse_int_bound(self) -> int:
        neg = False
        if self.peek().kind == "-":
            self.advance()
            neg = True
        tok = self.expect("number")
        v = int(tok.text)
        return -v if neg else v

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "if":
            return self.parse_if()
        if tok.kind == "while":
            return self.parse_while()
        if tok.kind in ("assert", "assume"):
            self.advance()
            cond = self.parse_paren_cond()
            self.expect(";")
            check = Assert if tok.kind == "assert" else Assume
            return check(cond=cond, sid=self.fresh_sid())
        if tok.kind == "return":
            self.advance()
            rtok = self.peek()
            value = self.parse_expr()
            self._check_sort(value, "int", rtok)
            self.expect(";")
            return Return(value=value, sid=self.fresh_sid())
        if tok.kind == "skip":
            self.advance()
            self.expect(";")
            return Skip(sid=self.fresh_sid())
        if tok.kind == "ident":
            return self.parse_assign_or_call()
        self.error("expected a statement, found %r" % (tok.text or "end of input"))

    def parse_assign_or_call(self) -> Stmt:
        nametok = self.expect("ident")
        name = nametok.text
        nxt = self.peek()
        if nxt.kind == "(":
            call = self.parse_call_tail(name, result=None, tok=nametok)
            return call
        if nxt.kind != "=":
            self.error("expected '=' or '(' after %r" % name, nxt)
        self.advance()
        if name not in self.declared:
            self.error("assignment to undeclared variable %r" % name, nametok)
        if self.peek().kind == "ident" and self.peek(1).kind == "(":
            calleetok = self.advance()
            call = self.parse_call_tail(calleetok.text, result=name, tok=calleetok)
            return call
        rhs = self.parse_rhs()
        self.expect(";")
        return Assign(target=name, rhs=rhs, sid=self.fresh_sid())

    def parse_call_tail(self, callee: str, result: "str | None", tok: Token) -> Call:
        self.expect("(")
        args = []
        if self.peek().kind != ")":
            while True:
                atok = self.peek()
                a = self.parse_expr()
                self._check_sort(a, "int", atok)
                args.append(a)
                if self.peek().kind != ",":
                    break
                self.advance()
        self.expect(")")
        self.expect(";")
        call = Call(callee=callee, args=tuple(args), result=result, sid=self.fresh_sid())
        self.calls.append((self.function, call, tok))
        return call

    def parse_if(self) -> If:
        self.expect("if")
        cond = self.parse_paren_cond()
        then = self.parse_block()
        orelse = None
        if self.peek().kind == "else":
            self.advance()
            orelse = self.parse_block()
        return If(cond=cond, then=then, orelse=orelse, sid=self.fresh_sid())

    def parse_while(self) -> While:
        self.expect("while")
        cond = self.parse_paren_cond()
        body = self.parse_block()
        return While(cond=cond, body=body, sid=self.fresh_sid())

    def parse_paren_cond(self) -> Expr:
        self.expect("(")
        cond = self.parse_cond()
        self.expect(")")
        return cond

    def parse_cond(self) -> Expr:
        tok = self.peek()
        e = self.parse_expr()
        self._check_sort(e, "bool", tok)
        return e

    # --- unified expressions (sorts checked afterwards) ---

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over PRECEDENCE; sorts are checked after
        construction so arithmetic and boolean never mix."""
        left = self.parse_unary()
        while True:
            tok = self.peek()
            prec = PRECEDENCE.get(tok.kind, 0)
            if prec < min_prec:
                break
            self.advance()
            right = self.parse_expr(prec + 1)
            left = Binary(tok.text, left, right)
        return left

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return Unary("neg", self.parse_unary())
        if tok.kind == "!":
            self.advance()
            return Unary("not", self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return IntLit(int(tok.text))
        if tok.kind == "true":
            self.advance()
            return BoolLit(True)
        if tok.kind == "false":
            self.advance()
            return BoolLit(False)
        if tok.kind == "ident":
            self.advance()
            if tok.text not in self.declared:
                self.error("use of undeclared variable %r" % tok.text, tok)
            return Var(tok.text)
        if tok.kind == "(":
            self.advance()
            e = self.parse_expr()
            self.expect(")")
            return e
        self.error("expected an expression, found %r" % (tok.text or "end of input"))

    def _check_sort(self, e: Expr, expected: str, tok: Token):
        try:
            actual = _deep_sort(e)
        except _SortError as exc:
            raise tok.error(str(exc)) from None
        if actual != expected:
            self.error("expected %s expression, found %s expression" % (expected, actual), tok)

    # --- post-parse call validation ---

    def _validate_calls(self, prog: Program):
        calls = {name: [] for name in prog.functions}
        for fname, call, tok in self.calls:
            callee = prog.functions.get(call.callee)
            if callee is None:
                self.error("call to undefined function %r" % call.callee, tok)
            if len(call.args) != len(callee.params):
                self.error("arity mismatch: %s takes %d arguments, got %d"
                           % (call.callee, len(callee.params), len(call.args)), tok)
            if call.result is not None and not callee.has_return:
                self.error("function %r does not return a value" % call.callee, tok)
            calls[fname].append((call.callee, tok))
        # Reject recursion (including mutual) with a simple cycle check.
        state = {}
        for name in prog.functions:
            if name not in state:
                _reject_recursion(name, calls, state)


def _reject_recursion(name: str, calls, state) -> None:
    """Depth-first search of the call graph from `name`; raises at the first
    call that closes a cycle.  `state` maps each function visited to
    "active" while it is on the search path and to "done" after."""
    state[name] = "active"
    for callee, tok in calls[name]:
        if state.get(callee) == "active":
            raise tok.error("recursive call via %r" % callee)
        if callee not in state:
            _reject_recursion(callee, calls, state)
    state[name] = "done"


class _SortError(Exception):
    pass


def _deep_sort(e: Expr) -> str:
    if isinstance(e, Unary):
        inner = _deep_sort(e.operand)
        want = "int" if e.op == "neg" else "bool"
        if inner != want:
            raise _SortError("operand of %r must be %s" % ("-" if e.op == "neg" else "!", want))
        return want
    if isinstance(e, Binary):
        ls, rs = _deep_sort(e.left), _deep_sort(e.right)
        if e.op in ARITH_OPS:
            if ls != "int" or rs != "int":
                raise _SortError("arithmetic operator %r needs integer operands" % e.op)
            return "int"
        if e.op in CMP_OPS:
            if ls != "int" or rs != "int":
                raise _SortError("comparison %r needs integer operands" % e.op)
            return "bool"
        if ls != "bool" or rs != "bool":
            raise _SortError("logical operator %r needs boolean operands" % e.op)
        return "bool"
    return "bool" if isinstance(e, BoolLit) else "int"


def parse_program(source: str) -> Program:
    return Parser(tokenize(source)).parse_program()


def parse_condition(source: str, varnames) -> Expr:
    """Parse a stand-alone condition over the given variable names."""
    parser = Parser(tokenize(source))
    parser.declared = set(varnames)
    cond = parser.parse_cond()
    if parser.peek().kind != "eof":
        parser.error("trailing input after condition")
    return cond
