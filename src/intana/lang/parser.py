"""Lexer and recursive-descent parser for the mini language.

Parsing also enforces well-formedness: declaration before use, reads and
writes only within the block that declares a variable, unique names per
function, disjoint arithmetic/boolean expression sorts, call arity, a
value from every function whose result is used, and absence of recursion.
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
# The keywords that start a statement; an identifier starts the others.
_STATEMENT_KEYWORDS = {"int", "if", "while", "assert", "assume", "return", "skip"}

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
        # Each token's kind, which the hot paths read by position.
        self.kinds = [tok.kind for tok in self.tokens]
        self.pos = 0
        self.next_sid = 0
        # The names declared so far in the function, and those of them a
        # read or write may name: its parameters and the declarations of
        # the blocks still open.  `scope` lists the names the innermost block declared.
        self.declared: "set[str]" = set()
        self.visible: "set[str]" = set()
        self.scope: "list[str]" = []
        self.function = None  # name of the function being parsed
        # (function, call, token of its callee) per call, in source order.
        self.calls: "list[tuple[str, Call, Token]]" = []
        # The first operand-sort mismatch of the expression being parsed.
        self.sort_error: "str | None" = None

    # --- token plumbing ---

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def advance(self) -> Token:
        pos = self.pos
        if self.kinds[pos] != "eof":
            self.pos = pos + 1
        return self.tokens[pos]

    def accept(self, kind: str) -> "Token | None":
        """The next token, consumed, if it is of `kind` (never "eof");
        otherwise None."""
        pos = self.pos
        if self.kinds[pos] != kind:
            return None
        self.pos = pos + 1
        return self.tokens[pos]

    def expect(self, kind: str) -> Token:
        """The next token, consumed; an error unless it is of `kind` (never "eof")."""
        pos = self.pos
        if self.kinds[pos] != kind:
            tok = self.tokens[pos]
            self.error("expected %r, found %r" % (kind, tok.text or "end of input"), tok)
        self.pos = pos + 1
        return self.tokens[pos]

    def error(self, message: str, tok: "Token | None" = None):
        raise (tok or self.peek()).error(message)

    def fresh_sid(self) -> int:
        self.next_sid += 1
        return self.next_sid

    # --- grammar ---

    def parse_program(self) -> Program:
        functions = {}
        while self.kinds[self.pos] != "eof":
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
        self.declared, self.visible = set(), set()
        params = self.parse_list(self.parse_param)
        self.function = name
        return Function(name=name, params=tuple(params), body=self.parse_block())

    def parse_param(self) -> str:
        tok = self.expect("ident")
        if tok.text in self.declared:
            self.error("duplicate parameter %r" % tok.text, tok)
        self.declared.add(tok.text)
        self.visible.add(tok.text)
        return tok.text

    def parse_list(self, parse_item) -> list:
        """A parenthesized, comma-separated, possibly empty list."""
        self.expect("(")
        items = []
        if self.kinds[self.pos] != ")":
            items.append(parse_item())
            while self.accept(","):
                items.append(parse_item())
        self.expect(")")
        return items

    def parse_block(self) -> "list[Stmt]":
        self.expect("{")
        outer, self.scope = self.scope, []
        stmts = []
        while self.kinds[self.pos] != "}":
            stmts.append(self.parse_stmt())
        self.expect("}")
        self.visible.difference_update(self.scope)
        self.scope = outer
        return stmts

    def parse_decl(self) -> Decl:
        nametok = self.expect("ident")
        name = nametok.text
        if name in self.declared:
            self.error("redeclaration of %r" % name, nametok)
        init = self.parse_rhs() if self.accept("=") else None
        self.expect(";")
        self.declared.add(name)
        self.visible.add(name)
        self.scope.append(name)
        return Decl(name=name, init=init, sid=self.fresh_sid())

    def parse_rhs(self) -> Expr:
        # Assignment right-hand side: nondet(...) or an arithmetic expression.
        if self.kinds[self.pos] == "nondet":
            return self.parse_nondet()
        return self.parse_sorted("int")

    def parse_nondet(self) -> Nondet:
        tok = self.expect("nondet")
        self.expect("(")
        lo = hi = None
        if self.kinds[self.pos] != ")":
            lo = self.parse_int_bound()
            self.expect(",")
            hi = self.parse_int_bound()
            if lo > hi:
                self.error("nondet bounds reversed: %d > %d" % (lo, hi), tok)
        self.expect(")")
        return Nondet(lo, hi)

    def parse_int_bound(self) -> int:
        neg = self.accept("-")
        v = int(self.expect("number").text)
        return -v if neg else v

    def parse_stmt(self) -> Stmt:
        kind = self.kinds[self.pos]
        if kind == "ident":
            return self.parse_assign_or_call()
        if kind not in _STATEMENT_KEYWORDS:
            tok = self.tokens[self.pos]
            self.error("expected a statement, found %r" % (tok.text or "end of input"))
        self.pos += 1
        if kind == "int":
            return self.parse_decl()
        if kind == "if":
            return self.parse_if()
        if kind == "while":
            return self.parse_while()
        if kind == "assert" or kind == "assume":
            cond = self.parse_paren_cond()
            self.expect(";")
            check = Assert if kind == "assert" else Assume
            return check(cond=cond, sid=self.fresh_sid())
        if kind == "return":
            value = self.parse_sorted("int")
            self.expect(";")
            return Return(value=value, sid=self.fresh_sid())
        self.expect(";")
        return Skip(sid=self.fresh_sid())

    def parse_assign_or_call(self) -> Stmt:
        nametok = self.expect("ident")
        name = nametok.text
        if self.kinds[self.pos] == "(":
            return self.parse_call_tail(name, result=None, tok=nametok)
        if not self.accept("="):
            self.error("expected '=' or '(' after %r" % name)
        if name not in self.declared:
            self.error("assignment to undeclared variable %r" % name, nametok)
        if name not in self.visible:
            self.error("use of %r outside the block that declares it" % name, nametok)
        if self.kinds[self.pos] == "ident" and self.kinds[self.pos + 1] == "(":
            calleetok = self.advance()
            return self.parse_call_tail(calleetok.text, result=name, tok=calleetok)
        rhs = self.parse_rhs()
        self.expect(";")
        return Assign(target=name, rhs=rhs, sid=self.fresh_sid())

    def parse_call_tail(self, callee: str, result: "str | None", tok: Token) -> Call:
        args = self.parse_list(lambda: self.parse_sorted("int"))
        self.expect(";")
        call = Call(callee=callee, args=tuple(args), result=result, sid=self.fresh_sid())
        self.calls.append((self.function, call, tok))
        return call

    def parse_if(self) -> If:
        cond = self.parse_paren_cond()
        then = self.parse_block()
        orelse = self.parse_block() if self.accept("else") else None
        return If(cond=cond, then=then, orelse=orelse, sid=self.fresh_sid())

    def parse_while(self) -> While:
        cond = self.parse_paren_cond()
        body = self.parse_block()
        return While(cond=cond, body=body, sid=self.fresh_sid())

    def parse_paren_cond(self) -> Expr:
        self.expect("(")
        cond = self.parse_sorted("bool")
        self.expect(")")
        return cond

    # --- expressions, their sorts checked as each node is built ---

    def parse_sorted(self, expected: str) -> Expr:
        """An expression of sort `expected` ("int" or "bool").

        A sort error is reported at the expression's first token, and only
        once the whole expression has parsed, so a syntax error anywhere in
        it comes first.  Nodes are built in post-order, so the error
        reported is the first mismatch in that order.
        """
        tok = self.peek()
        self.sort_error = None
        e = self.parse_expr()
        if self.sort_error is None and _sort(e) != expected:
            self.sort_error = "expected %s expression, found %s expression" % (expected, _sort(e))
        if self.sort_error is not None:
            self.error(self.sort_error, tok)
        return e

    def check_operands(self, e: Expr):
        """Record the sort error of the Unary or Binary node just built,
        unless an earlier node of this expression had one."""
        if self.sort_error is not None:
            return
        op = e.op
        need = _OPERAND_SORT[op]
        if type(e) is Unary:
            if _sort(e.operand) != need:
                self.sort_error = "operand of %r must be %s" % ("-" if op == "neg" else "!", need)
        elif not _sort(e.left) == _sort(e.right) == need:
            if need == "bool":
                self.sort_error = "logical operator %r needs boolean operands" % op
            else:
                kind = "arithmetic operator" if op in ARITH_OPS else "comparison"
                self.sort_error = "%s %r needs integer operands" % (kind, op)

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over PRECEDENCE; an operator's kind is its text."""
        left = self.parse_unary()
        kinds = self.kinds
        while True:
            op = kinds[self.pos]
            prec = PRECEDENCE.get(op, 0)
            if prec < min_prec:
                return left
            self.pos += 1
            left = Binary(op, left, self.parse_expr(prec + 1))
            self.check_operands(left)

    def parse_unary(self) -> Expr:
        kind = self.kinds[self.pos]
        if kind != "-" and kind != "!":
            return self.parse_primary()
        self.pos += 1
        e = Unary("neg" if kind == "-" else "not", self.parse_unary())
        self.check_operands(e)
        return e

    def parse_primary(self) -> Expr:
        pos = self.pos
        kind, tok = self.kinds[pos], self.tokens[pos]
        if kind == "ident":
            self.pos = pos + 1
            if tok.text not in self.visible:
                if tok.text in self.declared:
                    self.error("use of %r outside the block that declares it" % tok.text, tok)
                self.error("use of undeclared variable %r" % tok.text, tok)
            return Var(tok.text)
        if kind == "number":
            self.pos = pos + 1
            return IntLit(int(tok.text))
        if kind == "(":
            self.pos = pos + 1
            e = self.parse_expr()
            self.expect(")")
            return e
        if kind == "true" or kind == "false":
            self.pos = pos + 1
            return BoolLit(kind == "true")
        self.error("expected an expression, found %r" % (tok.text or "end of input"))

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
            if call.result is not None and _falls_through(callee.body):
                why = ("can reach its end without returning a value" if callee.has_return
                       else "does not return a value")
                self.error("function %r %s" % (call.callee, why), tok)
            calls[fname].append((call.callee, tok))
        # Reject recursion (including mutual) with a simple cycle check.
        state = {}
        for name in prog.functions:
            if name not in state:
                _reject_recursion(name, calls, state)


def _falls_through(block) -> bool:
    """Whether a block can reach its end, judged from its statements alone:
    a `return` cannot, nor an `if` with an `else` whose branches both
    cannot.  A `while` is taken to reach its end whatever its condition."""
    for s in block:
        if isinstance(s, Return) or (isinstance(s, If) and s.orelse is not None
                                     and not _falls_through(s.then)
                                     and not _falls_through(s.orelse)):
            return False
    return True


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


# The sort of a leaf by its type, and of a Unary or Binary operator's
# result and operands.
_LEAF_SORT = {IntLit: "int", Var: "int", Nondet: "int", BoolLit: "bool"}
_RESULT_SORT = {**dict.fromkeys(ARITH_OPS | {"neg"}, "int"),
                **dict.fromkeys(CMP_OPS | {"&&", "||", "not"}, "bool")}
_OPERAND_SORT = {**dict.fromkeys(ARITH_OPS | CMP_OPS | {"neg"}, "int"),
                 **dict.fromkeys({"&&", "||", "not"}, "bool")}


def _sort(e: Expr) -> str:
    """The sort of a well-sorted expression, read from its top node."""
    sort = _LEAF_SORT.get(type(e))
    return sort if sort is not None else _RESULT_SORT[e.op]


def parse_program(source: str) -> Program:
    return Parser(tokenize(source)).parse_program()


def parse_condition(source: str, varnames) -> Expr:
    """Parse a stand-alone condition over the given variable names."""
    parser = Parser(tokenize(source))
    parser.declared, parser.visible = set(varnames), set(varnames)
    cond = parser.parse_sorted("bool")
    if parser.peek().kind != "eof":
        parser.error("trailing input after condition")
    return cond
