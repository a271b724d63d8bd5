import hashlib
import json
import pathlib
import random
import re

import pytest

from intana.fuzz import random_program
from intana.lang import (
    ARITH_OPS,
    BRANCH_FALSE,
    Binary,
    BoolLit,
    Call,
    CMP_OPS,
    Decl,
    IntLit,
    Nondet,
    ParseError,
    PRECEDENCE,
    Unary,
    Var,
    While,
    build_cfg,
    expr_to_source,
    free_vars,
    map_exprs,
    parse_condition,
    parse_program,
    program_nondets,
    program_to_source,
    stmt_exprs,
    walk_stmts,
)
from intana.lang.parser import tokenize
from intana.oracle import enumerate_executions

LOOP = """
fn main() {
    int i = 0;
    while (i < 10) {
        i = i + 1;
    }
}
"""


class TestParser:
    def test_basic_program(self):
        prog = parse_program(LOOP)
        body = prog.main.body
        assert isinstance(body[0], Decl) and body[0].name == "i"
        assert isinstance(body[1], While)
        assert prog.main.variables == ("i",)

    def test_operator_precedence(self):
        prog = parse_program("fn main() { int x = 1 + 2 * 3; }")
        init = prog.main.body[0].init
        assert isinstance(init, Binary) and init.op == "+"
        assert isinstance(init.right, Binary) and init.right.op == "*"

    def test_condition_connectives(self):
        prog = parse_program(
            "fn main() { int x = 0; if (x < 1 && x > -1 || !(x == 5)) { x = 1; } }")
        cond = prog.main.body[1].cond
        assert isinstance(cond, Binary) and cond.op == "||"
        assert cond.left.op == "&&"
        assert isinstance(cond.right, Unary) and cond.right.op == "not"

    def test_nondet_forms(self):
        prog = parse_program("fn main() { int a = nondet(); int b = nondet(-3, 3); }")
        a, b = prog.main.body
        assert isinstance(a.init, Nondet) and not a.init.bounded
        assert b.init == Nondet(-3, 3)

    def test_comments_ignored(self):
        prog = parse_program("fn main() { // nothing\n int x = 1; // init\n }")
        assert len(prog.main.body) == 1

    def test_calls(self):
        prog = parse_program("""
            fn f(a, b) { return a + b; }
            fn main() { int x = 1; x = f(x, 2); f(x, x); }
        """)
        value_call, plain_call = prog.main.body[1], prog.main.body[2]
        assert isinstance(value_call, Call) and value_call.result == "x"
        assert isinstance(plain_call, Call) and plain_call.result is None

    def test_long_chains_parse(self):
        # The parser recurses on nesting only, not on the length of a chain.
        def terms(e, op):
            n = 1
            while isinstance(e, Binary) and e.op == op:
                e, n = e.left, n + 1
            return n

        total = " + ".join(["x"] * 5000)
        conjunction = " && ".join(["x < 3"] * 3000)
        prog = parse_program("fn main() { int x = 1; x = %s; assert (%s); }"
                             % (total, conjunction))
        assert terms(prog.main.body[1].rhs, "+") == 5000
        assert terms(prog.main.body[2].cond, "&&") == 3000

    def test_sids_are_unique(self):
        prog = parse_program("""
            fn helper(p) { int h = 0; h = p; return h; }
            fn main() { int x = 1; if (x > 0) { x = 2; } while (x > 0) { x = x - 1; } }
        """)
        sids = [s.sid for fn in prog.functions.values() for s in walk_stmts(fn.body)]
        assert len(sids) == len(set(sids))
        assert all(sid >= 0 for sid in sids)


class TestParserErrors:
    @pytest.mark.parametrize("source,fragment", [
        ("fn main() { x = 1; }", "undeclared"),
        ("fn main() { int x = 1; int x = 2; }", "redeclaration"),
        ("fn main() { int a = nondet(3, 1); }", "bounds"),
        ("fn main() { int x = true; }", "int"),
        ("fn main() { if (1 + 2) { } }", "bool"),
        ("fn main() { int y; y = g(1); }", "g"),
        ("fn f(a) { return a; } fn main() { int y; y = f(1, 2); }", "argument"),
        ("fn f(a) { a = a; } fn main() { int y; y = f(1); }", "return"),
        ("fn f(a) { int y; y = f(a); return y; } fn main() { skip; }", "recursi"),
        ("fn main() { int x = ; }", "expression"),
    ])
    def test_rejected(self, source, fragment):
        with pytest.raises(ParseError) as err:
            parse_program(source)
        assert fragment.lower() in str(err.value).lower()

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse_program("fn main() {\n    y = 1;\n}")
        assert err.value.line == 2

    @pytest.mark.parametrize("source,message", [
        ("fn main() {\n    int y;\n    y = g(1);\n}",
         "3:9: call to undefined function 'g'"),
        ("fn f(a) { return a; }\nfn main() {\n    int y;\n    y = f(1, 2);\n}",
         "4:9: arity mismatch: f takes 1 arguments, got 2"),
        ("fn f(a) { a = a; }\nfn main() {\n    int y;\n      y = f(1);\n}",
         "4:11: function 'f' does not return a value"),
        ("fn f(a) {\n  if (a > 0) { return 1; }\n}\nfn main() {\n  int y;\n  y = f(1);\n}",
         "6:7: function 'f' can reach its end without returning a value"),
        ("fn f(a) { while (a > 0) { return a; } } fn main() { int y; y = f(1); }",
         "1:64: function 'f' can reach its end without returning a value"),
        ("fn f(a) { if (a > 0) { return 1; } else { a = 0; } }"
         " fn main() { int y; y = f(1); }",
         "1:77: function 'f' can reach its end without returning a value"),
        ("fn main() {\n  f(1);\n}\n", "2:3: call to undefined function 'f'"),
        ("fn f(a) {\n    int y;\n    y = g(a);\n    return y;\n}\n"
         "fn g(b) {\n  int z;\n  z = f(b);\n  return z;\n}\nfn main() { skip; }",
         "8:7: recursive call via 'f'"),
        ("fn main() {\n  int x = 0;\n  x = x + 1;\n",
         "4:1: expected a statement, found 'end of input'"),
        ("fn main() { int x = 0;\n  x = x +", "2:10: expected an expression, found 'end of input'"),
        ("fn main() { 5 x; x = 7; }", "1:13: expected a statement, found '5'"),
        ("fn main() { int x = 0; 5; }", "1:24: expected a statement, found '5'"),
        ("fn main() { int x = nondet(y, 3); }", "1:28: expected 'number', found 'y'"),
        # The lookahead past the last token reads end of input.
        ("fn main() { int x; x", "1:21: expected '=' or '(' after 'x'"),
        ("fn", "1:3: expected 'ident', found 'end of input'"),
        ("", "1:1: no entry function 'main'"),
        # A sort error is reported at the expression's first token, and only
        # once the whole expression has parsed; the first mismatch in
        # post-order wins.
        ("fn main() { int x = 1; if ((x < 1) + 2 < ) { x = 0; } }",
         "1:42: expected an expression, found ')'"),
        ("fn main() { int x = 1; x = 2 * (x + (x < 1 || x < 2)); }",
         "1:28: arithmetic operator '+' needs integer operands"),
        ("fn main() { int x = 1; x = (x < 1) + (x * true); }",
         "1:28: arithmetic operator '*' needs integer operands"),
        ("fn main() { int x = 1; assert (! ! - (x < 1) < 3); }",
         "1:32: operand of '-' must be int"),
        ("fn main() { int x = 1 < 2; }",
         "1:21: expected int expression, found bool expression"),
    ])
    def test_exact_message_and_position(self, source, message):
        with pytest.raises(ParseError) as err:
            parse_program(source)
        assert str(err.value) == message

    @pytest.mark.parametrize("source,message", [
        ("fn main() { int x = nondet(0, 1); if (x > 0) { int y = 1; } x = y; }",
         "1:65: use of 'y' outside the block that declares it"),
        ("fn main() {\n  int k = 0;\n  while (k < 2) { int t = k; k = k + 1; }\n  k = t;\n}",
         "4:7: use of 't' outside the block that declares it"),
        ("fn main() { int x = 0; if (x > 0) { skip; } else { int y = 1; } assert(y > 0); }",
         "1:72: use of 'y' outside the block that declares it"),
        ("fn main() { int x = 0; if (x > 0) { if (x > 1) { int y = 1; } x = y; } }",
         "1:67: use of 'y' outside the block that declares it"),
        ("fn f(a) { return a; } fn main() { int x = 0;"
         " while (x < 1) { int y = 1; x = 1; } f(y); }",
         "1:84: use of 'y' outside the block that declares it"),
        # A name is still unique in its function, whatever block declares it.
        ("fn main() { int x = 0; if (x > 0) { int y = 1; } else { int y = 2; } }",
         "1:61: redeclaration of 'y'"),
        ("fn main() { int x = 0; if (x > 0) { int y = 1; } int y = 2; }",
         "1:54: redeclaration of 'y'"),
    ])
    def test_reads_are_scoped_to_the_declaring_block(self, source, message):
        with pytest.raises(ParseError) as err:
            parse_program(source)
        assert str(err.value) == message

    @pytest.mark.parametrize("source,message", [
        ("fn main() { int x = nondet(0, 1); if (x > 0) { int y = 1; } y = 2; }",
         "1:61: use of 'y' outside the block that declares it"),
        ("fn main() {\n  int k = 0;\n  while (k < 2) { int t = k; k = k + 1; }\n  t = k;\n}",
         "4:3: use of 't' outside the block that declares it"),
        # A call's result store, checked before the call is parsed.
        ("fn f(a) { return a; } fn main() { int x = 0;"
         " if (x > 0) { int y = 1; } else { skip; } y = f(x); }",
         "1:87: use of 'y' outside the block that declares it"),
        ("fn main() { int x = 0; z = 1; }", "1:24: assignment to undeclared variable 'z'"),
    ])
    def test_writes_are_scoped_to_the_declaring_block(self, source, message):
        with pytest.raises(ParseError) as err:
            parse_program(source)
        assert str(err.value) == message

    def test_reads_within_the_declaring_block_are_accepted(self):
        prog = parse_program("""
            fn main() {
                int k = nondet(0, 2); int total = 0;
                while (k > 0) {
                    int t = k;
                    if (t > 1) { int u = t * 2; total = total + u; } else { total = total + t; }
                    k = k - 1;
                }
                if (total > 0) { int w; w = total; assert(w > 0); }
            }
        """)
        assert [r.env["total"] for r in enumerate_executions(prog)] == [0, 1, 5]

    def test_value_from_every_path_is_accepted(self):
        prog = parse_program("""
            fn sign(a) {
                if (a > 0) { return 1; } else { if (a < 0) { return -1; } else { return 0; } }
            }
            fn first(a) { while (a > 0) { return a; } return 0; }
            fn early(a) { return a; a = a + 1; }
            fn partial(a) { if (a > 0) { return 1; } }
            fn main() {
                int x = nondet(-1, 1); int y;
                y = sign(x); y = first(x); y = early(x); partial(x);
            }
        """)
        assert {r.env["y"] for r in enumerate_executions(prog)} == {-1, 0, 1}

    def test_unexpected_character_position(self):
        with pytest.raises(ParseError) as err:
            parse_condition("x >\n 1 &", ["x"])
        assert str(err.value) == "2:4: unexpected character '&'"
        assert (err.value.line, err.value.col) == (2, 4)

    def test_missing_main_rejected(self):
        with pytest.raises(ParseError):
            parse_program("fn helper(p) { return p; }")


# Each source's digest covers its own parse and that of 20 seeded one-token
# mutations of it, so syntax errors, sort errors and the order between them
# are pinned as well as the trees.  After an intended change to the trees
# or messages, regenerate the file with
#
#     PYTHONPATH=src python tests/test_lang.py
PARSER_GOLDEN = pathlib.Path(__file__).parent / "golden" / "parser_outputs.json"
CORPUS = pathlib.Path(__file__).parent.parent / "corpus"
FUZZ_SEEDS = range(300)
MUTANTS = 20
MUTANT_TOKENS = ["+", "-", "*", "/", "<", "==", "&&", "||", "!", "(", ")",
                 "true", "false", "x", "1", ";", "{", "}", "int", ","]


def _parse_outcome(source):
    """repr of the parsed functions, or the exact ParseError text."""
    try:
        return repr(parse_program(source).functions)
    except ParseError as err:
        return "ParseError: %s" % err


def _mutants(key, source):
    """Copies of source with one token of MUTANT_TOKENS inserted before, or
    put in place of, one of its tokens, chosen by a generator seeded by key."""
    rng = random.Random(key)
    tokens = tokenize(source)
    for _ in range(MUTANTS):
        tok = rng.choice(tokens)
        new = rng.choice(MUTANT_TOKENS)
        end = tok.offset + len(tok.text) if rng.random() < 0.5 else tok.offset
        yield "%s %s %s" % (source[:tok.offset], new, source[end:])


def parse_digest(key, source):
    outcomes = [_parse_outcome(s) for s in [source, *_mutants(key, source)]]
    return hashlib.sha256("\0".join(outcomes).encode()).hexdigest()


GOLDEN_KEYS = ([path.name for path in sorted(CORPUS.glob("*.mini"))]
               + ["fuzz-seed-%03d" % seed for seed in FUZZ_SEEDS])


def _golden_source(key):
    if key.startswith("fuzz-seed-"):
        return random_program(int(key[len("fuzz-seed-"):]))
    return (CORPUS / key).read_text()


@pytest.mark.parametrize("key", GOLDEN_KEYS)
def test_parse_matches_golden(key):
    golden = json.loads(PARSER_GOLDEN.read_text())
    assert parse_digest(key, _golden_source(key)) == golden[key]


# The tokenizer as first written: one match per whitespace run, comment or token.
_REFERENCE_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<symbol>==|!=|<=|>=|&&|\|\||[-+*/<>=!(){},;])
  | (?P<bad>.)
    """, re.VERBOSE)
_KEYWORDS = {"fn", "int", "if", "else", "while", "assert", "assume",
             "return", "skip", "nondet", "true", "false"}


def _reference_tokens(source):
    """(kind, text, offset) per token, or the (message, line, col) of the error."""
    tokens = []
    for m in _REFERENCE_TOKEN_RE.finditer(source):
        kind, text, offset = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            line = source.count("\n", 0, offset) + 1
            col = offset - source.rfind("\n", 0, offset)
            return ("unexpected character %r" % text, line, col)
        if kind == "symbol" or kind == "ident" and text in _KEYWORDS:
            kind = text
        if kind not in ("ws", "comment"):
            tokens.append((kind, text, offset))
    return tokens + [("eof", "", len(source))]


def _tokens(source):
    try:
        return [(tok.kind, tok.text, tok.offset) for tok in tokenize(source)]
    except ParseError as err:
        return (err.message, err.line, err.col)


class TestTokenizer:
    """One match per token, whitespace and comments included, gives the
    reference's tokens and errors."""

    EDGES = ["", " ", "\n\n", "//", "// only a comment", "x // to the end",
             "x  \n\t ", "a//b\n c", "/ /x", "///x\ny", "x\x1cy", "\x85x",
             "1 @ 2", "  #", "x$", "\x00", "\u0663\u0664 x", "caf\u00e9",
             "a\n//\n", "fn main() { int x = 1; }  // tail"]

    def test_corpus_and_fuzz_programs(self):
        sources = [path.read_text() for path in sorted(CORPUS.glob("*.mini"))]
        sources += [random_program(seed) for seed in range(100)]
        for source in sources:
            assert _tokens(source) == _reference_tokens(source)

    @pytest.mark.parametrize("source", EDGES)
    def test_edge_cases(self, source):
        assert _tokens(source) == _reference_tokens(source)

    def test_random_strings(self):
        rng = random.Random(0)
        alphabet = "ab_1 \n\t\x0b/=!<>&|(){},;-+*#@\u00e9"
        for _ in range(3000):
            source = "".join(rng.choice(alphabet) for _ in range(rng.randrange(24)))
            assert _tokens(source) == _reference_tokens(source), repr(source)

    def test_long_trailing_whitespace_and_comments(self):
        source = "fn main() { skip; }" + " \n" * 50_000 + "// c\n" * 5_000
        assert _tokens(source) == _reference_tokens(source)


class TestLocals:
    def test_declarations_in_source_order(self):
        prog = parse_program("""
            fn main(p) {
                int a = 0;
                if (a < p) { int b = 1; while (b < 3) { int c = b; b = b + 1; } }
                else { int d = 2; }
                int e;
                while (a < 2) { int f = a; a = a + 1; }
            }
        """)
        assert prog.main.locals == ("a", "b", "c", "d", "e", "f")
        assert prog.main.variables == ("p", "a", "b", "c", "d", "e", "f")


class TestParseCondition:
    def test_standalone_condition(self):
        cond = parse_condition("x + y == 5", ["x", "y"])
        assert isinstance(cond, Binary) and cond.op == "=="
        assert free_vars(cond) == frozenset({"x", "y"})

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_condition("x < z", ["x", "y"])


class TestPretty:
    @pytest.mark.parametrize("source", [
        "fn main() {\n    int x = 1 + 2 * 3;\n}\n",
        "fn main() {\n    int x = (1 + 2) * 3;\n}\n",
        "fn main() {\n    int x = 1 - (2 - 3);\n}\n",
        "fn main() {\n    int x = 0;\n    x = -(-x);\n}\n",
        "fn main() {\n    int x = 0;\n    if (!(x < 5) || x == 7 && x > 2) {\n        skip;\n    }\n}\n",
        "fn main() {\n    int x = nondet(-2, 2);\n    while (x < 2) {\n        x = x + 1;\n    }\n}\n",
    ])
    def test_round_trip_is_stable(self, source):
        once = program_to_source(parse_program(source))
        twice = program_to_source(parse_program(once))
        assert once == twice

    def test_expr_precedence_minimal_parens(self):
        e = Binary("*", Binary("+", Var("a"), IntLit(1)), Var("b"))
        assert expr_to_source(e) == "(a + 1) * b"
        e = Binary("+", Var("a"), Binary("*", IntLit(1), Var("b")))
        assert expr_to_source(e) == "a + 1 * b"

    def test_not_operand_parenthesized(self):
        e = Unary("not", Binary("<", Var("a"), IntLit(5)))
        assert expr_to_source(e) == "!(a < 5)"

    @pytest.mark.parametrize("outer", sorted(PRECEDENCE))
    def test_operator_pairs_round_trip(self, outer):
        def sort(op):
            return "int" if op in ARITH_OPS else "bool"

        def operand_sort(op):
            return "int" if op in ARITH_OPS or op in CMP_OPS else "bool"

        leaves = {"int": (Var("a"), Var("b"), Var("c")),
                  "bool": (BoolLit(True), BoolLit(False), BoolLit(True))}
        unary = {"int": "neg", "bool": "not"}

        def reparse(e, expr_sort):
            text = expr_to_source(e)
            if expr_sort == "bool":
                return parse_condition(text, ["a", "b", "c"])
            return parse_program("fn main(a, b, c) { int r = %s; }" % text).main.body[0].init

        want = operand_sort(outer)
        x, y, z = leaves[want]
        trees = [Binary(outer, Unary(unary[want], x), y),
                 Binary(outer, x, Unary(unary[want], y))]
        for inner in PRECEDENCE:
            if sort(inner) != want:
                continue
            p, q, _ = leaves[operand_sort(inner)]
            pair = Binary(inner, p, q)
            trees += [Binary(outer, pair, z), Binary(outer, z, pair)]
        for tree in trees:
            assert reparse(tree, sort(outer)) == tree, expr_to_source(tree)
            over = Unary(unary[sort(outer)], tree)
            assert reparse(over, sort(outer)) == over, expr_to_source(over)


class TestStmtExprs:
    SOURCE = """
        fn f(p, q) { int h; h = p * q; return h + 1; }
        fn g() { skip; }
        fn main() {
            int x = nondet(0, 3);
            int y;
            y = x - 2;
            assume(x > 0 && y < 5);
            assert(!(x == y));
            if (x < y) { y = 1; } else { skip; }
            while (y > 0) { y = y - 1; }
            f(x, y + 1);
            y = f(-x, 2);
            g();
        }
    """

    def test_every_statement_kind(self):
        prog = parse_program(self.SOURCE)
        listed = {fname: [(type(s).__name__, [expr_to_source(e) for e in stmt_exprs(s)])
                          for s in walk_stmts(fn.body)]
                  for fname, fn in prog.functions.items()}
        assert listed == {
            "f": [("Decl", []), ("Assign", ["p * q"]), ("Return", ["h + 1"])],
            "g": [("Skip", [])],
            "main": [("Decl", ["nondet(0, 3)"]), ("Decl", []), ("Assign", ["x - 2"]),
                     ("Assume", ["x > 0 && y < 5"]), ("Assert", ["!(x == y)"]),
                     ("If", ["x < y"]), ("Assign", ["1"]), ("Skip", []),
                     ("While", ["y > 0"]), ("Assign", ["y - 1"]),
                     ("Call", ["x", "y + 1"]), ("Call", ["-x", "2"]), ("Call", [])],
        }

    def test_matches_what_map_exprs_visits(self):
        sources = [self.SOURCE] + [path.read_text() for path in sorted(CORPUS.glob("*.mini"))]
        sources += [random_program(seed) for seed in range(100)]
        for source in sources:
            for fn in parse_program(source).functions.values():
                for s in walk_stmts(fn.body):
                    visited = []
                    map_exprs(s, lambda e: visited.append(e) or e)
                    assert stmt_exprs(s) == visited
                    assert all(a is b for a, b in zip(stmt_exprs(s), visited))

    def test_program_nondets(self):
        prog = parse_program(self.SOURCE + "fn h() { int z = nondet(); z = nondet(-1, 1); }")
        assert list(program_nondets(prog)) == [Nondet(0, 3), Nondet(None, None),
                                               Nondet(-1, 1)]


class TestCfg:
    def test_loop_shape(self):
        prog = parse_program(LOOP)
        cfg = build_cfg(prog.main)
        assert len(cfg.loop_heads) == 1
        head = next(iter(cfg.loop_heads))
        assert cfg.nodes[head].kind == "cond"
        labels = sorted(label for _, label in cfg.successors(head))
        assert labels == ["branch-false", "branch-true"]

    def test_if_has_two_branches(self):
        prog = parse_program(
            "fn main() { int x = 0; if (x < 1) { x = 1; } else { x = 2; } x = 3; }")
        cfg = build_cfg(prog.main)
        conds = [n for n in cfg.nodes.values() if n.kind == "cond"]
        assert len(conds) == 1 and not cfg.loop_heads

    def test_statements_map_to_nodes(self):
        prog = parse_program(LOOP)
        cfg = build_cfg(prog.main)
        for stmt in walk_stmts(prog.main.body):
            assert stmt.sid in cfg.stmt_node

    def test_code_after_return_is_pruned(self):
        prog = parse_program(
            "fn f(a) { return a; int d = 1; } fn main() { int y; y = f(1); }")
        cfg = build_cfg(prog.functions["f"])
        kinds = [n.kind for n in cfg.nodes.values()]
        assert kinds.count("stmt") == 1  # only the return remains

    def test_pruned_nodes_leave_no_edges_or_order(self):
        prog = parse_program(
            "fn f(a) { while (a < 3) { a = a + 1; } return a; int d = 1; }"
            " fn main() { int y; y = f(1); }")
        cfg = build_cfg(prog.functions["f"])
        preds = cfg.predecessors(cfg.exit)
        assert preds and all(p in cfg.nodes for p, _ in preds)
        assert cfg.rpo[0] == cfg.entry
        assert sorted(cfg.rpo) == sorted(cfg.nodes)

    def test_reverse_postorder_starts_at_entry(self):
        prog = parse_program(LOOP)
        cfg = build_cfg(prog.main)
        order = cfg.rpo
        assert order[0] == cfg.entry
        assert set(order) == set(cfg.nodes)

    LOOP_PLACES = {
        "nested": """fn main() { int i = 0; int j;
            while (i < 3) { j = 0; while (j < 2) { j = j + 1; } i = i + 1; }
            i = 7; }""",
        "in-then": """fn main() { int x = nondet(0, 2);
            if (x > 0) { while (x < 5) { x = x + 1; } } else { x = 1; } x = x - 1; }""",
        "in-else": """fn main() { int x = nondet(0, 2);
            if (x > 0) { x = 1; } else { while (x < 5) { x = x + 1; } } x = x - 1; }""",
        "return-in-body": """fn g(x) {
            while (x < 5) { if (x == 3) { return x; } x = x + 1; } x = 9; return x; }
            fn main() { int y; y = g(0); }""",
        "last-statement": """fn main() { int i = 0; int j;
            while (i < 3) { i = i + 1; j = 0; while (j < i) { j = j + 1; } } }""",
        "in-callee": """fn f(a) { int s = 0; while (a > 0) { s = s + a; a = a - 1; } return s; }
            fn main() { int y; y = f(3); y = y + 1; }""",
        "empty-body": "fn main() { int x = nondet(0, 1); while (x > 5) { } x = 2; }",
    }

    @staticmethod
    def loop_orders(fn):
        """Per `while` of fn, the reverse-postorder positions of its body
        nodes and of the nodes its exit edge reaches along forward edges.

        Loops are found in the AST, not from the CFG's search: a back edge
        enters a `while` condition from the condition or its own body.  An
        exit edge that is itself a back edge (the loop ends an outer
        loop's body) reaches nothing forward.
        """
        cfg = build_cfg(fn)
        position = {n: k for k, n in enumerate(cfg.rpo)}
        loops = {}
        for s in walk_stmts(fn.body):
            if isinstance(s, While) and s.sid in cfg.stmt_node:
                body = {cfg.stmt_node[b.sid] for b in walk_stmts(s.body)
                        if b.sid in cfg.stmt_node}
                loops[cfg.stmt_node[s.sid]] = body
        back = {(u, h) for h, body in loops.items() for u in body | {h}}
        orders = []
        for head, body in loops.items():
            reached = set()
            todo = [m for m, label in cfg.successors(head)
                    if label == BRANCH_FALSE and (head, m) not in back]
            while todo:
                n = todo.pop()
                if n not in reached:
                    reached.add(n)
                    todo += [m for m, _ in cfg.successors(n) if (n, m) not in back]
            assert not reached & (body | {head})
            orders.append(([position[n] for n in body], [position[n] for n in reached]))
        return orders

    def assert_bodies_before_exits(self, source) -> int:
        """Every loop's body precedes all its exit edge reaches in cfg.rpo;
        returns how many loops had a body and a forward exit path."""
        checked = 0
        for fn in parse_program(source).functions.values():
            for body, reached in self.loop_orders(fn):
                if body and reached:
                    assert max(body) < min(reached), fn.name
                    checked += 1
        return checked

    @pytest.mark.parametrize("place", sorted(LOOP_PLACES))
    def test_loop_body_before_exit_path(self, place):
        expected = {"nested": 2, "last-statement": 1, "empty-body": 0}.get(place, 1)
        assert self.assert_bodies_before_exits(self.LOOP_PLACES[place]) == expected

    def test_loop_body_before_exit_path_on_corpus_and_fuzz(self):
        sources = [path.read_text() for path in sorted(CORPUS.glob("*.mini"))]
        sources += [random_program(seed) for seed in range(300)]
        assert sum(map(self.assert_bodies_before_exits, sources)) >= 200


if __name__ == "__main__":
    table = {key: parse_digest(key, _golden_source(key)) for key in GOLDEN_KEYS}
    PARSER_GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print("wrote %d digests to %s" % (len(table), PARSER_GOLDEN))
