"""Mini imperative language: AST, parser, pretty printer, CFG."""

from .ast import (
    ARITH_OPS,
    Assert,
    Assign,
    Assume,
    Binary,
    BoolLit,
    Call,
    CMP_OPS,
    CONCRETE,
    Decl,
    Expr,
    FALSE,
    fold,
    free_vars,
    Function,
    If,
    IntLit,
    map_block,
    map_children,
    map_exprs,
    map_program,
    Nondet,
    PRECEDENCE,
    Program,
    program_nondets,
    Return,
    Skip,
    Stmt,
    stmt_exprs,
    subexprs,
    TRUE,
    Unary,
    Var,
    walk_stmts,
    While,
)
from .cfg import BRANCH_FALSE, BRANCH_TRUE, build_cfg, Cfg, FALLTHROUGH, Node
from .parser import MAX_NESTING, parse_condition, parse_program, ParseError
from .pretty import expr_to_source, function_to_source, program_to_source

__all__ = [name for name in dir() if not name.startswith("_")]
