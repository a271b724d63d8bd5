"""Interval-based static analysis for a mini imperative language.

Parses a small structured language, runs an interval abstract
interpretation with widening/narrowing and forward-backward contractors,
rewrites programs (singleton propagation, guard elimination, constant
folding), emits interval invariants as assume statements, and validates
everything against an exhaustive concrete-execution oracle.
"""

from .absint import (
    AbstractState,
    AnalysisConfig,
    AnalysisResult,
    analyze,
    analyze_program,
    eval_expr,
    transfer_assign,
    transfer_assume,
)
from .contractor import (
    Classification,
    classify_condition,
    contract_fixpoint,
    hc4_revise,
    lower_comparison,
    parse_box,
)
from .instrument import InstrumentationPoint, instrument_program, intervals_to_assume_expr
from .interval import BOTTOM, Interval, TOP, Truth3, eval_cmp, interval_binop
from .lang import parse_program, program_to_source
from .optimize import RewriteReport, const_fold, guard_eliminate, optimize_program, singleton_propagate
from .oracle import check_equivalence, check_soundness, enumerate_executions

__version__ = "0.1.0"
