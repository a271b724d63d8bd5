"""Worklist fixpoint over the interval domain.

One abstract state (a box over the function's variables) is kept before
and after every CFG node.  Loop heads join plainly for `widening_delay`
updates, then widen; after the ascending phase stabilizes, a bounded
number of descending passes narrows the infinite bounds back in.

The ascending worklist pops the pending node that comes first in
`cfg.rpo`, which puts every loop body before the loop's exit path, so a
loop is stabilized before the code after it sees its state: the
recursive iteration strategy of Bourdoncle 1993 ("Efficient chaotic
iteration strategies with widenings").  The worklist tests for
change with the join itself, which returns the old state exactly when
the edge state lies in it, and skips the successors of a node whose
transfer left its after state as it was.
After the first descending pass, a node is revisited only if one of its
predecessors' after states changed since its last visit (Bourdoncle
1993: a node whose inputs did not change cannot change).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import reduce

from .contractor import (_Code, classify_condition, contract_condition, eval_expr,
                         lower_condition)
from .interval import AbstractState, eval_cmp, interval_binop, and3, or3, TOP, Truth3
from .lang import (
    Assert,
    Assign,
    Assume,
    BRANCH_TRUE,
    Call,
    Cfg,
    Decl,
    Expr,
    free_vars,
    Program,
    Return,
    Skip,
    Var,
)


@dataclass(frozen=True)
class AnalysisConfig:
    widening_delay: int = 2
    narrowing_passes: int = 2
    interval_arith: bool = True
    use_contractors: bool = True

    def __post_init__(self):
        if self.widening_delay < 0 or self.narrowing_passes < 0:
            raise ValueError("widening_delay and narrowing_passes must be >= 0")


def eval_cond3(form, state: AbstractState, arith: bool = True) -> Truth3:
    """Three-valued evaluation of a lower_condition form."""
    if form is True or form is False:
        return Truth3.of(form)
    if type(form) is _Code:
        return eval_cmp(form.relation, eval_expr(form.lhs, state, arith),
                        eval_expr(form.rhs, state, arith))
    if isinstance(form, tuple):
        return reduce(or3, (eval_cond3(side, state, arith) for side in form))
    return reduce(and3, (eval_cond3(item, state, arith) for item in form))


def _simple_prune(form, state: AbstractState, arith: bool) -> AbstractState:
    """Contractor-free refinement by a lowered comparison other than !=:
    with x <rel> o, x lies in o + range; with o <rel> x, in o - range."""
    if type(form) is not _Code or form.required is None:
        return state
    for var_side, other, shift in ((form.lhs, form.rhs, "+"),
                                   (form.rhs, form.lhs, "-")):
        if not isinstance(var_side, Var):
            continue
        o = eval_expr(other, state, arith)
        if o.is_bottom:
            continue
        bound = interval_binop(shift, o, form.required)
        state = state.set(var_side.name, state.get(var_side.name).meet(bound))
        if state.is_bottom:
            return state
    return state


def transfer_assume(state: AbstractState, cond: Expr, polarity: bool = True,
                    config: AnalysisConfig = AnalysisConfig()) -> AbstractState:
    """Refine a state by a condition (or its negation)."""
    if state.is_bottom:
        return state
    form = lower_condition(cond, polarity, state)
    if config.use_contractors:
        return contract_condition(form, state)
    if eval_cond3(form, state, config.interval_arith) is Truth3.FALSE:
        return state.as_bottom()
    return _simple_prune(form, state, config.interval_arith)


def condition_verdict(cond: Expr, state: AbstractState,
                      config: AnalysisConfig = AnalysisConfig()) -> Truth3:
    """TRUE or FALSE when cond is shown to hold or to fail in every
    concrete state that state covers, MAYBE otherwise; by contraction or
    by plain evaluation of its lowered form, as config says."""
    if config.use_contractors:
        return classify_condition(cond, state).verdict
    return eval_cond3(lower_condition(cond, True, state), state, config.interval_arith)


def transfer_assign(state: AbstractState, target: str, rhs: Expr,
                    config: AnalysisConfig = AnalysisConfig()) -> AbstractState:
    if state.is_bottom:
        return state
    return state.set(target, eval_expr(rhs, state, config.interval_arith))


@dataclass
class AnalysisResult:
    before: "dict[int, AbstractState]"
    after: "dict[int, AbstractState]"
    iterations: int
    widened_nodes: "set[int]" = field(default_factory=set)


def _transfer_node(node, state: AbstractState, config: AnalysisConfig) -> AbstractState:
    # Entry, exit and condition nodes pass their state on unchanged.
    if state.is_bottom or node.kind != "stmt":
        return state
    stmt = node.stmt
    if isinstance(stmt, Assign):
        return transfer_assign(state, stmt.target, stmt.rhs, config)
    if isinstance(stmt, (Skip, Return, Assert)):
        # assert never refines: a violation must stay visible downstream
        return state
    if isinstance(stmt, Decl):
        if stmt.init is None:
            return state
        return transfer_assign(state, stmt.name, stmt.init, config)
    if isinstance(stmt, Assume):
        return transfer_assume(state, stmt.cond, True, config)
    if isinstance(stmt, Call):
        # Not context-aware: results from callees are unknown.
        if stmt.result is not None:
            return state.set(stmt.result, TOP)
        return state
    raise TypeError(stmt)


def _edge_state(node, after: AbstractState, label: str, config: AnalysisConfig) -> AbstractState:
    if node.kind == "cond":
        return transfer_assume(after, node.stmt.cond, label == BRANCH_TRUE, config)
    return after


def analyze(cfg: Cfg, init: AbstractState, config: AnalysisConfig = AnalysisConfig()) -> AnalysisResult:
    bottom = init.as_bottom()
    rpo = cfg.rpo
    rpo_index = {n: i for i, n in enumerate(rpo)}

    before = {n: bottom for n in cfg.nodes}
    after = {n: bottom for n in cfg.nodes}
    before[cfg.entry] = init
    init.forms.clear()  # each analysis compiles its conditions anew
    head_updates = {}
    widened = set()
    updates = 0

    # A transfer depends only on its input state, and a state equal to the
    # stored one is kept as that object, so a node's transfer is recomputed
    # only when before[n] changed.  An edge out of a condition reads and
    # refines only the condition's variables: it is recomputed only when
    # one of those changed since its last computation, and otherwise takes
    # that result's ranges for them and after[p]'s for the rest.
    reads = {n: [init.position(v) for v in free_vars(node.stmt.cond)]
             for n, node in cfg.nodes.items() if node.kind == "cond"}
    edges = {}  # (p, label) -> (after[p] it was computed from, edge state)

    def edge_state(p, label):
        state = after[p]
        if p not in reads:
            return state
        source, out = edges.get((p, label), (None, None))
        if source is state:
            return out
        if source is None or source.is_bottom or state.is_bottom or any(
                state.intervals[i] is not source.intervals[i]
                and state.intervals[i] != source.intervals[i] for i in reads[p]):
            out = _edge_state(cfg.nodes[p], state, label, config)
        elif not out.is_bottom:
            ivs = list(state.intervals)
            for i in reads[p]:
                ivs[i] = out.intervals[i]
            out = state.replaced(ivs)
        edges[p, label] = state, out
        return out

    def transfer(n) -> bool:
        """Recompute after[n]; whether it changed."""
        state = _transfer_node(cfg.nodes[n], before[n], config)
        # Every state of the analysis is over init's names.
        if state.intervals == after[n].intervals:
            return False
        after[n] = state
        return True

    # Ascending phase.  States only grow in it, and each edge state out of
    # n is joined into its target once computed, so a visit that leaves
    # after[n] as it was (and with it n's edge states) changes nothing.
    succs, loop_heads = cfg.succs, cfg.loop_heads
    pending = [(rpo_index[cfg.entry], cfg.entry)]
    queued = {cfg.entry}
    while pending:
        _, n = heapq.heappop(pending)
        queued.discard(n)
        if not transfer(n):
            continue
        for m, label in succs[n]:
            old = before[m]
            # The join is old itself exactly when the edge state lies in old.
            merged = old.join(edge_state(n, label) if n in reads else after[n])
            if merged is old:
                continue
            if m in loop_heads:
                head_updates[m] = head_updates.get(m, 0) + 1
                if head_updates[m] > config.widening_delay:
                    merged = old.widen(merged)
                    widened.add(m)
            before[m] = merged
            updates += 1
            if m not in queued:
                heapq.heappush(pending, (rpo_index[m], m))
                queued.add(m)

    # Descending phase: recover precision lost to widening.  The worklist
    # left every after[n] equal to the transfer of before[n], and each
    # narrowing visit keeps it so.  A visit sets before[n] to a function of
    # its predecessors' after states (narrow is idempotent on an unchanged
    # input), so after the first pass a node is visited again only if one
    # of those changed since its last visit.
    stale = set(rpo)
    stale.discard(cfg.entry)
    for _ in range(config.narrowing_passes):
        changed = False
        for n in rpo:
            if n not in stale:
                continue
            stale.discard(n)
            incoming = bottom
            for p, label in cfg.predecessors(n):
                incoming = incoming.join(edge_state(p, label))
            new = before[n].narrow(incoming) if n in loop_heads else incoming
            if new.intervals != before[n].intervals:
                before[n] = new
                changed = True
                if transfer(n):
                    stale.update(m for m, _ in succs[n])
        if not changed:
            break

    return AnalysisResult(before=before, after=after, iterations=updates,
                          widened_nodes=widened)


@dataclass
class FunctionAnalysis:
    cfg: Cfg
    result: AnalysisResult

    def state_before(self, stmt) -> "AbstractState | None":
        """The state before stmt's node, or None if stmt has no live node."""
        node = self.cfg.stmt_node.get(stmt.sid)
        if node is None:
            return None
        return self.result.before.get(node)


def initial_state(func) -> AbstractState:
    # Parameters are untracked across calls, so they start unknown.  Names
    # are sorted once here; every state of the analysis keeps this order.
    return AbstractState.top(sorted(func.variables))


def analyze_program(prog: Program, config: AnalysisConfig = AnalysisConfig()) -> "dict[str, FunctionAnalysis]":
    out = {}
    for name, fn in prog.functions.items():
        out[name] = FunctionAnalysis(fn.cfg, analyze(fn.cfg, initial_state(fn), config))
    return out


def check_post_fixpoint(cfg: Cfg, result: AnalysisResult, config: AnalysisConfig) -> bool:
    """One extra pass: transfer applied to the final states changes nothing."""
    for n, node in cfg.nodes.items():
        if _transfer_node(node, result.before[n], config) != result.after[n]:
            return False
        for m, label in cfg.successors(n):
            out = _edge_state(node, result.after[n], label, config)
            if not out.leq(result.before[m]):
                return False
    return True
