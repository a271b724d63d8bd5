"""Control-flow graph construction for one function.

Structured statements are lowered to nodes and labeled edges; `while`
produces a back edge to its condition node.  One depth-first search from
the entry then drops the nodes it does not reach, and gives the loop
heads (the targets of its back edges) and the reverse postorder.  That
order puts every loop body before the loop's exit path, so the
analyzer's worklist stabilizes a loop before leaving it: Bourdoncle's
recursive iteration strategy (Bourdoncle 1993, "Efficient chaotic
iteration strategies with widenings").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import Function, If, Return, Stmt, While

FALLTHROUGH = "fallthrough"
BRANCH_TRUE = "branch-true"
BRANCH_FALSE = "branch-false"


@dataclass
class Node:
    id: int
    kind: str  # 'entry' | 'exit' | 'stmt' | 'cond'
    stmt: "Stmt | None" = None  # for a 'cond' node, the If or While

    def describe(self) -> str:
        from .pretty import expr_to_source, stmt_to_lines

        if self.kind == "entry":
            return "<entry>"
        if self.kind == "exit":
            return "<exit>"
        if self.kind == "cond":
            return "cond %s" % expr_to_source(self.stmt.cond)
        return next(iter(stmt_to_lines(self.stmt, 0)))


@dataclass
class Cfg:
    nodes: "dict[int, Node]" = field(default_factory=dict)
    entry: int = 0
    exit: int = 0
    loop_heads: "set[int]" = field(default_factory=set)
    # Reached node ids in reverse postorder, the entry first.
    rpo: "list[int]" = field(default_factory=list)
    # Statement sid -> node id (condition node for if/while).
    stmt_node: "dict[int, int]" = field(default_factory=dict)
    # (node, label) pairs in edge-creation order.
    succs: "dict[int, list[tuple[int, str]]]" = field(default_factory=dict)
    preds: "dict[int, list[tuple[int, str]]]" = field(default_factory=dict)

    def successors(self, n: int):
        return self.succs.get(n, [])

    def predecessors(self, n: int):
        return self.preds.get(n, [])


class _Builder:
    def __init__(self, func: Function):
        self.func = func
        self.cfg = Cfg()
        self.next_id = 0

    def new_node(self, kind, stmt=None) -> Node:
        node = Node(id=self.next_id, kind=kind, stmt=stmt)
        self.next_id += 1
        self.cfg.nodes[node.id] = node
        self.cfg.succs[node.id] = []
        self.cfg.preds[node.id] = []
        return node

    def edge(self, src: int, dst: int, label: str):
        self.cfg.succs[src].append((dst, label))
        self.cfg.preds[dst].append((src, label))

    def build(self) -> Cfg:
        entry = self.new_node("entry")
        exit_ = self.new_node("exit")
        self.cfg.entry = entry.id
        self.cfg.exit = exit_.id
        dangling = self.lower_block(self.func.body, [(entry.id, FALLTHROUGH)])
        self.connect(dangling, exit_.id)
        cfg = self.cfg
        postorder, cfg.loop_heads = _depth_first(cfg)
        cfg.rpo = postorder[::-1]
        reached = set(postorder)
        # A reached node's successors are reached; its predecessors need not be.
        cfg.nodes = {i: n for i, n in cfg.nodes.items() if i in reached}
        cfg.succs = {i: cfg.succs[i] for i in cfg.nodes}
        cfg.preds = {i: [(p, label) for p, label in cfg.preds[i] if p in reached]
                     for i in cfg.nodes}
        cfg.stmt_node = {sid: i for sid, i in cfg.stmt_node.items() if i in reached}
        return cfg

    def lower_block(self, block, incoming):
        """Lower a statement list; returns the dangling out-edges."""
        for stmt in block:
            incoming = self.lower_stmt(stmt, incoming)
        return incoming

    def connect(self, incoming, dst: int):
        for src, label in incoming:
            self.edge(src, dst, label)

    def place(self, kind: str, stmt: Stmt, incoming) -> int:
        """A new node for stmt, entered by the incoming edges."""
        node = self.new_node(kind, stmt=stmt)
        self.cfg.stmt_node[stmt.sid] = node.id
        self.connect(incoming, node.id)
        return node.id

    def lower_stmt(self, stmt: Stmt, incoming):
        if isinstance(stmt, If):
            cond = self.place("cond", stmt, incoming)
            return (self.lower_block(stmt.then, [(cond, BRANCH_TRUE)])
                    + self.lower_block(stmt.orelse or [], [(cond, BRANCH_FALSE)]))
        if isinstance(stmt, While):
            cond = self.place("cond", stmt, incoming)
            self.connect(self.lower_block(stmt.body, [(cond, BRANCH_TRUE)]), cond)
            return [(cond, BRANCH_FALSE)]
        node = self.place("stmt", stmt, incoming)
        if isinstance(stmt, Return):
            self.edge(node, self.cfg.exit, FALLTHROUGH)
            return []
        return [(node, FALLTHROUGH)]


def build_cfg(func: Function) -> Cfg:
    return _Builder(func).build()


def _depth_first(cfg: Cfg):
    """Depth-first search from the entry, successors in edge order except
    at a `while` condition, whose exit edge it takes before its body edge.

    Returns the postorder of the nodes it reaches and the targets of its
    back edges (edges to a node still on the search stack).  Taking the
    exit first puts the whole loop body before the loop's exit path in the
    reverse postorder, so a worklist popped in that order stabilizes each
    loop before the code after it sees its state (Bourdoncle 1993,
    "Efficient chaotic iteration strategies with widenings").  Iterative,
    so a long straight-line function does not exhaust Python's stack.
    """
    def successors(n):
        succs = cfg.successors(n)
        return reversed(succs) if isinstance(cfg.nodes[n].stmt, While) else iter(succs)

    postorder, heads = [], set()
    seen, on_stack = {cfg.entry}, {cfg.entry}
    stack = [(cfg.entry, successors(cfg.entry))]
    while stack:
        n, succs = stack[-1]
        for m, _ in succs:
            if m in on_stack:
                heads.add(m)
            elif m not in seen:
                seen.add(m)
                on_stack.add(m)
                stack.append((m, successors(m)))
                break
        else:
            stack.pop()
            on_stack.discard(n)
            postorder.append(n)
    return postorder, heads
