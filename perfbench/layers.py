"""Traced runs: spans and counters recorded around each intana layer.

The tracer wraps public functions of each layer from outside the
package.  A wrapped function is replaced in every `intana` module that
binds it (for example `contract_condition` in both `intana.contractor`
and `intana.absint`), so calls made through any import path are seen.
Spans are kept in memory as (name, start, end, parent, request) and the
per-layer metrics are computed from them after the traced pass.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (metric, unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = (
    ("parser.time_s", "s", "lower", "latency_p50_ms on fuzz-check"),
    ("parser.calls", "count", "lower", "latency_p50_ms on fuzz-check"),
    ("parser.tokens_per_s", "1/s", "higher", "latency_p50_ms on fuzz-check"),
    ("cfg.time_s", "s", "lower", "latency_p50_ms on fuzz-check"),
    ("cfg.calls", "count", "lower", "latency_p50_ms on fuzz-check"),
    ("cfg.nodes", "count", "lower", "latency_p50_ms on fuzz-check"),
    ("pretty.time_s", "s", "lower", "latency_p50_ms on scale-rewrite"),
    ("cli.self_s", "s", "lower", "latency_p50_ms on fuzz-check"),
    ("absint.self_s", "s", "lower",
     "largest_program_s and growth_exponent on scale-rewrite; programs_per_s on fuzz-check"),
    ("absint.calls", "count", "lower",
     "largest_program_s on scale-rewrite; programs_per_s on fuzz-check"),
    ("absint.worklist_updates", "count", "lower",
     "largest_program_s and growth_exponent on scale-rewrite"),
    ("absint.widened_heads", "count", "lower", "largest_program_s on scale-rewrite"),
    ("contractor.time_s", "s", "lower", "largest_program_s on scale-rewrite"),
    ("contractor.calls", "count", "lower", "largest_program_s on scale-rewrite"),
    ("contractor.hc4_revise_calls", "count", "lower", "largest_program_s on scale-rewrite"),
    ("contractor.contracting_ratio", "ratio", "higher", "largest_program_s on scale-rewrite"),
    ("optimize.singleton_propagate_s", "s", "lower", "largest_program_s on scale-rewrite"),
    ("optimize.guard_eliminate_s", "s", "lower", "largest_program_s on scale-rewrite"),
    ("optimize.const_fold_s", "s", "lower", "largest_program_s on scale-rewrite"),
    ("optimize.guards_eliminated", "count", "higher", "largest_program_s on scale-rewrite"),
    ("optimize.guard_resolution_ratio", "ratio", "higher", "largest_program_s on scale-rewrite"),
    ("instrument.time_s", "s", "lower", "largest_program_s on scale-rewrite"),
    ("instrument.points", "count", "higher", "largest_program_s on scale-rewrite"),
    ("oracle.enumerate_s", "s", "lower", "programs_per_s and latency_p50_ms on oracle-enum"),
    ("oracle.enumerations", "count", "lower", "programs_per_s on oracle-enum"),
    ("oracle.executions", "count", "lower", "programs_per_s on oracle-enum"),
    ("oracle.executions_per_s", "1/s", "higher", "programs_per_s on oracle-enum"),
    ("oracle.trace_points", "count", "lower", "peak_rss_mb on oracle-enum"),
    ("oracle.soundness_s", "s", "lower", "latency_p50_ms on oracle-enum"),
    ("oracle.equivalence_s", "s", "lower", "latency_p50_ms on oracle-enum"),
    ("oracle.step_limit_hits", "count", "lower",
     "must stay 0: a truncated check would read as a fast one"),
    ("trace.overhead_s", "s", "lower",
     "none: traced pass time minus untraced pass time"),
)


def _box_shrank(before, after) -> bool:
    return after != before and all(after[v].leq(before[v]) for v in before)


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.spans: "list[tuple | None]" = []
        self.stack: "list[tuple[int, str]]" = []
        self.request = None
        self.counts: "Counter[str]" = Counter()
        self.fired: "Counter[str]" = Counter()

    def _outermost(self, layer: str) -> bool:
        return all(open_layer != layer for _, open_layer in self.stack)

    def span(self, name: str, fn, after=None):
        layer = name.split(".", 1)[0]
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.fired[name] += 1
            outer = tracer._outermost(layer)
            parent = tracer.stack[-1][0] if tracer.stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append((idx, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.request)
            if after is not None:
                after(tracer, outer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Count calls without a span, for functions called per constraint."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.fired[name] += 1
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- metrics -------------------------------------------------------------

    def _outer_time(self, match) -> float:
        """Time inside spans whose name matches, not counting nested matches twice."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if not match(name):
                continue
            while parent >= 0 and not match(self.spans[parent][0]):
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def _self_times(self) -> "Counter[str]":
        """Per span name: duration minus the time of its direct children."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        own: "Counter[str]" = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            own[name] += end - start - inner
        return own

    def metrics(self) -> "dict[str, float]":
        own = self._self_times()
        c = self.counts

        def inc(span_name):
            return self._outer_time(lambda name: name == span_name)

        def layer_inclusive(layer):
            return self._outer_time(lambda name: name.startswith(layer + "."))

        def layer_self(layer):
            return sum(v for k, v in own.items() if k.startswith(layer + "."))

        parse_s = inc("parser.parse_program")
        classified = self.fired["contractor.classify_condition"]
        enum_s = inc("oracle.enumerate_executions")
        return {
            "parser.time_s": parse_s,
            "parser.calls": self.fired["parser.parse_program"],
            "parser.tokens_per_s": c["parser.tokens"] / parse_s if parse_s else 0.0,
            "cfg.time_s": layer_inclusive("cfg"),
            "cfg.calls": self.fired["cfg.build_cfg"],
            "cfg.nodes": c["cfg.nodes"],
            "pretty.time_s": layer_inclusive("pretty"),
            "cli.self_s": own["cli.main"],
            "absint.self_s": layer_self("absint"),
            "absint.calls": self.fired["absint.analyze_program"],
            "absint.worklist_updates": c["absint.worklist_updates"],
            "absint.widened_heads": c["absint.widened_heads"],
            "contractor.time_s": layer_inclusive("contractor"),
            "contractor.calls": c["contractor.calls"],
            "contractor.hc4_revise_calls": c["contractor.hc4_revise_calls"],
            "contractor.contracting_ratio": (c["contractor.contracting"] / c["contractor.calls"]
                                             if c["contractor.calls"] else 0.0),
            "optimize.singleton_propagate_s": inc("optimize.singleton_propagate"),
            "optimize.guard_eliminate_s": own["optimize.guard_eliminate"],
            "optimize.const_fold_s": inc("optimize.const_fold"),
            "optimize.guards_eliminated": c["optimize.guards_eliminated"],
            "optimize.guard_resolution_ratio": (c["optimize.guards_eliminated"] / classified
                                                if classified else 0.0),
            "instrument.time_s": inc("instrument.instrument_program"),
            "instrument.points": c["instrument.points"],
            "oracle.enumerate_s": enum_s,
            "oracle.enumerations": self.fired["oracle.enumerate_executions"],
            "oracle.executions": c["oracle.executions"],
            "oracle.executions_per_s": c["oracle.executions"] / enum_s if enum_s else 0.0,
            "oracle.trace_points": c["oracle.trace_points"],
            "oracle.soundness_s": own["oracle.check_soundness"],
            "oracle.equivalence_s": own["oracle.check_equivalence"],
            "oracle.step_limit_hits": c["oracle.step_limit_hits"],
        }

    def dump(self) -> "list[dict]":
        return [{"name": n, "start": s, "end": e, "parent": p, "request": r}
                for n, s, e, p, r in self.spans]


# --- what each wrapper records ------------------------------------------------

def _count_tokens(t, outer, args, tokens):
    t.counts["parser.tokens"] += len(tokens)


def _count_cfg(t, outer, args, cfg):
    t.counts["cfg.nodes"] += len(cfg.nodes)


def _count_analyze(t, outer, args, result):
    t.counts["absint.worklist_updates"] += result.iterations
    t.counts["absint.widened_heads"] += len(result.widened_nodes)


def _count_contract(t, outer, args, box_out):
    if outer:
        t.counts["contractor.calls"] += 1
        t.counts["contractor.contracting"] += _box_shrank(args[1], box_out)


def _count_classify(t, outer, args, cls):
    if outer:
        t.counts["contractor.calls"] += 1
        t.counts["contractor.contracting"] += (_box_shrank(args[1], cls.box_in)
                                               or _box_shrank(args[1], cls.box_out))


def _count_guards(t, outer, args, result):
    t.counts["optimize.guards_eliminated"] += result[1].guards_eliminated


def _count_points(t, outer, args, result):
    t.counts["instrument.points"] += len(result[1])


def _count_enumeration(t, outer, args, executions):
    t.counts["oracle.executions"] += len(executions)
    t.counts["oracle.trace_points"] += sum(len(s.trace) for s in executions)
    t.counts["oracle.step_limit_hits"] += sum(s.verdict == "step-limit" for s in executions)


COUNT_ONLY = "count-only"

# (layer, module, attribute, span or counter name, recorder or COUNT_ONLY)
WRAPPERS = (
    ("cli", "intana.cli", "main", "cli.main", None),
    ("parser", "intana.lang.parser", "parse_program", "parser.parse_program", None),
    ("parser", "intana.lang.parser", "tokenize", "parser.tokenize", _count_tokens),
    ("cfg", "intana.lang.cfg", "build_cfg", "cfg.build_cfg", _count_cfg),
    ("pretty", "intana.lang.pretty", "program_to_source", "pretty.program_to_source", None),
    ("pretty", "intana.lang.pretty", "expr_to_source", "pretty.expr_to_source", None),
    ("pretty", "intana.lang.cfg", "Node.describe", "pretty.describe", None),
    ("absint", "intana.absint", "analyze_program", "absint.analyze_program", None),
    ("absint", "intana.absint", "analyze", "absint.analyze", _count_analyze),
    ("contractor", "intana.contractor", "contract_condition",
     "contractor.contract_condition", _count_contract),
    ("contractor", "intana.contractor", "classify_condition",
     "contractor.classify_condition", _count_classify),
    ("contractor", "intana.contractor", "hc4_revise", "contractor.hc4_revise_calls",
     COUNT_ONLY),
    ("optimize", "intana.optimize", "singleton_propagate", "optimize.singleton_propagate", None),
    ("optimize", "intana.optimize", "guard_eliminate", "optimize.guard_eliminate", _count_guards),
    ("optimize", "intana.optimize", "const_fold", "optimize.const_fold", None),
    ("instrument", "intana.instrument", "instrument_program", "instrument.instrument_program",
     _count_points),
    ("oracle", "intana.oracle", "enumerate_executions", "oracle.enumerate_executions",
     _count_enumeration),
    ("oracle", "intana.oracle", "check_soundness", "oracle.check_soundness", None),
    ("oracle", "intana.oracle", "check_equivalence", "oracle.check_equivalence", None),
)

class Installed:
    """Wrappers for the given layers, patched into every binding module."""

    def __init__(self, tracer: Tracer, layers):
        self.tracer = tracer
        self.patches: "list[tuple[object, str, object]]" = []
        self.names: "list[str]" = []
        intana_modules = [module for name, module in sys.modules.items()
                          if name == "intana" or name.startswith("intana.")]
        for layer, module_name, attr, name, after in WRAPPERS:
            if layer not in layers:
                continue
            owner = sys.modules[module_name]
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = vars(owner)[attr]
            wrapper = (tracer.counter(name, original) if after == COUNT_ONLY
                       else tracer.span(name, original, after))
            self.names.append(name)
            for holder in [owner] if cls_name else intana_modules:
                for bound, value in list(vars(holder).items()):
                    if value is original:
                        self.patches.append((holder, bound, original))
                        setattr(holder, bound, wrapper)

    def silent(self) -> "list[str]":
        """Wrappers that never fired; each one is an error."""
        return [n for n in self.names if not self.tracer.fired[n]]

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
