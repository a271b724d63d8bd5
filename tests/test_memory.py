"""intana's objects form no reference cycles.

Reference counting alone then frees everything a pipeline leaves behind,
which is what lets `intana.cli.main` run a command with the cyclic
collector paused.  With the collector off, running the library pipeline
must leave nothing for `gc.collect()` to find.
"""

import collections
import gc
import pathlib

import intana.oracle
from intana.absint import AnalysisConfig, analyze_program
from intana.contractor import contract_fixpoint, lower_comparison, parse_box
from intana.fuzz import random_constraint_box, random_program
from intana.instrument import instrument_program
from intana.interval import Interval
from intana.lang import parse_condition, parse_program
from intana.optimize import optimize_program
from intana.oracle import OK, STEP_LIMIT, check_equivalence, check_soundness

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"
LOOP_FOREVER = "fn main() { int i = nondet(0, 2); while (i >= 0) { i = i + 1; } }"
# Enough steps per CFG node that every enumeration of it switches to tier 1,
# with runs that fail an assertion and divide by zero.
HEAVY = """
fn twice(v) { int w = 0; while (w < 2) { w = w + 1; } return v * w; }
fn main() { int x = nondet(0, 199); int y; y = twice(x); assert(y < 390);
    int q; q = 10 / (x - 7); }
"""


def _pipeline(source: str, config: AnalysisConfig, verdicts, step_limit=10_000):
    prog = parse_program(source)
    optimized, _, analyses = optimize_program(prog, config)
    instrumented, _ = instrument_program(prog, analyses, config)
    runs = []
    check_soundness(prog, analyses, step_limit=step_limit, runs=runs)
    for rewritten in (optimized, instrumented):
        check_equivalence(prog, rewritten, step_limit=step_limit, executions=runs)
    verdicts.update(run.verdict for run in runs)


def test_library_pipeline_leaves_no_cyclic_garbage(monkeypatch):
    sources = [path.read_text() for path in sorted(CORPUS.glob("*.mini"))]
    sources += [random_program(seed) for seed in range(30)]
    configs = [AnalysisConfig(), AnalysisConfig(use_contractors=False),
               AnalysisConfig(interval_arith=False)]
    verdicts = collections.Counter()
    tiers = []
    compile_tier = intana.oracle._tier_up

    def counted(tier0):
        tier = compile_tier(tier0)
        tiers.append(tier is not None)
        return tier
    monkeypatch.setattr(intana.oracle, "_tier_up", counted)
    # One wrong analysis state, so that tier 1 hands executions back to tier 0.
    heavy = parse_program(HEAVY)
    wrong = analyze_program(heavy, AnalysisConfig())
    main = wrong["main"]
    victim = main.cfg.stmt_node[heavy.main.body[2].sid]
    main.result.before[victim] = main.result.before[victim].set("x", Interval(0, 0))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for config in configs:
            for source in sources:
                _pipeline(source, config, verdicts)
        _pipeline(LOOP_FOREVER, AnalysisConfig(), verdicts, step_limit=50)
        _pipeline(HEAVY, AnalysisConfig(), verdicts)
        assert len(check_soundness(heavy, wrong)) == 199
        for seed in range(30):
            constraint, box, _ = random_constraint_box(seed)
            code = lower_comparison(parse_condition(constraint, list(box)), box)
            contract_fixpoint([code], box)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    # Runs that halt (an assertion, an assumption, a division by zero, the
    # step limit) unwind through exceptions, which must leave nothing either.
    assert verdicts[STEP_LIMIT] and verdicts[OK]
    assert len(verdicts) >= 4
    assert tiers.count(True) == 4


# Every run passes the step limit once tier 1 runs it: in a callee when k
# is large, and in the entry function otherwise.
PAST_THE_LIMIT = """
fn spin(n) { int i = 0; while (i >= 0) { i = i + n; } return i; }
fn main() { int k = nondet(0, 99); int r; if (k > 50) { r = spin(k); }
    while (k >= 0) { k = k + 1; } }
"""


def test_tier1_executions_that_go_back_to_tier0_leave_no_cyclic_garbage():
    prog = parse_program(PAST_THE_LIMIT)
    analyses = analyze_program(prog, AnalysisConfig())
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        runs = intana.oracle.enumerate_executions(prog, step_limit=300, record_trace=False)
        assert check_soundness(prog, analyses, step_limit=300) == []
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert {run.verdict for run in runs} == {STEP_LIMIT}
    assert {run.verdict_node[0] for run in runs} == {"main", "spin"}
