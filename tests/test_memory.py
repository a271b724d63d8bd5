"""intana's objects form no reference cycles.

Reference counting alone then frees everything a pipeline leaves behind,
which is what lets `intana.cli.main` run a command with the cyclic
collector paused.  With the collector off, running the library pipeline
must leave nothing for `gc.collect()` to find.
"""

import collections
import gc
import pathlib

from intana.absint import AnalysisConfig
from intana.contractor import contract_fixpoint, lower_comparison, parse_box
from intana.fuzz import random_constraint_box, random_program
from intana.instrument import instrument_program
from intana.lang import parse_condition, parse_program
from intana.optimize import optimize_program
from intana.oracle import OK, STEP_LIMIT, check_equivalence, check_soundness

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"
LOOP_FOREVER = "fn main() { int i = nondet(0, 2); while (i >= 0) { i = i + 1; } }"


def _pipeline(source: str, config: AnalysisConfig, verdicts, step_limit=10_000):
    prog = parse_program(source)
    optimized, _, analyses = optimize_program(prog, config)
    instrumented, _ = instrument_program(prog, analyses, config)
    runs = []
    check_soundness(prog, analyses, step_limit=step_limit, runs=runs)
    for rewritten in (optimized, instrumented):
        check_equivalence(prog, rewritten, step_limit=step_limit, executions=runs)
    verdicts.update(run.verdict for run in runs)


def test_library_pipeline_leaves_no_cyclic_garbage():
    sources = [path.read_text() for path in sorted(CORPUS.glob("*.mini"))]
    sources += [random_program(seed) for seed in range(30)]
    configs = [AnalysisConfig(), AnalysisConfig(use_contractors=False),
               AnalysisConfig(interval_arith=False)]
    verdicts = collections.Counter()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for config in configs:
            for source in sources:
                _pipeline(source, config, verdicts)
        _pipeline(LOOP_FOREVER, AnalysisConfig(), verdicts, step_limit=50)
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
