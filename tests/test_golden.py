"""Byte-identity of every command's output on the corpus and fuzz programs.

`golden/corpus_outputs.json` maps each corpus file, and each program that
`intana.fuzz.random_program` makes for seeds 0-29, to the sha256 of
stdout, stderr and exit code of each run below: `analyze`, `optimize` and
`instrument` in text and JSON, and `check`, under the default flags,
`--no-contractors`, `--no-interval-arith` and both of those.

`golden/wide_outputs.json` does the same for the WIDE programs below,
which have the shape of the benchmark's scale family (8 to 25 variables,
counted loops of `&&` guards) so that the fixpoint works on wide states:
`analyze` and `optimize` in JSON and `instrument` in text, under the
WIDE_CONFIGS flags, which vary the widening delay and the narrowing
passes as well.

`golden/oracle_traces.json` pins every execution, with its trace, that
the oracle enumerates for the corpus and fuzz programs, and
`golden/tier1_sources.json` pins the Python source tier 1 emits for the
same programs (or `refused`), without a monitor and under the soundness
monitor of the program's default analysis.

A change that must not alter any output keeps these tests green.  After
an intended output change, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

which prints each program and run whose digest it changed, so a re-pin
can be reviewed run by run.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from intana.absint import AnalysisConfig, analyze_program
from intana.cli import main
from intana.fuzz import random_program
from intana.lang import parse_program
from intana.oracle import (_Emitter, _Interpreter, _Refused, _SoundnessMonitor,
                           enumerate_executions)

HERE = pathlib.Path(__file__).parent
CORPUS = HERE.parent / "corpus"
GOLDEN = HERE / "golden" / "corpus_outputs.json"
WIDE_GOLDEN = HERE / "golden" / "wide_outputs.json"
TRACE_GOLDEN = HERE / "golden" / "oracle_traces.json"
TIER1_GOLDEN = HERE / "golden" / "tier1_sources.json"
FUZZ_SEEDS = range(30)
TRACE_STEP_LIMITS = (10_000, 30, 7)

CONFIGS = ([], ["--no-contractors"], ["--no-interval-arith"],
           ["--no-contractors", "--no-interval-arith"])
RUNS = [[cmd, "--format", fmt] + flags
        for flags in CONFIGS
        for cmd in ("analyze", "optimize", "instrument")
        for fmt in ("text", "json")] + [["check"] + flags for flags in CONFIGS]

WIDE_CONFIGS = ([], ["--no-contractors"], ["--no-interval-arith"],
                ["--narrowing-passes", "0"], ["--narrowing-passes", "1"],
                ["--narrowing-passes", "5"], ["--widening-delay", "0"])
WIDE_RUNS = [run + flags
             for flags in WIDE_CONFIGS
             for run in (["analyze", "--format", "json"], ["optimize", "--format", "json"],
                         ["instrument", "--format", "text"])]


def _guard(names, k, shape) -> "list[str]":
    """The k-th guarded update over names: `a < 3 && b > 1` by default,
    `a < 3 || b > 1` for shape "or" and `a > 1 && a < 5` for "range"."""
    a, b = names[k % len(names)], names[(2 * k + 1) % len(names)]
    if b == a:
        b = names[(2 * k + 2) % len(names)]
    cond = {"and": "%s < 3 && %s > 1" % (a, b), "or": "%s < 3 || %s > 1" % (a, b),
            "range": "%s > 1 && %s < 5" % (a, a)}[shape]
    return ["if (%s) {" % cond, "    %s = %s + 1;" % (a, b), "} else {",
            "    %s = %s - 1;" % (b, a), "}"]


def wide_program(nv: int, loops: int, guards: int, nested: bool, mixed: bool) -> str:
    """nv variables, two drawn from nondet(0, 2), then `loops` sequential
    counted loops of `guards` guarded updates each.  A nested loop runs an
    inner counted loop of the same guards before its own; with `mixed`,
    the first loop's first guard is an `||` and its second a range."""
    names = ["v%d" % k for k in range(nv)]
    lines = ["int %s = %s;" % (name, "nondet(0, 2)" if k < 2 else k % 7 - 3)
             for k, name in enumerate(names)] + ["int i;", "int j;"]
    for loop in range(loops):
        body = []
        for k in range(guards):
            shape = ("or", "range")[k] if mixed and loop == 0 and k < 2 else "and"
            body += _guard(names, loop + k, shape)
        if nested:
            body = (["j = 0;", "while (j < 2) {"] + ["    " + line for line in body]
                    + ["    j = j + 1;", "}"] + body)
        lines += ["i = 0;", "while (i < 3) {"] + ["    " + line for line in body]
        lines += ["    i = i + 1;", "}"]
    return "fn main() {\n%s}\n" % "".join("    %s\n" % line for line in lines)


WIDE = {
    "wide-08-seq": wide_program(8, 2, 2, nested=False, mixed=False),
    "wide-16-nested": wide_program(16, 2, 3, nested=True, mixed=True),
    "wide-16-seq": wide_program(16, 3, 4, nested=False, mixed=True),
    "wide-25-seq": wide_program(25, 4, 5, nested=False, mixed=True),
    "wide-25-nested": wide_program(25, 2, 4, nested=True, mixed=False),
    "wide-25-25-seq": wide_program(25, 25, 5, nested=False, mixed=False),
}


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = "%s\0%s\0%d" % (out.getvalue(), err.getvalue(), code)
    return hashlib.sha256(blob.encode()).hexdigest()


def corpus_digests(path: pathlib.Path, runs=RUNS) -> "dict[str, str]":
    return {" ".join(run): digest([run[0], str(path)] + run[1:]) for run in runs}


def fuzz_key(seed: int) -> str:
    return "fuzz-seed-%02d" % seed


def fuzz_digests(seed: int, directory: pathlib.Path) -> "dict[str, str]":
    path = directory / ("%s.mini" % fuzz_key(seed))
    path.write_text(random_program(seed))
    return corpus_digests(path)


def wide_digests(key: str, directory: pathlib.Path) -> "dict[str, str]":
    path = directory / ("%s.mini" % key)
    path.write_text(WIDE[key])
    return corpus_digests(path, WIDE_RUNS)


def trace_digests(source: str) -> "dict[str, str]":
    """Per step limit, the sha256 of every execution with its trace."""
    prog = parse_program(source)
    digests = {}
    for step_limit in TRACE_STEP_LIMITS:
        h = hashlib.sha256()
        for run in enumerate_executions(prog, step_limit=step_limit):
            h.update(repr((run.choices, run.verdict, run.verdict_node, sorted(run.env.items()),
                           [(fname, node, sorted(env.items()))
                            for fname, node, env in run.trace])).encode())
        digests[str(step_limit)] = h.hexdigest()
    return digests


def tier1_digests(source: str) -> "dict[str, str]":
    """Per monitor, the sha256 of the tier-1 source, or `refused`."""
    prog = parse_program(source)
    monitors = {"none": None,
                "soundness": _SoundnessMonitor(analyze_program(prog, AnalysisConfig()))}
    digests = {}
    for key, monitor in monitors.items():
        try:
            emitted = _Emitter(_Interpreter(prog, 10_000, monitor)).program()
        except _Refused:
            digests[key] = "refused"
        else:
            digests[key] = hashlib.sha256(emitted.encode()).hexdigest()
    return digests


# The programs whose traces and tier-1 sources are pinned, by golden key.
TRACE_SOURCES = {path.name: path.read_text() for path in sorted(CORPUS.glob("*.mini"))}
TRACE_SOURCES.update((fuzz_key(seed), random_program(seed)) for seed in FUZZ_SEEDS)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.mini")), ids=lambda p: p.name)
def test_outputs_match_golden(path):
    golden = json.loads(GOLDEN.read_text())
    assert corpus_digests(path) == golden[path.name]


@pytest.mark.parametrize("seed", FUZZ_SEEDS, ids=fuzz_key)
def test_fuzz_outputs_match_golden(seed, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert fuzz_digests(seed, tmp_path) == golden[fuzz_key(seed)]


@pytest.mark.parametrize("key", sorted(WIDE))
def test_wide_outputs_match_golden(key, tmp_path):
    golden = json.loads(WIDE_GOLDEN.read_text())
    assert wide_digests(key, tmp_path) == golden[key]


@pytest.mark.parametrize("key", sorted(TRACE_SOURCES))
def test_oracle_traces_match_golden(key):
    golden = json.loads(TRACE_GOLDEN.read_text())
    assert trace_digests(TRACE_SOURCES[key]) == golden[key]


@pytest.mark.parametrize("key", sorted(TRACE_SOURCES))
def test_tier1_sources_match_golden(key):
    golden = json.loads(TIER1_GOLDEN.read_text())
    assert tier1_digests(TRACE_SOURCES[key]) == golden[key]


if __name__ == "__main__":
    table = {path.name: corpus_digests(path) for path in sorted(CORPUS.glob("*.mini"))}
    with tempfile.TemporaryDirectory() as directory:
        for seed in FUZZ_SEEDS:
            table[fuzz_key(seed)] = fuzz_digests(seed, pathlib.Path(directory))
        wide = {key: wide_digests(key, pathlib.Path(directory)) for key in sorted(WIDE)}
    traces = {key: trace_digests(source) for key, source in TRACE_SOURCES.items()}
    tier1 = {key: tier1_digests(source) for key, source in TRACE_SOURCES.items()}
    for path, digests in ((GOLDEN, table), (WIDE_GOLDEN, wide), (TRACE_GOLDEN, traces),
                          (TIER1_GOLDEN, tier1)):
        old = json.loads(path.read_text()) if path.exists() else {}
        for key in sorted(digests):
            for run in sorted(digests[key]):
                if old.get(key, {}).get(run) != digests[key][run]:
                    print("changed %s: %s: %s" % (path.name, key, run))
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print("wrote %d runs for %d programs to %s"
              % (sum(map(len, digests.values())), len(digests), path))
