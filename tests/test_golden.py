"""Byte-identity of every command's output on the corpus and fuzz programs.

`golden/corpus_outputs.json` maps each corpus file, and each program that
`intana.fuzz.random_program` makes for seeds 0-29, to the sha256 of
stdout, stderr and exit code of each run below: `analyze`, `optimize` and
`instrument` in text and JSON, and `check`, under the default flags,
`--no-contractors` and `--no-interval-arith`.  A change that must not
alter any output keeps this test green.  After an intended output change,
regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from intana.cli import main
from intana.fuzz import random_program

HERE = pathlib.Path(__file__).parent
CORPUS = HERE.parent / "corpus"
GOLDEN = HERE / "golden" / "corpus_outputs.json"
FUZZ_SEEDS = range(30)

CONFIGS = ([], ["--no-contractors"], ["--no-interval-arith"])
RUNS = [[cmd, "--format", fmt] + flags
        for flags in CONFIGS
        for cmd in ("analyze", "optimize", "instrument")
        for fmt in ("text", "json")] + [["check"] + flags for flags in CONFIGS]


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = "%s\0%s\0%d" % (out.getvalue(), err.getvalue(), code)
    return hashlib.sha256(blob.encode()).hexdigest()


def corpus_digests(path: pathlib.Path) -> "dict[str, str]":
    return {" ".join(run): digest([run[0], str(path)] + run[1:]) for run in RUNS}


def fuzz_key(seed: int) -> str:
    return "fuzz-seed-%02d" % seed


def fuzz_digests(seed: int, directory: pathlib.Path) -> "dict[str, str]":
    path = directory / ("%s.mini" % fuzz_key(seed))
    path.write_text(random_program(seed))
    return corpus_digests(path)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.mini")), ids=lambda p: p.name)
def test_outputs_match_golden(path):
    golden = json.loads(GOLDEN.read_text())
    assert corpus_digests(path) == golden[path.name]


@pytest.mark.parametrize("seed", FUZZ_SEEDS, ids=fuzz_key)
def test_fuzz_outputs_match_golden(seed, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert fuzz_digests(seed, tmp_path) == golden[fuzz_key(seed)]


if __name__ == "__main__":
    table = {path.name: corpus_digests(path) for path in sorted(CORPUS.glob("*.mini"))}
    with tempfile.TemporaryDirectory() as directory:
        for seed in FUZZ_SEEDS:
            table[fuzz_key(seed)] = fuzz_digests(seed, pathlib.Path(directory))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print("wrote %d runs for %d programs to %s"
          % (sum(map(len, table.values())), len(table), GOLDEN))
