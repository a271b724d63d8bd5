"""Every command ends, and ends cleanly, on hostile inputs.

Each case runs `intana.cli` in a subprocess with a timeout, on programs
that nest deeply, sum many terms, chain many operators or prefixes, hold
huge literals, square a value until it is huge, blow up a contraction, or
draw from a wide range.  A command must exit with one of the documented
codes (0 clean, 1 finding, 2 usage error, 3 incomplete, 4 internal
error), print no traceback, and write at most one line to stderr.  Only
the nests' and the chains' cases pin their exit code, as several of the
other inputs are still handled unevenly across commands: every command
takes a nest up to the nesting limit and a chain of any length, exits 0
with nothing on stderr, and `check` finds it clean; a nest one level past
the limit is a parse error that names the limit.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import intana
from intana.lang import MAX_NESTING

SRC = str(pathlib.Path(intana.__file__).parents[1])
EXIT_CODES = {0, 1, 2, 3, 4}
TIMEOUT_S = 120


def _main(body: str) -> str:
    return "fn main() { int x = nondet(0, 3); %s }" % body


def _if_nest(depth: int) -> str:
    body = "x = 1;"
    for _ in range(depth):
        body = "if (x > 0) { %s }" % body
    return _main(body)


def _while_nest(depth: int) -> str:
    """Loops nested `depth` deep that end: the innermost counts x down."""
    body = "x = x - 1;"
    for _ in range(depth):
        body = "while (x > 0) { %s }" % body
    return _main(body)


def _parens(depth: int) -> str:
    return _main("int y = %sx%s;" % ("(" * depth, ")" * depth))


def _cond_nest(depth: int) -> str:
    """A condition whose `||` and `&&` alternate, a parenthesis per level."""
    cond = "x > 0"
    for level in range(depth):
        cond = "x > %d %s (%s)" % (level % 3, "&&" if level % 2 else "||", cond)
    return _main("if (%s) { x = 1; }" % cond)


def _chain(op: str, terms: int) -> str:
    return _main("if (%s) { x = 1; }" % (" %s " % op).join(["x > 0"] * terms))


# The programs every command must pass cleanly, and those one level past
# the nesting limit, which must be a parse error.
CLEAN = ["if-nest-300", "while-nest-300", "parens-300", "sum-1200", "minus-400",
         "if-nest-at-limit", "cond-nest-at-limit", "sum-5000", "and-1200", "or-1200",
         "not-1200", "minus-1200"]
TOO_DEEP = ["if-nest-past-limit", "parens-past-limit"]
PROGRAMS = {
    "if-nest-300": _if_nest(300),
    "while-nest-300": _while_nest(300),
    "parens-300": _parens(300),
    "if-nest-at-limit": _if_nest(MAX_NESTING),
    "cond-nest-at-limit": _cond_nest(MAX_NESTING),
    "if-nest-past-limit": _if_nest(MAX_NESTING + 1),
    "parens-past-limit": _parens(MAX_NESTING + 1),
    "sum-1200": _main("int y = %s;" % " + ".join(["x"] * 1200)),
    "sum-5000": _main("int y = %s;" % " + ".join(["x"] * 5000)),
    "and-1200": _chain("&&", 1200),
    "or-1200": _chain("||", 1200),
    "not-1200": _main("if (%s(x > 0)) { x = 1; }" % ("!" * 1200)),
    "literal-5000-digits": _main("int y = %s;" % ("9" * 5000)),
    "squaring-14": "fn main() {\n  int x = 7;\n%s}\n" % ("  x = x * x;\n" * 14),
    # A contraction after widening that cubes a bound every round.
    "and-blow-up": """
fn main() {
  int a = -5;
  int c = nondet(0, 3);
  while (c > 0) { a = a - 1; c = c - 1; }
  if ((a <= -5) && (a / a >= a * a)) { a = 0; }
}
""",
    "minus-400": _main("int y = %sx;" % ("- " * 400)),
    "minus-1200": _main("int y = %sx;" % ("- " * 1200)),
    "wide-range": "fn main() { int x = nondet(0, 100000); }",
}

# Each case's command and program.
CASES = [pytest.param([command, "{path}"], name, id="%s-%s" % (command, name))
         for name in PROGRAMS for command in ("analyze", "optimize", "instrument", "check")]
CASES.append(pytest.param(["contract", "--constraint", "a / a >= a * a",
                           "--box", "a:[-inf,-5]"], None, id="contract-and-blow-up"))


def _run(tmp_path, args, program):
    if program is not None:
        path = tmp_path / (program + ".mini")
        path.write_text(PROGRAMS[program])
        args = [str(path) if arg == "{path}" else arg for arg in args]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "intana.cli", *args], env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


@pytest.mark.parametrize("args,program", CASES)
def test_command_exits_cleanly(tmp_path, args, program):
    done = _run(tmp_path, args, program)
    assert done.returncode in EXIT_CODES, done.stderr
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) <= 1, done.stderr
    if program in CLEAN:
        # Every walker takes a nest the parser reads and a chain of any length.
        assert (done.returncode, done.stderr) == (0, "")
        if args[0] == "check":
            assert done.stdout.endswith("result: clean\n")
    if program in TOO_DEEP:
        assert done.returncode == 2
        assert done.stderr.startswith("parse error: ")
        assert done.stderr.endswith(
            ": nested past the limit of %d blocks and parentheses\n" % MAX_NESTING)
