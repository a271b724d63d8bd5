"""Every command ends, and ends cleanly, on hostile inputs.

Each case runs `intana.cli` in a subprocess with a timeout, on programs
that nest deeply, sum many terms, hold huge literals, square a value
until it is huge, blow up a contraction, or draw from a wide range.  A
command must exit with one of the documented codes (0 clean, 1 finding,
2 usage error, 3 incomplete, 4 internal error), print no traceback, and
write at most one line to stderr.  Only the nests' cases pin their exit
code, as several of the other inputs are still handled unevenly across
commands: every command takes a nest, exits 0 with nothing on stderr,
and `check` finds it clean.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import intana

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


NESTS = ["if-nest-300", "while-nest-300"]
PROGRAMS = {
    "if-nest-300": _if_nest(300),
    "while-nest-300": _while_nest(300),
    "parens-300": _main("int y = %sx%s;" % ("(" * 300, ")" * 300)),
    "sum-1200": _main("int y = %s;" % " + ".join(["x"] * 1200)),
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
    "wide-range": "fn main() { int x = nondet(0, 100000); }",
}

# Each case's command, program and whether it must pass cleanly.
CASES = [pytest.param([command, "{path}"], name, name in NESTS, id="%s-%s" % (command, name))
         for name in PROGRAMS for command in ("analyze", "optimize", "instrument", "check")]
CASES.append(pytest.param(["contract", "--constraint", "a / a >= a * a",
                           "--box", "a:[-inf,-5]"], None, False, id="contract-and-blow-up"))


def _run(tmp_path, args, program):
    if program is not None:
        path = tmp_path / (program + ".mini")
        path.write_text(PROGRAMS[program])
        args = [str(path) if arg == "{path}" else arg for arg in args]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "intana.cli", *args], env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


@pytest.mark.parametrize("args,program,clean", CASES)
def test_command_exits_cleanly(tmp_path, args, program, clean):
    done = _run(tmp_path, args, program)
    assert done.returncode in EXIT_CODES, done.stderr
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) <= 1, done.stderr
    if clean:
        # The rewrites and instrumentation walk a nest as deep as the
        # parser reads one, so no command stops at `input nests too deeply`.
        assert (done.returncode, done.stderr) == (0, "")
        if args[0] == "check":
            assert done.stdout.endswith("result: clean\n")
