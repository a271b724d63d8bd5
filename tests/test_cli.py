import dataclasses
import gc
import json
import pathlib

import jsonschema
import pytest

import intana.absint
import intana.cli
import intana.contractor
import intana.lang.cfg
import intana.oracle
from intana.cli import main
from intana.fuzz import random_program
from intana.interval import Interval
from intana.lang import parse_program

HERE = pathlib.Path(__file__).parent
CORPUS = HERE.parent / "corpus"

INTERVAL_PATTERN = r"^(bottom|\[(-inf|-?\d+),(\+inf|-?\d+)\])$"

STATE_SCHEMA = {
    "type": "object",
    "additionalProperties": {"type": "string", "pattern": INTERVAL_PATTERN},
}

DOCUMENT_SCHEMA = {
    "type": "object",
    "required": ["program", "config", "nodes", "report"],
    "additionalProperties": False,
    "properties": {
        "program": {"type": "string"},
        "config": {
            "type": "object",
            "required": ["widening_delay", "narrowing_passes",
                         "interval_arith", "use_contractors"],
            "properties": {
                "widening_delay": {"type": "integer", "minimum": 0},
                "narrowing_passes": {"type": "integer", "minimum": 0},
                "interval_arith": {"type": "boolean"},
                "use_contractors": {"type": "boolean"},
            },
        },
        "nodes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "stmt", "before", "after"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string", "pattern": r"^\w+:\d+$"},
                    "stmt": {"type": "string"},
                    "before": STATE_SCHEMA,
                    "after": STATE_SCHEMA,
                },
            },
        },
        "report": {"type": "object"},
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def loop_path():
    return str(CORPUS / "01_loop_basic.mini")


class TestAnalyze:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "analyze", loop_path())
        assert code == 0
        assert "i:[0,10]" in out and "i:[10,10]" in out

    def test_json_matches_golden(self, capsys):
        code, out, _ = run(capsys, "analyze", loop_path(), "--format", "json")
        assert code == 0
        golden = json.loads((HERE / "golden" / "loop_analyze.json").read_text())
        assert json.loads(out) == golden

    def test_json_validates_against_schema(self, capsys):
        _, out, _ = run(capsys, "analyze", loop_path(), "--format", "json")
        jsonschema.validate(json.loads(out), DOCUMENT_SCHEMA)

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "analyze", loop_path(), "--format", "json")
        _, second, _ = run(capsys, "analyze", loop_path(), "--format", "json")
        assert first == second

    def test_knobs_change_result(self, capsys):
        _, on, _ = run(capsys, "analyze", loop_path())
        _, off, _ = run(capsys, "analyze", loop_path(), "--narrowing-passes", "0")
        assert on != off

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "dump.json"
        code, out, _ = run(capsys, "analyze", loop_path(), "--format", "json",
                           "--output", str(target))
        assert code == 0 and out == ""
        jsonschema.validate(json.loads(target.read_text()), DOCUMENT_SCHEMA)


class TestOptimize:
    def test_text_contains_program_and_report(self, capsys, tmp_path):
        source = tmp_path / "p.mini"
        source.write_text("fn main() { int x = 5; int y; y = x + 1; }\n")
        code, out, _ = run(capsys, "optimize", str(source))
        assert code == 0
        assert "y = 6;" in out
        assert "// singletons_propagated: 1" in out

    def test_json_validates(self, capsys, tmp_path):
        source = tmp_path / "p.mini"
        source.write_text("fn main() { int x = 5; int y; y = x + 1; }\n")
        _, out, _ = run(capsys, "optimize", str(source), "--format", "json")
        doc = json.loads(out)
        jsonschema.validate(doc, DOCUMENT_SCHEMA)
        assert doc["report"]["singletons_propagated"] == 1

    def test_derived_assert_false_exits_one(self, capsys, tmp_path):
        source = tmp_path / "p.mini"
        source.write_text("fn main() { int x = nondet(1, 5); assert(x < 0); }\n")
        code, out, _ = run(capsys, "optimize", str(source))
        assert code == 1
        assert "assert(false);" in out

    def test_no_interval_arith_flag(self, capsys, tmp_path):
        source = tmp_path / "p.mini"
        source.write_text(
            "fn main() { int x = nondet(1, 2); int y; y = x + 1;"
            " if (y > 0) { y = 0; } }\n")
        code_on, out_on, _ = run(capsys, "optimize", str(source))
        code_off, out_off, _ = run(capsys, "optimize", str(source),
                                   "--no-interval-arith")
        assert "if" not in out_on       # y in [2,3] proves the guard
        assert "if (y > 0)" in out_off  # arithmetic extrapolated to infinity


class TestInstrument:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "instrument", loop_path())
        assert code == 0
        assert "assume(i >= 0 && i <= 10);" in out
        assert "loop-inside" in out

    def test_json_lists_points(self, capsys):
        _, out, _ = run(capsys, "instrument", loop_path(), "--format", "json")
        doc = json.loads(out)
        jsonschema.validate(doc, DOCUMENT_SCHEMA)
        kinds = [p["kind"] for p in doc["report"]["points"]]
        assert "loop-before" in kinds and "loop-inside" in kinds


class TestContract:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "contract",
                           "--constraint", "x + y == 5",
                           "--box", "x:[0,10], y:[2,4]")
        assert code == 0
        assert out.strip() == "x:[1,3], y:[2,4]"

    def test_box_keeps_the_order_written(self, capsys):
        code, out, _ = run(capsys, "contract",
                           "--constraint", "x + y == 5",
                           "--box", "y:[2,4], x:[0,10]")
        assert code == 0
        assert out.strip() == "y:[2,4], x:[1,3]"

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "contract", "--format", "json",
                        "--constraint", "x + y == 5",
                        "--box", "x:[0,10], y:[2,4]")
        doc = json.loads(out)
        assert doc["result"] == "x:[1,3], y:[2,4]"

    def test_bad_box_is_usage_error(self, capsys):
        for box in ("x=[0,1]", "x:[0,5],,,"):
            code, out, err = run(capsys, "contract",
                                 "--constraint", "x == 1", "--box", box)
            assert code == 2 and not out
            assert err == "error: bad box syntax: %r\n" % box

    def test_unknown_variable_is_usage_error(self, capsys):
        code, _, err = run(capsys, "contract",
                           "--constraint", "x + z == 1", "--box", "x:[0,1]")
        assert code == 2 and err

    def test_non_comparison_is_usage_error(self, capsys):
        for constraint in ("x > 0 && x < 3", "true"):
            code, out, err = run(capsys, "contract",
                                 "--constraint", constraint, "--box", "x:[0,5]")
            assert code == 2 and not out
            assert err == "error: not a comparison: %s\n" % constraint

    def test_reversed_box_is_usage_error(self, capsys):
        code, out, err = run(capsys, "contract",
                             "--constraint", "x < 3", "--box", "x:[5,1]")
        assert code == 2 and not out
        assert err == "error: reversed interval bounds in box entry 'x:[5,1]'\n"

    def test_box_without_an_integer_is_usage_error(self, capsys):
        code, out, err = run(capsys, "contract",
                             "--constraint", "x < 3", "--box", "x:[inf,inf], y:[0,1]")
        assert code == 2 and not out
        assert err == "error: interval bounds hold no integer in box entry 'x:[inf,inf]'\n"

    def test_nonpositive_rounds_is_usage_error(self, capsys):
        code, _, err = run(capsys, "contract", "--max-rounds", "0",
                           "--constraint", "x == 1", "--box", "x:[0,5]")
        assert code == 2
        assert err.startswith("error: max_rounds must be >= 1")

    def test_repeated_box_variable_is_usage_error(self, capsys):
        code, out, err = run(capsys, "contract",
                             "--constraint", "x == 1", "--box", "x:[0,1], x:[2,3]")
        assert code == 2 and not out
        assert err == "error: duplicate variable 'x' in box\n"

    def test_constraint_is_lowered_once(self, capsys, monkeypatch):
        # Each revise reuses the one lowered form: 7 slots, pushed once.
        pushes = []
        original = intana.contractor._push

        def counting(*args):
            pushes.append(args)
            return original(*args)

        monkeypatch.setattr(intana.contractor, "_push", counting)
        code, out, _ = run(capsys, "contract",
                           "--constraint", "x / 2 + x == 7", "--box", "x:[-50,50]")
        assert code == 0
        assert out.strip() == "x:[5,5]"
        assert len(pushes) == 7


class TestCheck:
    def test_clean_program(self, capsys):
        code, out, _ = run(capsys, "check", loop_path())
        assert code == 0
        assert "result: clean" in out

    def test_whole_corpus_is_clean(self, capsys):
        for path in sorted(CORPUS.glob("*.mini")):
            code, out, _ = run(capsys, "check", str(path))
            assert code == 0, path.name

    def test_unbounded_nondet_is_usage_error(self, capsys, tmp_path):
        source = tmp_path / "p.mini"
        source.write_text("fn main() { int x = nondet(); }\n")
        code, _, err = run(capsys, "check", str(source))
        assert code == 2 and err

    def test_reports_step_limit_count(self, capsys):
        code, out, _ = run(capsys, "check", loop_path())
        assert code == 0
        assert out.splitlines()[-2:] == ["step limit: 0 of 1 execution(s) truncated",
                                         "result: clean"]

    def test_truncated_check_is_incomplete(self, capsys, tmp_path):
        source = tmp_path / "p.mini"
        source.write_text("fn main() { int i = 0; while (i >= 0) { i = i + 1; } }\n")
        code, out, _ = run(capsys, "check", str(source), "--step-limit", "50")
        assert code == 3
        assert out.splitlines()[-2:] == ["step limit: 1 of 1 execution(s) truncated",
                                         "result: incomplete"]

    def test_json_format_is_usage_error(self, capsys):
        code, out, err = run(capsys, "check", loop_path(), "--format", "json")
        assert code == 2 and not out
        assert err == "error: check has no JSON output\n"

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_nonpositive_step_limit_is_usage_error(self, capsys, limit):
        code, out, err = run(capsys, "check", loop_path(), "--step-limit", limit)
        assert code == 2 and not out
        assert err == "error: step_limit must be >= 1\n"

    def test_truncated_rewrite_is_incomplete(self, capsys, tmp_path):
        # 9982 steps for the input, but one more `assume` per iteration in
        # its instrumented form: only the rewrite hits the default limit.
        source = tmp_path / "p.mini"
        source.write_text("fn main() { int i = 0; while (i < 4990) { i = i + 1; } }\n")
        code, out, _ = run(capsys, "check", str(source))
        assert code == 3
        assert out.splitlines() == [
            "soundness: 0 violation(s)",
            "optimize equivalence: ok",
            "instrument invariance: ok, 1 of 1 rewritten execution(s) truncated",
            "step limit: 0 of 1 execution(s) truncated",
            "result: incomplete",
        ]

    def test_truncated_input_gives_no_counterexample(self, capsys, tmp_path):
        # The instrumented form takes one more step per iteration, so on
        # every choice both stop at the limit, with different values of i.
        source = tmp_path / "p.mini"
        source.write_text("fn main() { int k = nondet(0, 50); int i = 0;"
                          " while (i >= 0) { i = i + k; i = i + 1; } }\n")
        code, out, _ = run(capsys, "check", str(source), "--step-limit", "2000")
        assert code == 3
        assert out.splitlines() == [
            "soundness: 0 violation(s)",
            "optimize equivalence: ok",
            "instrument invariance: ok",
            "step limit: 51 of 51 execution(s) truncated",
            "result: incomplete",
        ]

    def test_nondet_mismatch_is_a_violation(self, capsys, monkeypatch, tmp_path):
        source = tmp_path / "p.mini"
        source.write_text("fn main() { int x = nondet(0, 2); }\n")
        extra = parse_program("fn main() { int x = nondet(0, 2); int y = nondet(0, 1); }")
        monkeypatch.setattr(intana.cli, "instrument_program",
                            lambda prog, analyses, config: (extra, []))
        code, out, err = run(capsys, "check", str(source))
        assert code == 1
        assert err == ""
        assert out.splitlines() == [
            "soundness: 0 violation(s)",
            "optimize equivalence: ok",
            "instrument invariance: FAILED (programs draw different nondet choice sequences)",
            "step limit: 0 of 3 execution(s) truncated",
            "result: violations found",
        ]


# A variable-free function (`{}` states), a dead branch (bottom states), two functions.
MIXED_PROGRAM = """fn f() { assert(true); }
fn main() { int x = nondet(0, 2); f(); if (x > 5) { x = 1; } }
"""


def reference_document(program_source, config, analyses, report):
    """The document built as a dict and dumped whole by `json.dumps`."""
    nodes = []
    for fname in sorted(analyses):
        fa = analyses[fname]
        for nid in sorted(fa.cfg.nodes):
            nodes.append({
                "id": "%s:%d" % (fname, nid),
                "stmt": fa.cfg.nodes[nid].describe(),
                "before": {name: iv.render() for name, iv in fa.result.before[nid].items()},
                "after": {name: iv.render() for name, iv in fa.result.after[nid].items()},
            })
    return json.dumps({
        "program": program_source,
        "config": dataclasses.asdict(config),
        "nodes": nodes,
        "report": report,
    }, indent=2)


class TestDocument:
    @pytest.mark.parametrize("flags", [[], ["--no-contractors"], ["--no-interval-arith"]],
                             ids=["default", "no-contractors", "no-interval-arith"])
    @pytest.mark.parametrize("command", ["analyze", "optimize", "instrument"])
    def test_bytes_equal_json_dumps(self, capsys, monkeypatch, tmp_path, command, flags):
        references = []
        original = intana.cli._document

        def recording(*args):
            references.append(reference_document(*args))
            return original(*args)

        monkeypatch.setattr(intana.cli, "_document", recording)
        source = tmp_path / "p.mini"
        for text in [MIXED_PROGRAM] + [random_program(seed) for seed in range(50)]:
            source.write_text(text)
            code, out, err = run(capsys, command, str(source), "--format", "json", *flags)
            assert code in (0, 1) and not err, text
            assert out == references[-1] + "\n", text

    def test_mixed_program_has_empty_and_bottom_states(self, capsys, tmp_path):
        source = tmp_path / "p.mini"
        source.write_text(MIXED_PROGRAM)
        _, out, _ = run(capsys, "analyze", str(source), "--format", "json")
        states = [node[key] for node in json.loads(out)["nodes"] for key in ("before", "after")]
        assert {} in states and {"x": "bottom"} in states

    def test_each_interval_object_rendered_once(self, capsys, monkeypatch):
        renders, described, seen = [], [], []
        render, describe = Interval.render, intana.lang.cfg.Node.describe
        original = intana.cli._document

        def counting_render(iv):
            renders.append(iv)
            return render(iv)

        def counting_describe(node):
            described.append(node)
            return describe(node)

        def writing(program_source, config, analyses, report):
            seen.append(analyses)
            monkeypatch.setattr(Interval, "render", counting_render)
            monkeypatch.setattr(intana.lang.cfg.Node, "describe", counting_describe)
            return original(program_source, config, analyses, report)

        monkeypatch.setattr(intana.cli, "_document", writing)
        code, _, _ = run(capsys, "analyze", str(CORPUS / "08_helper_call.mini"),
                         "--format", "json")
        assert code == 0
        (analyses,) = seen
        states = [state for fa in analyses.values()
                  for table in (fa.result.before, fa.result.after) for state in table.values()]
        distinct = {id(iv) for state in states for iv in state.intervals}
        assert 0 < len(renders) <= len(distinct) < sum(len(state.names) for state in states)
        assert len(described) == sum(len(fa.cfg.nodes) for fa in analyses.values())


class TestAnalyzeOnce:
    @pytest.mark.parametrize("argv", [["check"], ["optimize", "--format", "json"]])
    def test_one_analysis_per_function(self, capsys, monkeypatch, argv):
        calls = []
        original = intana.absint.analyze

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(intana.absint, "analyze", counting)
        code, _, _ = run(capsys, *argv, loop_path())
        assert code == 0
        assert len(calls) == 1


class TestEnumerateOnce:
    def test_check_enumerates_the_input_once(self, capsys, monkeypatch):
        parsed, calls = [], []
        original_parse = intana.cli.parse_program
        original = intana.oracle.enumerate_executions

        def parsing(*args, **kwargs):
            parsed.append(original_parse(*args, **kwargs))
            return parsed[-1]

        def counting(prog, *args, **kwargs):
            calls.append(prog)
            return original(prog, *args, **kwargs)

        monkeypatch.setattr(intana.cli, "parse_program", parsing)
        monkeypatch.setattr(intana.oracle, "enumerate_executions", counting)
        code, _, _ = run(capsys, "check", str(CORPUS / "08_helper_call.mini"))
        assert code == 0
        assert len(parsed) == 1
        assert len(calls) == 3  # the input, the optimized and the instrumented program
        assert sum(prog is parsed[0] for prog in calls) == 1

    def test_check_records_no_trace(self, capsys, monkeypatch):
        # Soundness is checked as the input runs, so no enumeration made by
        # `check` copies its environments into a trace.
        states = []
        original = intana.oracle.enumerate_executions

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            states.extend(result)
            return result

        monkeypatch.setattr(intana.oracle, "enumerate_executions", recording)
        code, _, _ = run(capsys, "check", str(CORPUS / "08_helper_call.mini"))
        assert code == 0
        assert states
        assert all(state.trace == [] for state in states)


class TestErrors:
    def test_parse_error_exit_code(self, capsys, tmp_path):
        source = tmp_path / "p.mini"
        source.write_text("fn main() { int x = }\n")
        code, _, err = run(capsys, "analyze", str(source))
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("command", ["analyze", "check"])
    def test_result_of_a_callee_that_can_fall_through_is_usage_error(self, capsys, tmp_path,
                                                                     command):
        source = tmp_path / "p.mini"
        source.write_text("fn f(a) { if (a > 0) { return 1; } }\n"
                          "fn main() { int x = nondet(0, 1); int y; y = f(x); }\n")
        code, out, err = run(capsys, command, str(source))
        assert (code, out) == (2, "")
        assert err == "parse error: 2:46: function 'f' can reach its end without returning" \
            " a value\n"

    @pytest.mark.parametrize("command", ["analyze", "check"])
    def test_read_outside_the_declaring_block_is_usage_error(self, capsys, tmp_path, command):
        source = tmp_path / "p.mini"
        source.write_text("fn main() { int x = nondet(0, 1); if (x > 0) { int y = 1; } x = y; }\n")
        code, out, err = run(capsys, command, str(source))
        assert (code, out) == (2, "")
        assert err == "parse error: 1:65: use of 'y' outside the block that declares it\n"

    @pytest.mark.parametrize("command", ["analyze", "optimize", "instrument", "check"])
    def test_write_outside_the_declaring_block_is_usage_error(self, capsys, tmp_path,
                                                              command):
        source = tmp_path / "p.mini"
        source.write_text("fn main() { int x = nondet(0, 1); if (x > 0) { int y = 1; } y = 2; }\n")
        code, out, err = run(capsys, command, str(source))
        assert (code, out) == (2, "")
        assert err == "parse error: 1:61: use of 'y' outside the block that declares it\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent.mini")
        assert code == 2 and err

    def test_bad_config_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", loop_path(),
                           "--widening-delay", "-1")
        assert code == 2 and err

    @pytest.mark.parametrize("command", ["analyze", "optimize", "instrument", "check"])
    def test_long_flat_program_is_processed(self, capsys, tmp_path, command):
        source = tmp_path / "p.mini"
        source.write_text("fn main() { int x = 0; %s}\n" % ("x = x + 1; " * 1200))
        code, out, err = run(capsys, command, str(source))
        assert code == 0, err
        assert out and not err

    @pytest.mark.parametrize("command", ["analyze", "check"])
    @pytest.mark.parametrize("body", [
        "if (x > 0) { " * 400 + "x = 1; " + "} " * 400,
    ], ids=["nested-ifs"])
    def test_deep_input_is_usage_error(self, capsys, tmp_path, command, body):
        # The 321st nested block's `{` passes the nesting limit.
        source = tmp_path / "p.mini"
        source.write_text("fn main() { int x = nondet(0, 1); %s }\n" % body)
        code, _, err = run(capsys, command, str(source))
        assert code == 2
        assert err == "parse error: 1:4206: nested past the limit of 320 blocks and parentheses\n"

    @pytest.mark.parametrize("command", ["analyze", "check"])
    def test_long_sum_is_processed(self, capsys, tmp_path, command):
        source = tmp_path / "p.mini"
        source.write_text("fn main() { int x = nondet(0, 1); int y; y = %s; }\n"
                          % " + ".join(["x"] * 2000))
        code, out, err = run(capsys, command, str(source))
        assert code == 0, err
        assert out and not err

    def test_long_sums_in_a_callee_and_its_caller_check_clean(self, capsys, tmp_path):
        # Every walker folds an expression without recursion, so a flat
        # sum's length is not bounded by Python's recursion limit.
        sums = " + ".join(["a"] * 5000), " + ".join(["y"] * 5000)
        source = tmp_path / "p.mini"
        source.write_text("fn f(a) { return %s; }\nfn main() { int x = nondet(0, 1);"
                          " int y; y = f(x); int z = %s; }\n" % sums)
        code, out, err = run(capsys, "check", str(source))
        assert (code, err) == (0, "")
        assert out.endswith("result: clean\n")

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        def broken(args):
            raise TypeError("unsupported operand")

        monkeypatch.setitem(intana.cli._COMMANDS, "analyze", broken)
        code, out, err = run(capsys, "analyze", loop_path())
        assert code == 4
        assert err == "internal error: TypeError: unsupported operand\n"
        assert "Traceback" not in out + err


class TestCollector:
    """A command runs with the cyclic collector paused, and `main` leaves
    the caller's setting as it found it on every exit."""

    CASES = {
        "clean": (0, ["check"], "fn main() { int x = nondet(0, 2); }\n"),
        "violation": (1, ["optimize"], "fn main() { int x = nondet(1, 5); assert(x < 0); }\n"),
        "parse-error": (2, ["analyze"], "fn main() { int x = }\n"),
        "usage": (2, ["analyze", "--no-such-flag"], "fn main() { skip; }\n"),
        "internal": (4, ["analyze"], "fn main() { skip; }\n"),
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_caller_setting_is_restored(self, capsys, monkeypatch, tmp_path, enabled, case):
        expected, command, text = self.CASES[case]
        source = tmp_path / "p.mini"
        source.write_text(text)
        paused = []
        if case == "internal":
            def broken(args):
                paused.append(not gc.isenabled())
                raise TypeError("unsupported operand")
            monkeypatch.setitem(intana.cli._COMMANDS, "analyze", broken)
        argv = [command[0], str(source), *command[1:]]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()
        assert code == expected
        assert paused == ([True] if case == "internal" else [])  # paused while it ran

    @pytest.mark.parametrize("argv", [
        ["analyze", "{path}"], ["optimize", "{path}"], ["instrument", "{path}"],
        ["contract", "--constraint", "x * y >= 4", "--box", "x:[0,5],y:[-2,3]"],
    ], ids=["analyze", "optimize", "instrument", "contract"])
    def test_json_format_leaves_what_text_format_leaves(self, capsys, tmp_path, argv):
        source = tmp_path / "p.mini"
        source.write_text(MIXED_PROGRAM)
        argv = [arg.format(path=source) for arg in argv]
        left = {}
        was = gc.isenabled()
        gc.disable()
        try:
            for fmt in ("text", "json", "text", "json"):
                gc.collect()
                assert main(argv + ["--format", fmt]) == 0
                left.setdefault(fmt, set()).add(gc.collect())
        finally:
            if was:
                gc.enable()
        capsys.readouterr()
        assert left["json"] == left["text"] and len(left["text"]) == 1
