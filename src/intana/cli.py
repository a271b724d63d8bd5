"""Command-line front door.

Commands: analyze (per-node interval dump), optimize (rewritten program
plus report), instrument (program with interval assumptions), contract
(one constraint/box contraction), check (soundness and equivalence
pipelines over exhaustive concrete execution).

Exit codes: 0 success/clean, 1 property violation found, 2 usage or
parse error (nesting past `lang.MAX_NESTING` is one), 3 `check` incomplete
because an execution of the input, or of a rewrite where the input ran to
its end, hit `--step-limit` (its findings are still printed, but none of
them decides the exit code), 4 unexpected internal error, a
`RecursionError` too, one line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import sys
from json.encoder import encode_basestring_ascii

from .absint import AnalysisConfig, analyze_program
from .contractor import box_render, contract_fixpoint, lower_comparison, parse_box
from .instrument import instrument_program
from .lang import Assert, BoolLit, ParseError, parse_condition, parse_program, \
    program_to_source, expr_to_source, walk_stmts
from .optimize import optimize_program
from .oracle import (
    STEP_LIMIT,
    EnumerationCapError,
    NondetMismatchError,
    check_equivalence,
    check_soundness,
)


def _read_program(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_program(handle.read())


def _emit(text: str, args) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _config(args) -> AnalysisConfig:
    return AnalysisConfig(
        widening_delay=args.widening_delay,
        narrowing_passes=args.narrowing_passes,
        interval_arith=not args.no_interval_arith,
        use_contractors=not args.no_contractors,
    )


def _state_text(state) -> str:
    return "bottom" if state.is_bottom else box_render(state) or "(no variables)"


def _json(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2)` for the str, int, list and dict values
    the commands write, each nested line starting with `indent` plus two
    spaces.  The standard encoder's indenting closures refer to each other,
    so each of its calls would leave cyclic garbage."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items, brackets = ["%s: %s" % (encode_basestring_ascii(k), _json(v, inner))
                           for k, v in value.items()], "{}"
    else:
        items, brackets = [_json(v, inner) for v in value], "[]"
    if not items:
        return brackets
    return "%s%s%s%s%s" % (brackets[0], inner, ("," + inner).join(items), indent, brackets[1])


def _document(program_source: str, config: AnalysisConfig, analyses, report) -> str:
    """The bytes of `json.dumps(doc, indent=2)`, each state and interval rendered once.

    The analyses keep every state alive, so renderings are cached by `id`;
    a function's states share one names tuple, and so their key prefixes.
    """
    quote, ivs, keys, blocks = encode_basestring_ascii, {}, {}, {}

    def block(state) -> str:
        text = blocks.get(id(state))
        if text is None:
            prefixes = keys.get(id(state.names)) or keys.setdefault(
                id(state.names), ["\n        %s: " % quote(name) for name in state.names])
            for iv in state.intervals:
                if id(iv) not in ivs:
                    ivs[id(iv)] = quote(iv.render())
            parts = ",".join([k + ivs[id(iv)] for k, iv in zip(prefixes, state.intervals)])
            text = blocks[id(state)] = "{%s\n      }" % parts if parts else "{}"
        return text

    nodes = []
    for fname in sorted(analyses):
        fa = analyses[fname]
        for nid in sorted(fa.cfg.nodes):
            nodes.append('    {\n      "id": %s,\n      "stmt": %s,\n      "before": %s,'
                         '\n      "after": %s\n    }'
                         % (quote("%s:%d" % (fname, nid)), quote(fa.cfg.nodes[nid].describe()),
                            block(fa.result.before[nid]), block(fa.result.after[nid])))
    return '{\n  "program": %s,\n  "config": %s,\n  "nodes": %s,\n  "report": %s\n}' % (
        quote(program_source),
        _json(dataclasses.asdict(config), "\n  "),
        "[\n%s\n  ]" % ",\n".join(nodes) if nodes else "[]",
        _json(report, "\n  "))


def cmd_analyze(args) -> int:
    prog = _read_program(args.input)
    config = _config(args)
    analyses = analyze_program(prog, config)
    if args.format == "json":
        report = {
            fname: {"iterations": fa.result.iterations,
                    "widened_nodes": sorted(fa.result.widened_nodes)}
            for fname, fa in sorted(analyses.items())
        }
        _emit(_document(program_to_source(prog), config, analyses, report), args)
        return 0
    lines = []
    for fname in sorted(analyses):
        fa = analyses[fname]
        lines.append("fn %s (%d iterations)" % (fname, fa.result.iterations))
        for nid in sorted(fa.cfg.nodes):
            lines.append("  [%d] %s" % (nid, fa.cfg.nodes[nid].describe()))
            lines.append("      before: %s" % _state_text(fa.result.before[nid]))
            lines.append("      after:  %s" % _state_text(fa.result.after[nid]))
    _emit("\n".join(lines), args)
    return 0


def _report_json(report) -> "dict":
    return {
        "singletons_propagated": report.singletons_propagated,
        "guards_true": report.guards_true,
        "guards_false": report.guards_false,
        "guards_eliminated": report.guards_eliminated,
        "constants_folded": report.constants_folded,
        "dead_branches_removed": report.dead_branches_removed,
    }


def _has_assert_false(prog) -> bool:
    for fn in prog.functions.values():
        for stmt in walk_stmts(fn.body):
            if isinstance(stmt, Assert) and isinstance(stmt.cond, BoolLit) \
                    and not stmt.cond.value:
                return True
    return False


def cmd_optimize(args) -> int:
    prog = _read_program(args.input)
    config = _config(args)
    optimized, report, analyses = optimize_program(prog, config)
    source = program_to_source(optimized)
    if args.format == "json":
        _emit(_document(source, config, analyses, _report_json(report)), args)
    else:
        trailer = "\n".join("// %s: %d" % (k, v)
                            for k, v in sorted(_report_json(report).items()))
        _emit(source + trailer, args)
    return 1 if _has_assert_false(optimized) else 0


def cmd_instrument(args) -> int:
    prog = _read_program(args.input)
    config = _config(args)
    analyses = analyze_program(prog, config)
    instrumented, points = instrument_program(prog, analyses, config)
    source = program_to_source(instrumented)
    points_json = [{
        "function": p.function,
        "node": p.node,
        "kind": p.kind,
        "vars": sorted(p.vars),
        "assume": expr_to_source(p.emitted),
    } for p in points]
    if args.format == "json":
        _emit(_document(source, config, analyses, {"points": points_json}), args)
    else:
        trailer = "\n".join(
            "// %s:%d %s: assume(%s)" % (p["function"], p["node"], p["kind"], p["assume"])
            for p in points_json)
        _emit(source + trailer if trailer else source, args)
    return 0


def cmd_contract(args) -> int:
    box = parse_box(args.box)
    code = lower_comparison(parse_condition(args.constraint, list(box)), box)
    result = contract_fixpoint([code], box, max_rounds=args.max_rounds)
    if args.format == "json":
        _emit(_json({
            "constraint": args.constraint,
            "box": box_render(box),
            "result": box_render(result),
        }), args)
    else:
        _emit(box_render(result), args)
    return 0


def cmd_check(args) -> int:
    if args.format == "json":
        raise ValueError("check has no JSON output")
    prog = _read_program(args.input)
    config = _config(args)
    optimized, _, analyses = optimize_program(prog, config)
    lines = []
    clean = True

    # One enumeration of the input, checked for soundness as it runs; its
    # executions then stand for the input in both equivalence checks.
    executions = []
    violations = check_soundness(prog, analyses, step_limit=args.step_limit,
                                 runs=executions)
    lines.append("soundness: %d violation(s)" % len(violations))
    for v in violations[:10]:
        lines.append("  %s node %d: %s = %d outside %s (choices %s)"
                     % (v.function, v.node, v.var, v.value, v.interval, list(v.choices)))
    clean &= not violations

    # A truncated execution was not checked to its end, and a rewrite that
    # changes the step count can differ from it only in where it stopped.
    # So a choice on which either the input or a rewrite alone was cut
    # short leaves the check incomplete.
    truncated = sum(state.verdict == STEP_LIMIT for state in executions)
    incomplete = truncated
    instrumented, _ = instrument_program(prog, analyses, config)
    for label, rewritten in (("optimize equivalence", optimized),
                             ("instrument invariance", instrumented)):
        try:
            eq = check_equivalence(prog, rewritten, step_limit=args.step_limit,
                                   executions=executions)
        except NondetMismatchError as exc:
            lines.append("%s: FAILED (%s)" % (label, exc))
            clean = False
            continue
        verdict = "ok" if eq.counterexample is None else "FAILED %r" % (eq.counterexample,)
        if eq.truncated:
            verdict += ", %d of %d rewritten execution(s) truncated" \
                % (eq.truncated, len(executions))
        lines.append("%s: %s" % (label, verdict))
        clean &= eq.counterexample is None
        incomplete += eq.truncated

    lines.append("step limit: %d of %d execution(s) truncated" % (truncated, len(executions)))
    if incomplete:
        result, code = "incomplete", 3
    else:
        result, code = ("clean", 0) if clean else ("violations found", 1)
    lines.append("result: %s" % result)
    _emit("\n".join(lines), args)
    return code


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="program file in the mini language")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", help="write output to this file (default stdout)")
    parser.add_argument("--widening-delay", type=int, default=2)
    parser.add_argument("--narrowing-passes", type=int, default=2)
    parser.add_argument("--no-interval-arith", action="store_true",
                        help="extrapolate all arithmetic on non-singletons to infinity")
    parser.add_argument("--no-contractors", action="store_true",
                        help="refine conditions with simple comparison pruning only")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intana",
        description="Interval analysis, contraction, and rewriting for a mini language.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("analyze", help="dump per-node interval states"))
    _add_common(sub.add_parser("optimize", help="rewrite using interval facts"))
    _add_common(sub.add_parser("instrument", help="insert interval assumptions"))

    contract = sub.add_parser("contract", help="contract a box by one constraint")
    contract.add_argument("--constraint", required=True,
                          help='e.g. "x + y == 5"')
    contract.add_argument("--box", required=True,
                          help='e.g. "x:[0,10], y:[2,4]"')
    contract.add_argument("--max-rounds", type=int, default=10)
    contract.add_argument("--format", choices=("text", "json"), default="text")
    contract.add_argument("--output")

    check = sub.add_parser("check", help="validate against exhaustive execution")
    _add_common(check)
    check.add_argument("--step-limit", type=int, default=10_000)

    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "optimize": cmd_optimize,
    "instrument": cmd_instrument,
    "contract": cmd_contract,
    "check": cmd_check,
}


def main(argv=None) -> int:
    # intana's objects form no reference cycles, so reference counting frees
    # all they leave behind, and a collection pass would only walk the live
    # ones.  The collector is paused for the command; the caller's setting
    # is restored on every exit, argparse's SystemExit included.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (EnumerationCapError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in intana, never a finding (exit 1)
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
