"""intana benchmark: three workloads driven through `intana.cli.main`.

Usage (from the repository root):

    python3 perfbench/run.py --workload fuzz-check --seed 1 --seconds 30 --trace 0

Workloads (one caller, closed loop: each program starts only after the
previous one has finished):

- fuzz-check: the corpus plus seeded fuzz programs, each through
  `intana check`.  Many small programs, so per-call fixed costs and a
  roughly even split between analysis and the oracle show.
- scale-rewrite: the synthetic size-scaling family, each member through
  `intana optimize --format json` then `intana instrument`.  Fixpoint,
  contractor and rewrites do the work; the oracle does none while timed.
- oracle-enum: small programs with 2-3 wide nondet ranges through
  `intana check`.  The oracle does almost all of the work.

A run sets up (import, input generation, writing inputs, one warm-up
program) several times and reports the median as `setup_s`, then repeats
passes over the workload's programs until `--seconds` have elapsed.  A
program's latency is the median of its passes.  Every output is verified
outside the timed region; a failure is counted, never dropped.

Times are scaled to a reference machine speed (see Clock): on a shared
2-vCPU VM the same Python code ran 1.1x to 2x slower in contention
phases lasting seconds to minutes, far wider than any bound a regression
check could use.  A fixed slice of reference work
is timed before and after every command and every TICK_S during it, and
the command's wall time is multiplied by KERNEL_REF_S over the mean of
those reference times.  Unscaled wall-clock metrics are printed and kept
next to the scaled ones in the details file.

With `--trace 1` the run also makes two traced passes that wrap each
layer's public functions (see layers.py) and prints the per-layer
metrics instead of the end-to-end ones.  The last line of standard
output is always one JSON object: correct, attempted, failed, metrics.
Details (per-program rows, span dumps) go under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS, Installed, Tracer  # noqa: E402
from programs import (Program, SCALE_LADDER, fuzz_programs,  # noqa: E402
                      oracle_programs, reference_work, scale_family)

WORKLOADS = {
    # name: (programs in a full run, programs in smoke mode, layers exercised)
    "fuzz-check": ((30, 900), (3, 3),
                   {"cli", "parser", "cfg", "absint", "contractor", "optimize",
                    "instrument", "oracle"}),
    "scale-rewrite": (len(SCALE_LADDER), 2,
                      {"cli", "parser", "cfg", "pretty", "absint", "contractor",
                       "optimize", "instrument"}),
    "oracle-enum": (40, 3,
                    {"cli", "parser", "cfg", "absint", "contractor", "optimize",
                     "instrument", "oracle"}),
}

END_TO_END = (
    ("setup_s", "s"),
    ("programs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("largest_program_s", "s"),
    ("growth_exponent", "1"),
    ("peak_rss_mb", "MB"),
)

SETUP_REPS = 5
TAIL_BEYOND = 10
# About the fastest time of reference_work() on an uncontended core of a
# shared 2-vCPU VM (Python 3.11); scaled times read as times at that speed.
# Changing it rescales every time the benchmark reports.
KERNEL_REF_S = 0.0001
TICK_S = 0.02


class Clock:
    """Wall time scaled by the machine speed measured during each interval.

    While the clock runs, a SIGALRM timer times reference_work() every
    TICK_S.  An interval's scale factor is KERNEL_REF_S over the mean of
    the reference times sampled inside it and at its two ends; the ticks'
    own time is taken out of the interval first.
    """

    def __init__(self):
        self.ticks: "list[tuple[float, float]]" = []  # (reference time, tick cost)
        self.probing = False
        self.last = self.probe()
        self.raw_total = self.scaled_total = 0.0

    def __enter__(self) -> "Clock":
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _tick(self, signum, frame) -> None:
        if not self.probing:
            start = time.perf_counter()
            speed = self.probe()
            self.ticks.append((speed, time.perf_counter() - start))

    def probe(self) -> float:
        """Fastest of three back-to-back runs, so cold caches do not count."""
        self.probing = True
        took = math.inf
        for _ in range(3):
            start = time.perf_counter()
            reference_work()
            took = min(took, time.perf_counter() - start)
        self.probing = False
        return took

    def start(self) -> "tuple[float, int]":
        return time.perf_counter(), len(self.ticks)

    def stop(self, started: "tuple[float, int]") -> "tuple[float, float]":
        """(raw, scaled) seconds since `started`; brackets the next interval too."""
        raw = time.perf_counter() - started[0]
        inside = self.ticks[started[1]:]
        raw -= sum(cost for _, cost in inside)
        before, self.last = self.last, self.probe()
        speed = [before, self.last] + [speed for speed, _ in inside]
        scaled = raw * KERNEL_REF_S * len(speed) / sum(speed)
        self.raw_total += raw
        self.scaled_total += scaled
        return raw, scaled


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken warm-up)."""


@dataclass
class Job:
    """One input program, its commands, and what its passes produced."""

    program: Program
    commands: "list[tuple[list[str], Path]]"
    times: "list[float]" = field(default_factory=list)
    raw_times: "list[float]" = field(default_factory=list)
    digest: "str | None" = None
    outputs: "list[str] | None" = None
    errors: "list[str]" = field(default_factory=list)
    runs: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.errors)


# --- set-up -------------------------------------------------------------------

def load_intana():
    """Import intana from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "intana" or m.startswith("intana.")]:
        del sys.modules[name]
    if not SRC.is_dir():
        raise BenchError("no src/ directory at %s" % ROOT)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import intana.cli
        import intana.oracle
    except ImportError as exc:
        raise BenchError("cannot import intana: %s" % exc) from exc
    if Path(intana.cli.__file__).resolve().parents[1] != SRC:
        raise BenchError("imported intana from %s, not %s" % (intana.cli.__file__, SRC))
    return sys.modules["intana"]


def make_programs(workload: str, seed: int, smoke: bool) -> "list[Program]":
    rng = random.Random(seed)
    count = WORKLOADS[workload][1 if smoke else 0]
    if workload == "fuzz-check":
        corpus = [Program(p.stem, p.read_text(encoding="utf-8"), 0)
                  for p in sorted((ROOT / "corpus").glob("*.mini"))]
        if not corpus:
            raise BenchError("no corpus/*.mini programs at %s" % ROOT)
        for prog in corpus:
            prog.size = prog.lines
        return corpus[:count[0]] + fuzz_programs(rng, count[1])
    if workload == "scale-rewrite":
        return scale_family(rng, SCALE_LADDER[:count])
    return oracle_programs(rng, count)


def make_jobs(workload: str, programs, workdir: Path) -> "list[Job]":
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for prog in programs:
        src = workdir / (prog.name + ".mini")
        src.write_text(prog.source, encoding="utf-8")
        if workload == "scale-rewrite":
            commands = [(["optimize", str(src), "--format", "json", "--output",
                          str(workdir / (prog.name + ".opt.json"))],
                         workdir / (prog.name + ".opt.json")),
                        (["instrument", str(src), "--output",
                          str(workdir / (prog.name + ".ins.mini"))],
                         workdir / (prog.name + ".ins.mini"))]
        else:
            out = workdir / (prog.name + ".check.txt")
            commands = [(["check", str(src), "--output", str(out)], out)]
        jobs.append(Job(prog, commands))
    return jobs


def set_up(clock: Clock, workload: str, seed: int, smoke: bool, workdir: Path):
    """Import, generate, write inputs into the fresh `workdir`, warm up once.

    Returns ((raw, scaled) seconds, intana, jobs).
    """
    started = clock.start()
    intana = load_intana()
    jobs = make_jobs(workload, make_programs(workload, seed, smoke), workdir)
    warm = Job(jobs[0].program, jobs[0].commands)
    # A clock of its own, so the warm-up's brackets do not split this interval.
    run_job(Clock(), intana.cli, warm, workload)
    jobs[0].errors += ["warm-up: " + error for error in warm.errors]
    return clock.stop(started), intana, jobs


# --- one pass -----------------------------------------------------------------

def run_job(clock: Clock, cli, job: Job, workload: str) -> "float | None":
    """Run a program's commands once; verify and record its outputs.

    Returns the scaled seconds the commands took, or None on failure.
    """
    job.runs += 1
    raw = scaled = 0.0
    outputs = []
    for argv, out in job.commands:
        started = clock.start()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed program
            code = "%s: %s" % (type(exc).__name__, exc)
        took = clock.stop(started)
        raw += took[0]
        scaled += took[1]
        if code != 0:
            job.errors.append("%s exited %r" % (argv[0], code))
            return None
        outputs.append(out.read_text(encoding="utf-8"))
        # The next run writes a fresh file: rewriting a truncated one makes
        # ext4 flush it on close, which adds disk waits to the timed command.
        out.unlink()
    if workload != "scale-rewrite":
        last = outputs[0].rstrip().splitlines()[-1:]
        if last != ["result: clean"]:
            job.errors.append("check did not report clean: %r" % outputs[0][-200:])
            return None
    digest = hashlib.sha256("\0".join(outputs).encode()).hexdigest()
    if job.digest is None:
        job.digest, job.outputs = digest, outputs
    elif digest != job.digest:
        job.errors.append("output differs between passes")
        return None
    job.times.append(scaled)
    job.raw_times.append(raw)
    return scaled


def run_pass(clock: Clock, cli, jobs, workload: str, tracer: "Tracer | None" = None,
             deadline: float = math.inf) -> "float | None":
    """One closed-loop pass over every program; returns its scaled seconds.

    Stops early, returning None, once `deadline` (a perf_counter time) has
    passed.
    """
    total = 0.0
    for job in jobs:
        if time.perf_counter() >= deadline:
            return None
        if tracer is not None:
            tracer.request = job.program.name
        total += run_job(clock, cli, job, workload) or 0.0
    return total


# --- verification (outside the timed region) ----------------------------------

class _State:
    """An analysis state parsed back from the JSON document."""

    def __init__(self, box):
        self.box = box

    def as_dict(self):
        return self.box


def analyses_from_document(doc, interval_cls):
    """The per-node `before` states of an intana JSON document, shaped like
    `analyze_program`'s result as far as `check_soundness` reads it."""
    analyses = {}
    for node in doc["nodes"]:
        fname, nid = node["id"].rsplit(":", 1)
        box = {var: interval_cls.parse(text) for var, text in node["before"].items()}
        analysis = analyses.setdefault(fname, SimpleNamespace(result=SimpleNamespace(before={})))
        analysis.result.before[int(nid)] = _State(box)
    return analyses


def verify(job: Job, workload: str) -> None:
    """Exhaustive checks of one program's outputs; failures go into job.errors."""
    if job.failed or job.outputs is None:
        return
    from intana.interval import Interval
    from intana.lang import parse_program
    from intana.oracle import check_equivalence, check_soundness, enumerate_executions

    original = parse_program(job.program.source)
    record = workload == "scale-rewrite"
    executions = enumerate_executions(original, record_trace=record)
    limited = sum(s.verdict == "step-limit" for s in executions)
    if limited:
        job.errors.append("%d execution(s) hit the step limit" % limited)
    if workload == "oracle-enum" and len(executions) != job.program.size:
        job.errors.append("%d executions, generator promised %d"
                          % (len(executions), job.program.size))
    if not record:
        return
    doc = json.loads(job.outputs[0])
    violations = check_soundness(original, analyses_from_document(doc, Interval),
                                 executions=executions)
    if violations:
        job.errors.append("analysis unsound: %r" % (violations[0],))
    for label, text in (("optimize", doc["program"]), ("instrument", job.outputs[1])):
        if not check_equivalence(original, parse_program(text)):
            job.errors.append("%s output not equivalent to the original" % label)


# --- metrics ------------------------------------------------------------------

def log_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    den = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / den if den else 0.0


def tail(values) -> "tuple[float, float]":
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    With too few samples for that, the maximum (reported as p100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(jobs, setup_s: float, raw: bool = False) -> "tuple[dict, dict]":
    """End-to-end metrics from each program's median time over its passes."""
    timed = [j for j in jobs if j.times and not j.failed]
    if not timed:
        return {}, {}
    median = {j.program.name: statistics.median(j.raw_times if raw else j.times)
              for j in timed}
    latencies = list(median.values())
    tail_s, tail_pct = tail(latencies)
    ranked = sorted(timed, key=lambda j: (-j.program.size, j.program.name))
    largest = ranked[:max(1, len(ranked) // 5)]
    metrics = {
        "setup_s": setup_s,
        "programs_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * tail_s,
        "largest_program_s": statistics.median(median[j.program.name] for j in largest),
        "growth_exponent": log_slope([j.program.size for j in timed],
                                     [median[j.program.name] for j in timed]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(latencies),
        "largest_programs": [j.program.name for j in largest],
    }
    return metrics, notes


def rows(jobs) -> "list[dict]":
    from intana.lang import build_cfg, parse_program

    out = []
    for job in jobs:
        prog = job.program
        row = {"program": prog.name, "lines": prog.lines, "size": prog.size,
               "median_s": statistics.median(job.times) if job.times else None,
               "raw_median_s": statistics.median(job.raw_times) if job.times else None,
               "times_s": job.times, "raw_times_s": job.raw_times,
               "failed": job.errors[:3]}
        row.update(prog.meta)
        if "nv" in prog.meta:
            parsed = parse_program(prog.source)
            row["cfg_nodes"] = sum(len(build_cfg(fn).nodes)
                                   for fn in parsed.functions.values())
            if job.outputs is not None:
                row["rewrites"] = json.loads(job.outputs[0])["report"]
                row["instrument_points"] = job.outputs[1].count("\n// ")
        out.append(row)
    return out


# --- entry point --------------------------------------------------------------

def traced_passes(clock: Clock, intana, jobs, workload: str, untraced_pass_s: float):
    """Two traced passes; their counts must agree and every wrapper must fire.

    Returns (tracer of the first pass, its layer metrics, counters that
    differed between the passes).
    """
    layers = WORKLOADS[workload][2]
    results = []
    for _ in range(2):
        tracer = Tracer()
        installed = Installed(tracer, layers)
        raw_before, scaled_before = clock.raw_total, clock.scaled_total
        try:
            pass_s = run_pass(clock, intana.cli, jobs, workload, tracer)
        finally:
            installed.remove()
        silent = installed.silent()
        if silent:
            raise BenchError("wrappers never fired: %s" % ", ".join(silent))
        scale = (clock.scaled_total - scaled_before) / (clock.raw_total - raw_before)
        results.append((tracer, pass_s, scale))
    (tracer, pass_s, scale), (again, _, _) = results
    changed = sorted(k for first, second in ((tracer.counts, again.counts),
                                             (tracer.fired, again.fired))
                     for k in set(first) | set(second) if first[k] != second[k])
    # Span times are wall-clock; scale them like the end-to-end times.
    metrics = tracer.metrics()
    for name, unit, _, _ in LAYER_METRICS:
        if name in metrics and unit == "s":
            metrics[name] *= scale
        elif name in metrics and unit == "1/s":
            metrics[name] /= scale
    metrics["trace.overhead_s"] = pass_s - untraced_pass_s
    return tracer, metrics, changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a handful of programs, one pass: checks wiring, not speed")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = OUT / ("work-%d" % os.getpid())
    try:
        with Clock() as clock:
            setups = []
            for rep in range(1 if args.smoke else SETUP_REPS):
                took, intana, jobs = set_up(clock, args.workload, args.seed, args.smoke,
                                            workdir / ("setup%d" % rep))
                setups.append(took)
            setup_s = statistics.median(scaled for _, scaled in setups)

            # Every program runs at least once; after that, passes go on until
            # the time is up, stopping mid-pass so a run ends on time.
            deadline = time.perf_counter() + args.seconds
            pass_times = [run_pass(clock, intana.cli, jobs, args.workload)]
            while not args.smoke:
                took = run_pass(clock, intana.cli, jobs, args.workload, deadline=deadline)
                if took is None:
                    break
                pass_times.append(took)
            metrics, notes = end_to_end(jobs, setup_s)
            raw_metrics, _ = end_to_end(jobs, statistics.median(raw for raw, _ in setups),
                                        raw=True)

            traced = None
            if args.trace:
                traced = traced_passes(clock, intana, jobs, args.workload,
                                       statistics.median(pass_times))
                if traced[2]:
                    for job in jobs:
                        job.errors.append("traced counts changed between passes: %s"
                                          % ", ".join(traced[2]))
        for job in jobs:
            verify(job, args.workload)
        table = rows(jobs)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(j.runs for j in jobs)
    failed = sum(j.runs for j in jobs if j.failed)
    for job in jobs:
        if job.failed:
            print("FAILED %s: %s" % (job.program.name, "; ".join(job.errors[:3])))
    if args.workload == "scale-rewrite":
        print("%-11s %5s %3s %3s %3s %6s %9s %9s" % (
            "member", "lines", "nv", "lp", "ns", "nodes", "median_s", "raw_s"))
        for row in table:
            print("%-11s %5d %3d %3d %3d %6d %9.4f %9.4f" % (
                row["program"], row["lines"], row["nv"], row["lp"], row["ns"],
                row["cfg_nodes"], row["median_s"] or math.nan, row["raw_median_s"] or math.nan))
    print("passes: %d; failed_share: %.4f (%d of %d program runs)"
          % (len(pass_times), failed / attempted, failed, attempted))
    if notes:
        print("latency_tail_ms is p%.2f of %d programs"
              % (notes["latency_tail_percentile"], notes["latency_samples"]))
        print("unscaled wall-clock: " + ", ".join(
            "%s %.6g" % item for item in raw_metrics.items()))

    if traced is None:
        units = dict(END_TO_END)
        report = {name: {"value": metrics.get(name), "unit": units[name]}
                  for name, _ in END_TO_END}
    else:
        tracer, layer_metrics, _ = traced
        print("tracing overhead: %+.4f s per pass (untraced pass median %.4f s)"
              % (layer_metrics["trace.overhead_s"], statistics.median(pass_times)))
        for name, unit, _, moves in LAYER_METRICS:
            print("  %-34s %14.6g %-5s -> %s" % (name, layer_metrics[name], unit, moves))
        report = {name: {"value": layer_metrics[name], "unit": unit}
                  for name, unit, _, _ in LAYER_METRICS}

    OUT.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "passes": len(pass_times),
              "setup_samples_s": setups, "pass_times_s": pass_times,
              "notes": notes, "metrics": report, "unscaled_metrics": raw_metrics,
              "rows": table,
              "failed_share": failed / attempted}
    tag = "%s_seed%d%s" % (args.workload, args.seed, "_trace" if args.trace else "")
    (OUT / ("BENCH_%s.json" % tag)).write_text(json.dumps(detail, indent=1) + "\n")
    if traced is not None:
        (OUT / ("spans_%s.json" % tag)).write_text(json.dumps(traced[0].dump()) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
