"""One workload in a fresh interpreter: set-up, a closed loop, checks.

bench/run.py starts this script and reads the one JSON line it prints:

    python3 bench/worker.py --workload java_files --seed 1 --seconds 15
    python3 bench/worker.py --workload java_files --setup-only

The loop runs whole rounds of operations (see workloads.py) from one
thread, each operation starting when the previous one has returned, until
the operations have taken --seconds and at least MIN_OPS were attempted.
Each output is checked after its operation, outside the timed region.
With --trace the run also records spans (tracer.py): one round untraced,
then traced rounds for --seconds, then a tracemalloc pass over the parser.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
# Set-up is timed as a user meets it: importing from cached bytecode, as
# after an install.  Write the caches even under PYTHONDONTWRITEBYTECODE;
# run.py discards its first set-up, which may have had to compile.
sys.dont_write_bytecode = False

import gramweave  # noqa: E402  (the import is part of set-up time)

T_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import nullcontext  # noqa: E402

sys.path.append(os.path.join(ROOT, "tests"))

import checks  # noqa: E402
import workloads  # noqa: E402
from gramweave import (annotations, aspects, earley, grammar,  # noqa: E402
                       highlight, lexer, prettyprint)
from support import reference_format  # noqa: E402
from tracer import OP, SETUP, Tracer  # noqa: E402

FIXTURES = os.path.join(ROOT, "tests", "fixtures")
MIN_OPS = 100  # so that p90 has ten operations beyond it
# Median time of calibration_unit() at the machine speed that times are
# reported at (see README: "Times at reference speed").
REFERENCE_UNIT_S = 0.006
SETUP_CALIBRATION = 10  # calibration units after set-up
CALIBRATION_REACH = 2  # an operation's time is scaled by 2 units either side


def _read(*parts) -> str:
    with open(os.path.join(*parts), encoding="utf-8") as f:
        return f.read()


def calibration_unit() -> float:
    """Time a fixed piece of pure-Python work that shares no code with
    gramweave: object allocation, dict and list traffic, sorting and the
    pure-Python JSON encoder."""
    t0 = time.perf_counter()
    rng = random.Random(20100113)
    buckets: dict = {}
    for i in range(800):
        buckets.setdefault(rng.randrange(97), []).append(("k%d" % i, i % 13, (i,)))
    doc = {str(k): sorted(v) for k, v in buckets.items()}
    json.dumps(doc, indent=2)
    return time.perf_counter() - t0


# Each workload loads what its operations share in __init__ (set-up), runs
# one operation in run(), and checks run()'s output in check(), which may
# drop parts of the output as soon as it is done with them.

class JavaFiles:
    start = "normalClassDeclaration"

    def __init__(self):
        self.grammar = grammar.parse_grammar(_read(FIXTURES, "java5.g"), "java5.g")
        self.lexer = lexer.parse_lexer_spec(_read(FIXTURES, "java.lex"), "java.lex")
        self.aspects = [aspects.parse_aspect(_read(FIXTURES, name), name)
                        for name in ("highlight.aspect", "pretty.aspect")]
        self.store = aspects.weave(self.grammar, self.aspects)
        self.palette = highlight.parse_palette(_read(FIXTURES, "palette.txt"),
                                               "palette.txt")

    def run(self, case) -> dict:
        tokens = lexer.tokenize(self.lexer, self.grammar, case.text)
        tree = earley.parse_input(self.grammar, self.start, tokens)
        spans = highlight.assign_groups(tree, self.store)
        rendered = highlight.render_ansi(case.text, spans, self.palette)
        return {"tree": tree, "spans": spans, "rendered": rendered,
                "formatted": prettyprint.format_tree(tree, self.store)}

    def check(self, case, out: dict) -> list:
        failed = checks.java_groups(case, out.pop("spans"))
        failed += checks.java_render(case, out.pop("rendered"))
        reference = reference_format(out.pop("tree"), self.store)
        return failed + checks.java_format(case, out.pop("formatted"),
                                           reference, self._reformat)

    def _reformat(self, text: str) -> tuple:
        tokens = lexer.tokenize(self.lexer, self.grammar, text)
        tree = earley.parse_input(self.grammar, self.start, tokens)
        return [t.text for t in tokens], prettyprint.format_tree(tree, self.store)


class ArithLong:
    start = "expr"

    def __init__(self):
        self.grammar = grammar.parse_grammar(_read(FIXTURES, "arith.g"), "arith.g")
        self.lexer = lexer.parse_lexer_spec(_read(FIXTURES, "arith.lex"), "arith.lex")
        self.aspects = [aspects.parse_aspect(_read(BENCH, "arith.aspect"),
                                             "arith.aspect")]
        self.store = aspects.weave(self.grammar, self.aspects)

    def run(self, case) -> dict:
        tokens = lexer.tokenize(self.lexer, self.grammar, case.text)
        tree = earley.parse_input(self.grammar, self.start, tokens)
        highlight.assign_groups(tree, self.store)
        return {"tree": tree}

    def check(self, case, out: dict) -> list:
        return checks.arith(case, out.pop("tree"))


class WeaveGrammars:
    def __init__(self):
        self.aspects = [aspects.parse_aspect(_read(BENCH, "weave.aspect"),
                                             "weave.aspect")]

    def run(self, case) -> dict:
        tree = grammar.parse_grammar(case.text, "synthetic.g")
        store = aspects.weave(tree, self.aspects)
        return {"tree": tree, "store": store,
                "text": annotations.serialize_store(store)}

    def check(self, case, out: dict) -> list:
        return checks.weave(case, gramweave, self.aspects, out.pop("tree"),
                            out.pop("store"), out.pop("text"))


WORKLOADS = {"java_files": JavaFiles, "arith_long": ArithLong,
             "weave_grammars": WeaveGrammars}


class Tally:
    """Per-operation outcomes of one loop, in the order they ran."""

    def __init__(self, workload: str):
        self.workload = workload
        self.times: list = []
        self.ok: list = []
        self.bytes: list = []
        self.rounds: list = []
        self.calibration: list = []
        self.problems: list = []

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def record(self, case, round_index: int, seconds: float, failures: list,
               error) -> None:
        n = len(self.times)
        passed = error is None and not failures
        self.times.append(seconds)
        self.ok.append(passed)
        self.bytes.append(len(case.text.encode("utf-8")))
        self.rounds.append(round_index)
        if not passed and not (error == "RecursionError" and case.past_limit):
            what = error or "check failed: " + ", ".join(failures)
            self.problems.append(f"{self.workload} op {n} ({case.shape}, size "
                                 f"{case.size}): {what}")
        # a past-limit input failing with RecursionError is the known fault

    def _ranked(self, times, ops) -> list:
        # failed operations rank as slower than any passing one
        return (sorted(times[i] for i in ops if self.ok[i])
                + sorted(times[i] for i in ops if not self.ok[i]))

    def _by_round(self) -> list:
        rounds: dict = {}
        for i, r in enumerate(self.rounds):
            rounds.setdefault(r, []).append(i)
        return list(rounds.values())

    def scale(self) -> float:
        """Factor from this run's times to times at reference speed."""
        return REFERENCE_UNIT_S / statistics.median(self.calibration)

    def scaled(self) -> list:
        """Each operation's time at reference speed, scaled by the median of
        the calibration units nearest it in time: the machine's speed drifts
        within a run too."""
        cal = self.calibration
        return [t * REFERENCE_UNIT_S / statistics.median(
                    cal[max(0, i - CALIBRATION_REACH):i + CALIBRATION_REACH + 1])
                for i, t in enumerate(self.times)]

    def percentile_ms(self, q: float) -> float:
        ranked = self._ranked(self.scaled(), range(len(self.times)))
        return 1000 * ranked[max(0, math.ceil(q * len(ranked)) - 1)]

    def kib_per_s(self) -> float:
        """Median over rounds of KiB per second in passing operations."""
        times = self.scaled()
        return statistics.median(
            sum(self.bytes[i] for i in ops if self.ok[i]) / 1024
            / sum(times[i] for i in ops if self.ok[i])
            for ops in self._by_round())


def attempt(w, case, round_index: int, tracer, tally: Tally) -> None:
    """Run, time and check one operation."""
    if tracer is not None:
        tracer.enable()
    with tracer.span(OP) if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        try:
            out, error = w.run(case), None
        except RecursionError:
            out, error = None, "RecursionError"
        except Exception:  # report it and go on with the run
            out, error = None, traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.disable()
    failures = w.check(case, out) if error is None else []
    tally.record(case, round_index, seconds, failures, error)
    tally.calibration.append(calibration_unit())


def loop(w, args, tracer=None) -> Tally:
    make = workloads.ROUNDS[args.workload]
    size = workloads.QUICK if args.quick else workloads.FULL
    tally = Tally(args.workload)
    r = 0
    while True:
        for case in make(args.seed, r, size):
            attempt(w, case, r, tracer, tally)
        r += 1
        if args.quick or (sum(tally.times) >= args.seconds
                          and tally.attempted >= MIN_OPS):
            return tally


def parse_peak_kib(w, cases) -> float:
    """Largest tracemalloc peak of one parse_input call over cases."""
    if not hasattr(w, "start"):
        return 0.0
    peak = 0
    tracemalloc.start()
    try:
        for case in cases:
            tokens = lexer.tokenize(w.lexer, w.grammar, case.text)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                earley.parse_input(w.grammar, w.start, tokens)
            except RecursionError:
                pass
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 1024


def traced_run(w, args, tracer: Tracer) -> tuple:
    """Untraced round 0, traced rounds, then the tracemalloc pass."""
    size = workloads.QUICK if args.quick else workloads.FULL
    round0 = workloads.ROUNDS[args.workload](args.seed, 0, size)
    untraced = Tally(args.workload)
    for case in round0:
        attempt(w, case, 0, None, untraced)
    tally = loop(w, args, tracer)
    traced = sum(tally.scaled()[:len(round0)])  # round 0 again, traced
    metrics = {name: value * tally.scale() if name.endswith("_s") else value
               for name, value in tracer.per_layer().items()}
    metrics["trace.overhead_pct"] = 100 * (traced / sum(untraced.scaled()) - 1)
    metrics["earley.parse_input_peak_kib"] = parse_peak_kib(w, round0)
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    tracer.write(os.path.join(BENCH, "results", f"trace-{args.workload}.csv.gz"))
    tally.problems += untraced.problems
    return tally, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = Tracer() if args.trace and not args.setup_only else None
    if tracer is not None:
        tracer.enable()
    with tracer.span(SETUP) if tracer is not None else nullcontext():
        t_load = time.perf_counter()
        w = WORKLOADS[args.workload]()
        t_loaded = time.perf_counter()
    if tracer is not None:
        tracer.disable()
    # calibrated right after set-up, in the same process, as the operations
    # are (see calibration_unit)
    scale = REFERENCE_UNIT_S / statistics.median(
        calibration_unit() for _ in range(SETUP_CALIBRATION))
    result = {"import_s": (T_IMPORT - T0) * scale,
              "setup_s": ((T_IMPORT - T0) + (t_loaded - t_load)) * scale}
    if not args.setup_only:
        if tracer is None:
            tally = loop(w, args)
            result["metrics"] = {
                "kib_per_s": tally.kib_per_s(),
                "op_ms_p50": tally.percentile_ms(0.5),
                "op_ms_p90": tally.percentile_ms(0.9),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            tally, result["metrics"] = traced_run(w, args, tracer)
        for problem in tally.problems:
            print(problem, file=sys.stderr)
        result.update(attempted=tally.attempted, failed=tally.failed,
                      correct=not tally.problems, problems=len(tally.problems))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
