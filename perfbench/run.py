#!/usr/bin/env python3
"""hamops benchmark: time to a verdict on three workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see BENCHMARK.json for why each was chosen):

* ``pencils``: ``ham --json compat`` on seeded draws of the five
  two-component families, plus ``ham --json bipencil`` on the ten catalog
  pairs with non-degenerate leading terms;
* ``catalog-operators``: ``ham --json catalog verify`` on the 20 operator
  entries;
* ``small-calls``: ``catalog verify`` on the Casimir fixtures and Lie
  structures, ``check`` and ``nijenhuis`` on small operators, and seeded
  expression round trips (parse, normalize, render, parse, equal).

One process, one thread, closed loop: each call starts when the previous one
has returned.  A run sets the workload up several times (fresh import of
hamops, catalog loads, input documents) and reports the median, then runs
whole passes over the inputs until the next pass would overrun ``--seconds``.
Every time reported is a reference time: the wall time scaled by the speed
the host showed at that moment, read off ``ruler.py`` during the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced run of each pass (spans from ``spans.py``) and prints
the per-layer metrics, per traced pass.  Every call's output is checked
against its known answer; ``--json`` outputs are compared with golden.json,
captured with ``capture_golden.py`` for the default seed.  The last line of
stdout is one JSON object; the lines before it carry the same figures for
people, the per-input rows, and the self-time share of each span.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import ruler  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# Ruler readings taken just before and just after each set-up.
SETUP_READINGS = 5
DEFAULT_SEED = 0
# Fixed per workload, so that a faster program, which fits more passes into a
# run, reports the same percentile: one that leaves at least ten samples
# beyond it in a 36-second run of the first program measured (pencils 5
# passes of 15, catalog-operators 2 of 20, small-calls 20+ of 100; pencils
# leaves 9 beyond it when a slow host fits only 4 passes).  On pencils, p80
# falls among the costliest family draws, which differ most from seed to
# seed; p85 leaves fewer of them beyond it.
# catalog-operators repeats 20 fixed entries, so p75 falls between two
# entries and jumps from one to the other; p72.5 falls inside the sixth
# slowest entry's samples for any number of passes.
TAIL_PERCENTILE = {"pencils": 85, "catalog-operators": 72.5, "small-calls": 99}
# Untraced runs make two passes at least, so that the tail percentile of
# catalog-operators always has ten samples beyond it.
MIN_PASSES = 2
# A call still running after this long is stopped and counted as failed, so
# that a run ends in bounded time.  The slowest call, nilpotent6_op, takes
# about 7 s.
CALL_LIMIT_S = 60

HAM_MODULES = ("cli", "catalog", "compatibility", "expr", "operators")


class CallTimeout(BaseException):
    """Raised into a call that overran CALL_LIMIT_S; a BaseException so that
    no handler in the program swallows it."""


def _overran(signum, frame):
    raise CallTimeout(f"no verdict after {CALL_LIMIT_S} s")


class Ham:
    """The hamops modules of one fresh import."""

    def __init__(self):
        for key in [k for k in sys.modules if k == "hamops" or k.startswith("hamops.")]:
            del sys.modules[key]
        for name in HAM_MODULES:
            setattr(self, name, importlib.import_module(f"hamops.{name}"))


def set_up(workload, seed, workdir, host):
    """Set the workload up SETUP_REPEATS times; return the reference times
    and the inputs of the last set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        ham = passes = None
        gc.collect()  # the previous import's modules, outside the timing
        host.read(SETUP_READINGS)
        start = perf_counter()
        ham = Ham()
        passes = workloads.set_up(workload, ham, seed, workdir)
        end = perf_counter()
        host.read(SETUP_READINGS)
        times.append(host.reference_s(start, end))
    gc.collect()
    return times, passes


def remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:  # another run still uses it
        pass


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Results:
    def __init__(self, golden, host):
        self.golden = golden
        self.host = host
        self.timed = []  # (start, end) of each call, wall clock
        self.ms = []  # reference milliseconds of each call, set by finish()
        self.rows = defaultdict(list)  # row -> [(call index, rc, ok)]
        self.wrong = 0
        self.compared = 0
        self.drifted = 0
        self.failed = 0
        self.round_trips = {}  # (context, text) -> set of normal forms
        self.round_trip_runs = defaultdict(int)
        self.problems = []  # (call, kind, exit code, output)

    def run(self, call):
        signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
        start = perf_counter()
        try:
            rc, out = call.run()
        except (Exception, CallTimeout) as exc:  # a wrong verdict, not a crash of the bench
            rc, out = None, f"{type(exc).__name__}: {exc}"
        finally:
            end = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        ok = rc is not None and call.check(rc, out)
        drift = False
        want = self.golden.get(call.golden) if call.golden else None
        if want is not None:
            self.compared += 1
            doc = sha(call.doc_text) if call.doc_text is not None else None
            drift = want.get("out") != sha(out) or want.get("doc") != doc
            self.drifted += drift
        if call.round_trip is not None and rc is not None:
            self.round_trips.setdefault(call.round_trip, set()).add(out)
            self.round_trip_runs[call.round_trip] += 1
        if not ok or drift:
            self.failed += 1
            self.problems.append((call, "wrong" if not ok else "drift", rc, out))
        self.wrong += not ok
        self.rows[call.row].append((len(self.timed), rc, ok))
        self.timed.append((start, end))

    def finish(self):
        """Scale every call's wall time to reference milliseconds."""
        self.host.read()
        self.ms = [self.host.reference_s(start, end) * 1000.0 for start, end in self.timed]

    def total_ms(self, spans_of_calls):
        return [sum(self.ms[i:j]) for i, j in spans_of_calls]

    def check_reference(self, first_pass, contexts):
        """Check the first pass's round trips against sympy, untimed."""
        wanted = {c.round_trip for c in first_pass if c.round_trip}
        todo = [(key, outs) for key, outs in self.round_trips.items() if key in wanted]
        if not todo or not reference.available():
            return 0, "sympy not installed" if todo else "no round trips"
        ref = reference.Reference(contexts)
        bad = 0
        for (index, text), outs in todo:
            if len(outs) != 1 or not ref.agrees(index, text, next(iter(outs))):
                bad += 1
                self.problems.append((None, "reference", index, f"{text} -> {sorted(outs)}"))
                runs = self.round_trip_runs[(index, text)]
                self.wrong += runs
                self.failed += runs
        return len(todo), f"{bad} disagreed"


def run_pass(calls, results):
    """Run one pass; return the range of its calls in ``results``."""
    first = len(results.timed)
    for call in calls:
        results.run(call)
    return first, len(results.timed)


def run_passes(passes, seconds, results, tracer=None):
    """Whole passes until the next one would overrun; returns the call
    ranges of the untraced and of the traced passes."""
    busy = []
    traced = []
    start = perf_counter()
    if tracer is not None:
        # The first pass of a process runs about a tenth slower than later
        # ones (catalog-operators), so in the traced run, which compares each
        # untraced pass with its traced twin, a warm-up pass goes first.  Its
        # calls are checked but belong to neither list.
        run_pass(passes[0], results)
    first = perf_counter()
    k = 0
    while True:
        calls = passes[k % len(passes)]
        busy.append(run_pass(calls, results))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(calls, results))
            finally:
                tracer.remove()
        k += 1
        per_pass = (perf_counter() - first) / k
        if (tracer is not None or k >= MIN_PASSES) and perf_counter() - start + per_pass > seconds:
            return busy, traced


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def end_to_end(workload, setup_s, results, busy_ms):
    ms = results.ms
    p = TAIL_PERCENTILE[workload]
    tail = percentile(ms, p)
    beyond = sum(1 for x in ms if x > tail)
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (len(ms) / (sum(busy_ms) / 1000.0), "1/s"),
        "verdict_ms_p50": (statistics.median(ms), "ms"),
        "verdict_ms_tail": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"verdict_ms_tail": f"p{p} of {len(ms)} samples, {beyond} beyond it"}
    return metrics, notes


def per_layer(tracer, busy_ms, traced_ms, scale):
    """``scale`` turns the tracer's wall seconds into reference ones."""
    passes = len(traced_ms)
    st = tracer.stats
    ev = tracer.events

    def per_pass(x):
        return x / passes

    def ms(name, kind):
        s = st[name]
        return per_pass((s.incl if kind == "ms" else s.self_time) * 1000.0 * scale)

    residuals = st["reports.add"].calls
    metrics = {}
    for name in dict.fromkeys(t[0] for t in spans.TARGETS):
        metrics[f"{name}.calls"] = (per_pass(st[name].calls), "count")
        metrics[f"{name}.ms"] = (ms(name, "ms"), "ms")
        metrics[f"{name}.self_ms"] = (ms(name, "self_ms"), "ms")
    metrics["expr.to_rf.top_calls"] = (per_pass(st["expr.to_rf"].top_calls), "count")
    metrics["expr.to_rf.calls_per_residual"] = (
        st["expr.to_rf"].calls / residuals if residuals else 0.0, "calls/residual")
    metrics["poly.pgcd.size_guard_hits"] = (per_pass(ev["poly.pgcd.size_guard_hits"]), "count")
    metrics["reports.add.residuals"] = (per_pass(residuals), "count")
    metrics["reports.add.trivial_zero_ratio"] = (
        ev["reports.add.trivial_zero"] / residuals if residuals else 0.0, "ratio")
    metrics["reports.distinct_ratio"] = (
        ev["reports.build.records"] / residuals if residuals else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (sum(traced_ms) / sum(busy_ms), "ratio")

    total = sum(traced_ms)
    groups = {
        "share.normalisation": ("expr.to_rf", "expr.normalize"),
        "share.assembly": ("hamiltonian.grinberg_conditions", "hamiltonian.jacobi_conditions",
                           "hamiltonian.mixed_conditions"),
        "share.frontend": ("cli.main", "catalog.load", "catalog.verify", "expr.parse", "expr.render"),
    }
    for key, names in groups.items():
        metrics[key] = (sum(st[n].self_time for n in names) * 1000.0 * scale / total, "ratio")
    shares = {n: s.self_time * 1000.0 * scale / total for n, s in st.items() if s.top_calls}
    return metrics, shares


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)["calls"]
    wanted = declared("per_layer" if args.trace else "end_to_end")
    signal.signal(signal.SIGALRM, _overran)

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    host = ruler.Ruler()
    try:
        host.start()
        setup_times, passes = set_up(args.workload, args.seed, workdir, host)
        setup_s = statistics.median(setup_times)
        results = Results(golden, host)
        tracer = spans.Tracer() if args.trace else None
        busy_calls, traced_calls = run_passes(passes, args.seconds, results, tracer)
        host.stop()
        results.finish()
        busy, traced = results.total_ms(busy_calls), results.total_ms(traced_calls)
        if args.trace:
            wall_ms = sum((end - start) * 1000.0
                          for i, j in traced_calls for start, end in results.timed[i:j])
            metrics, shares = per_layer(tracer, busy, traced, sum(traced) / wall_ms)
            notes = {}
        else:
            metrics, notes = end_to_end(args.workload, setup_s, results, busy)
            shares = {}
    finally:
        host.stop()
        remove_workdir(workdir)
    checked, verdict = results.check_reference(passes[0], workloads.ROUND_TRIP_CONTEXTS)

    attempted = len(results.ms)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(busy)} passes, {attempted} calls")
    for row, samples in sorted(results.rows.items()):
        ms = statistics.median(results.ms[s[0]] for s in samples)
        codes = ",".join(sorted({str(s[1]) for s in samples}))
        ok = all(s[2] for s in samples)
        print(f"row {row} n={len(samples)} ms={ms:.3f} exit={codes} ok={ok}")
    for call, kind, rc, out in results.problems[:20]:
        where = call.round_trip[1] if call and call.round_trip else (call.row if call else "")
        print(f"{kind} {where} exit={rc} output={out[:300]!r}")
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"self-share {name} {share:.4f}")
    print(f"metric wrong_verdict_ratio {results.wrong / attempted:.6f} ratio "
          f"({results.wrong} of {attempted})")
    print(f"metric report_drift_ratio "
          f"{results.drifted / results.compared if results.compared else 0.0:.6f} ratio "
          f"({results.drifted} of {results.compared} compared with golden.json)")
    print(f"reference round trips checked against sympy: {checked} ({verdict})")
    print("set-up times (reference s): " + " ".join(f"{t:.3f}" for t in setup_times))
    print(f"ruler: {len(host.took)} readings, median {statistics.median(host.took) * 1000:.3f} ms, "
          f"nominal {ruler.NOMINAL_S * 1000:.3f} ms")
    for name, (value, unit) in metrics.items():
        extra = f" ({notes[name]})" if name in notes else ""
        print(f"metric {name} {value:.6g} {unit}{extra}")

    out = {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted}
    print(json.dumps({
        "correct": results.failed == 0,
        "attempted": attempted,
        "failed": results.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
