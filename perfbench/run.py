"""Closed-loop benchmark of the ``dualfix`` CLI, end to end and per layer.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 40 --trace 0

One client sends one request at a time and waits for its answer (a closed
loop with a single client, no threads); each invocation is a fresh worker
process.  A request is ``dualfix.cli.main(argv)`` called in this process
with ``-o`` pointing at a scratch file, which times the real CLI path
(argparse, JSON loading, validation, quotient, answer, serialisation)
without interpreter start-up.  Every answer is checked against the
closed-form expectation from ``instances``, outside the timed section.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates a
plain pass over the same requests with a traced replay (see ``tracing``) and
prints the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import instances
import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent
MIN_ACCEPTED = 100  # so that the per-sample p90 has ten samples beyond it
SETUP_REPEATS = 9
WALL_LIMIT_S = 150.0  # stop looping even if MIN_ACCEPTED is not reached


def import_dualfix():
    """Import the package afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "dualfix" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dualfix sources in {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "dualfix" or m.startswith("dualfix.")]:
        del sys.modules[name]
    import dualfix
    from dualfix import cli, duality, errors, fixpoint, jsonio, lattice, poset

    if not Path(dualfix.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: dualfix imported from {dualfix.__file__}, not from {src}")
    return SimpleNamespace(cli=cli, duality=duality, errors=errors, fixpoint=fixpoint, jsonio=jsonio,
                           lattice=lattice, poset=poset)


class Prepared:
    """A request written to disk, with its full argv and check state."""

    def __init__(self, req, argv, out, bytes_in):
        self.req = req
        self.argv = argv
        self.out = out
        self.bytes_in = bytes_in
        self.cache = {}
        self.digest = None  # sha256 of the last output that passed the check


def write_pool(pool, directory, out):
    preps = []
    for i, req in enumerate(pool):
        d = directory / f"r{i:03d}"
        d.mkdir(parents=True)
        bytes_in = 0
        for name, obj in req.files.items():
            data = json.dumps(obj)
            (d / name).write_text(data, encoding="utf-8")
            bytes_in += len(data.encode())
        argv = [str(d / a) if a in req.files else a for a in req.argv] + ["-o", str(out)]
        preps.append(Prepared(req, argv, out, bytes_in))
    return preps


def serve(dx, prep):
    """One CLI request; returns (exit code, seconds, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = perf_counter()
        rc = dx.cli.main(prep.argv)
        dt = perf_counter() - t0
    return rc, dt, err.getvalue()


def verify(prep, rc, err):
    """Check an answer; byte-identical repeats of a checked answer pass at once."""
    if prep.req.expect == "reject":
        return oracle.check(prep.req, rc, "", err, prep.cache)
    data = prep.out.read_bytes()
    digest = hashlib.sha256(data).digest()
    if rc == 0 and digest == prep.digest:
        return None
    problem = oracle.check(prep.req, rc, data.decode("utf-8", "replace"), err, prep.cache)
    if problem is None:
        prep.digest = digest
    return problem


class Tally:
    def __init__(self):
        self.accepted = []  # seconds per correctly answered valid request
        self.rejected = []  # seconds per correctly refused invalid request
        self.best = {}  # request label -> its fastest correct time
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, prep, dt):
        (self.rejected if prep.req.expect == "reject" else self.accepted).append(dt)
        self.best[prep.req.label] = min(dt, self.best.get(prep.req.label, dt))

    def fail(self, prep, problem):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{prep.req.label}: {problem}")


def run_pass(order, tally, serve_one):
    """Serve every request once; returns the summed request time."""
    busy = 0.0
    for i, prep in enumerate(order):
        tally.attempted += 1
        try:
            rc, dt, err = serve_one(prep, i)
            problem = verify(prep, rc, err)
        except Exception as exc:  # a crash is a failed request; the loop goes on
            traceback.print_exc(file=sys.stderr)
            tally.fail(prep, f"raised {exc!r}")
            continue
        busy += dt
        if problem:
            tally.fail(prep, problem)
        else:
            tally.record(prep, dt)
    return busy


def setup(workload, seed, scale, work, tally):
    """Import ``dualfix``, write the instances and serve one warm-up request, several times.

    Returns (modules, median seconds of one set-up, requests in serving order).
    """
    times = []
    for k in range(SETUP_REPEATS):
        t0 = perf_counter()
        dx = import_dualfix()
        pool = instances.make_pool(workload, seed, scale)
        preps = write_pool(pool, work / f"setup{k}", work / "out.txt")
        rc, _, err = serve(dx, preps[0])
        problem = verify(preps[0], rc, err)
        times.append(perf_counter() - t0)
        tally.attempted += 1
        if problem:
            tally.fail(preps[0], f"warm-up: {problem}")
    order = preps[:]
    random.Random(f"order:{workload}:{seed}").shuffle(order)
    return dx, statistics.median(times), order


def _ms_decile(samples, decile):
    """The ``decile``-th tenth of the samples (5 is the median), in milliseconds."""
    if len(samples) < 2:
        return float("nan")
    return 1000 * statistics.quantiles(samples, n=10, method="inclusive")[decile - 1]


def measure(dx, order, seconds, tally):
    """Whole passes until ``seconds`` have passed and MIN_ACCEPTED answers are in.

    The machine this runs on is shared, and its speed drifts by a fifth or
    more over minutes.  So the latency of a request is the fastest of its
    passes, the percentiles are taken over the requests of the pool, and the
    throughput is the pool size over the sum of those fastest times.
    Figures over every sample are printed in the table as ``*.all_*``.
    """
    rates = []  # requests per second of each pass
    t0 = perf_counter()
    while True:
        done = len(tally.accepted) + len(tally.rejected)
        busy = run_pass(order, tally, lambda prep, i: serve(dx, prep))
        if busy:
            rates.append((len(tally.accepted) + len(tally.rejected) - done) / busy)
        if perf_counter() - t0 >= seconds and len(tally.accepted) + tally.failed >= MIN_ACCEPTED:
            break
        if perf_counter() - t0 > WALL_LIMIT_S:
            print(f"perfbench: stopped after {WALL_LIMIT_S:.0f} s with {len(tally.accepted)} accepted requests",
                  file=sys.stderr)
            break
    valid = [tally.best[p.req.label] for p in order if p.req.expect != "reject" and p.req.label in tally.best]
    refused = [tally.best[p.req.label] for p in order if p.req.expect == "reject" and p.req.label in tally.best]
    return {
        "latency_ms.p50": (_ms_decile(valid, 5), "ms"),
        "latency_ms.p90": (_ms_decile(valid, 9), "ms"),
        "reject_ms.p50": (_ms_decile(refused, 5), "ms"),
        "throughput_rps": ((len(valid) + len(refused)) / sum(valid + refused) if valid else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "latency_ms.all_p50": (_ms_decile(tally.accepted, 5), "ms"),
        "latency_ms.all_p90": (_ms_decile(tally.accepted, 9), "ms"),
        "reject_ms.all_p50": (_ms_decile(tally.rejected, 5), "ms"),
        "throughput_rps.all": (statistics.median(rates) if rates else 0.0, "1/s"),
    }


FLOOR_LAYERS = ("cli.parse_args", "jsonio.load_obj", "poset.build_poset", "jsonio.serialise", "cli.write")
REJECTING_LAYERS = ("poset.build_poset", "poset.is_monotone", "lattice.lattice_from_order", "lattice.is_homomorphism")
COUNTERS = ("poset.elements", "poset.gen_edges", "poset.closed_relations", "fixpoint.classes",
            "fixpoint.ideals_emitted", "lattice.elements", "lattice.join_irreducibles", "jsonio.bytes_in",
            "jsonio.bytes_out")


def measure_traced(dx, workload, order, seconds, tally, spans):
    """Alternate plain and traced passes; busy times are medians over traced passes.

    Calls, rejects and counters come from the first traced pass; every pass
    serves the same requests, so they repeat exactly.
    """
    plain_busy = traced_busy = 0.0
    bounds = []  # (first, last) span row of each traced pass
    counters = Counter()
    t0 = perf_counter()
    while True:
        plain_busy += run_pass(order, tally, lambda prep, i: serve(dx, prep))
        first_pass = not bounds

        def traced(prep, i):
            t = perf_counter()
            rc, err, found = tracing.replay(dx, spans, f"{len(bounds)}:{i}", prep.argv)
            dt = perf_counter() - t
            if first_pass:
                req = prep.req
                counters.update(found)
                counters.update({"poset.elements": req.elements, "poset.gen_edges": req.gen_edges,
                                 "poset.closed_relations": req.relations, "lattice.elements": req.lattice_elements,
                                 "jsonio.bytes_in": prep.bytes_in})
            return rc, dt, err

        first = len(spans.rows)
        traced_busy += run_pass(order, tally, traced)
        bounds.append((first, len(spans.rows)))
        if perf_counter() - t0 >= min(seconds, WALL_LIMIT_S):
            break

    own = spans.self_times()
    per_pass, dominant = [], []
    calls, rejects = Counter(), Counter()
    for first, last in bounds:
        busy = defaultdict(float)
        for r in range(first, last):
            name, start, end, _, _, outcome = spans.rows[r]
            busy[name] += own[r] if name != tracing.REQUEST else end - start
            if first == bounds[0][0]:
                calls[name] += 1
                rejects[name] += outcome == "reject"
        for stage, layers in tracing.STAGES.items():
            busy[stage] = sum(busy[x] for x in layers)
        per_pass.append(busy)
        dominant.append(sum(busy[x] for x in tracing.DOMINANT[workload]) / busy[tracing.REQUEST])

    metrics = {f"{name}.busy_s": (statistics.median(b[name] for b in per_pass), "s")
               for name in (*tracing.LAYERS, *tracing.STAGES)}
    metrics.update({f"{name}.calls": (calls[name], "count") for name in tracing.LAYERS})
    metrics.update({f"{name}.rejects": (rejects[name], "count") for name in REJECTING_LAYERS})
    metrics.update({name: (counters[name], "bytes" if name.startswith("jsonio.bytes") else "count")
                    for name in COUNTERS})
    metrics["trace.dominant_frac"] = (statistics.median(dominant), "ratio")
    metrics["trace.overhead_frac"] = (traced_busy / plain_busy, "ratio")
    return metrics


PER_LAYER_REPORTED = (
    [f"{name}.busy_s" for name in FLOOR_LAYERS]
    + [f"{stage}.busy_s" for stage in tracing.STAGES]
    + [f"{name}.calls" for name in tracing.LAYERS]
    + [f"{name}.rejects" for name in REJECTING_LAYERS]
    + list(COUNTERS)
    + ["trace.dominant_frac", "trace.overhead_frac"]
)
END_TO_END = ("setup_s", "latency_ms.p50", "latency_ms.p90", "reject_ms.p50", "throughput_rps", "peak_rss_mb")


def run(workload, seed, seconds, traced, scale=1.0):
    """One benchmark run; returns (result object, table lines)."""
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    try:
        dx, setup_s, order = setup(workload, seed, scale, work, tally)
        if traced:
            spans = tracing.Spans(dx.errors.InvalidInput)
            metrics = measure_traced(dx, workload, order, seconds, tally, spans)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans.write(out_dir / f"spans-{workload}-{seed}.jsonl")
            reported = PER_LAYER_REPORTED
        else:
            metrics = {"setup_s": (setup_s, "s"), **measure(dx, order, seconds, tally)}
            reported = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = [f"workload {workload}  seed {seed}  requests/pass {len(order)}  trace {int(traced)}"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:40s} {value:>16.6g} {unit}")
    error_rate = tally.failed / max(1, tally.attempted)
    lines.append(f"  {'error_rate':40s} {error_rate:>16.6g} ratio  ({tally.failed} of {tally.attempted})")
    if not traced:
        lines.append(f"  {'latency_ms.samples':40s} {len(tally.accepted):>16d} count")
        lines.append(f"  {'reject_ms.samples':40s} {len(tally.rejected):>16d} count")
    lines += [f"  FAILED {p}" for p in tally.problems]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in reported},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
