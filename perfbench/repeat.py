"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload count --seeds 1-10 --seconds 40 --trace 0

Each seed is a separate ``run.py`` process, run one after another.  For every
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, (q3 - q1) / median.  ``--json PATH`` also writes the values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_from, default=seeds_from("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="PATH")
    args = parser.parse_args(argv)

    values, units, ok = {}, {}, True
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200, cwd=HERE.parent)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    summary = {}
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        print(f"  {name:40s} median {med:12.6g} {units[name]:6s} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.3f}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                               "seconds": args.seconds, "trace": args.trace,
                                               "correct": ok, "metrics": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
