"""Repeat benchmark runs and summarize each metric's median and spread.

Runs ``run.py`` once per (workload, seed, repeat), one process at a time,
and prints per metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (quartile distance
over the median), the figures a performance claim is judged on::

    python3 perfbench/sweep.py --workload crowd --seeds 0 1 2 3 4
    python3 perfbench/sweep.py --workload solo --seeds 0 --repeat 5 \\
        --trace 1 --json out.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def summarize(rows: list[dict]) -> dict:
    """Per metric: unit, samples, median, quartiles and spread."""
    out = {}
    for name, first in rows[0]["metrics"].items():
        values = [row["metrics"][name]["value"] for row in rows]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median, median, median))
        out[name] = {
            "unit": first["unit"], "n": len(values), "median": median,
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the summaries as JSON")
    args = parser.parse_args(argv)

    summaries = {}
    ok = True
    for workload in args.workload:
        rows = []
        for seed in args.seeds:
            for _ in range(args.repeat):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload",
                     workload, "--seed", str(seed), "--seconds",
                     str(args.seconds), "--trace", str(args.trace)],
                    cwd=HERE.parent, capture_output=True, text=True,
                    timeout=600, check=False,
                )
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return proc.returncode
                row = json.loads(proc.stdout.splitlines()[-1])
                ok = ok and row["correct"]
                rows.append(row)
        summary = summarize(rows)
        summaries[workload] = {
            "seeds": args.seeds, "repeat": args.repeat,
            "correct": all(row["correct"] for row in rows),
            "attempted": sum(row["attempted"] for row in rows),
            "failed": sum(row["failed"] for row in rows),
            "metrics": summary,
        }
        print(f"== {workload} (seeds {args.seeds} x{args.repeat}, "
              f"correct={summaries[workload]['correct']})")
        for name, s in summary.items():
            print(f"  {name:30s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f} {s['unit']}")
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps(summaries, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
