"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload scaled-3x3 --seeds 1 2 3 4 5 --seconds 18

Each run is a fresh process.  For every metric the summary gives the values,
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (third minus first quartile, as a share of the median).  The summary
is printed and written to ``perfbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH_DIR.parent, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "values": values,
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = []
    for seed in args.seeds:
        results.append(run_once(args.workload, seed, args.seconds, args.trace))
        r = results[-1]
        print(
            f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
            f"failed={r['failed']} wall={r['wall_s']:.1f}s",
            flush=True,
        )
    summary = {
        "workload": args.workload,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "all_correct": all(r["correct"] for r in results),
        "wall_s": [r["wall_s"] for r in results],
        "metrics": summarize(results),
    }
    for name, m in summary["metrics"].items():
        print(f"{name}: median {m['median']:.6g} {m['unit']}, spread {m['spread']:.3f}")
    out = BENCH_DIR / "out" / f"spread-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
