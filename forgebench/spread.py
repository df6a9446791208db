"""Run-to-run spread of the end-to-end metrics of one workload.

    python3 forgebench/spread.py --workload lift-endos --runs 10 --seconds 20

Runs two sets of runs interleaved (A, B, A, B, ...), each run a fresh
process of `run.py` with its own seed (set A takes the even offsets from
--first-seed, set B the odd ones).  For each set it prints the median of
every end-to-end metric and its quartile spread, (Q3 - Q1) / median with the
quartiles of `statistics.quantiles(values, n=4)`, then the ratio of the two
medians (B / A) and the spread of both sets together.  The raw results are
also written to `forgebench/out/spread-<workload>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["wall_s"] = wall
    return result


def spread(values) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    sets: dict[str, list[dict]] = {"A": [], "B": []}
    for i in range(args.runs):
        for k, name in enumerate("AB"):
            r = one_run(args.workload, args.first_seed + 2 * i + k, args.seconds)
            sets[name].append(r)
            print(f"{name} seed {r['seed']}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"wall={r['wall_s']:.1f}s " +
                  " ".join(f"{m}={v['value']:.6g}" for m, v in r["metrics"].items()),
                  flush=True)

    metrics = list(sets["A"][0]["metrics"])
    print(f"\n{args.workload}: {args.runs} runs per set, --seconds {args.seconds}")
    print(f"{'metric':<14}{'A median':>14}{'A spread':>10}{'B median':>14}"
          f"{'B spread':>10}{'B/A':>8}{'A+B spread':>12}")
    for m in metrics:
        a = [r["metrics"][m]["value"] for r in sets["A"]]
        b = [r["metrics"][m]["value"] for r in sets["B"]]
        (a_med, a_sp), (b_med, b_sp) = spread(a), spread(b)
        print(f"{m:<14}{a_med:>14.6g}{a_sp:>10.3f}{b_med:>14.6g}{b_sp:>10.3f}"
              f"{b_med / a_med:>8.3f}{spread(a + b)[1]:>12.3f}")
    shares = {name: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
              for name, runs in sets.items()}
    correct = all(r["correct"] for runs in sets.values() for r in runs)
    print(f"failed share A={shares['A']} B={shares['B']}; all correct: {correct}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(json.dumps(sets, indent=1) + "\n")
    return 0 if correct and shares["A"] == shares["B"] else 1


if __name__ == "__main__":
    sys.exit(main())
