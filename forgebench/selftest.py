"""Self-test of the benchmark: short traced runs of every workload on two seeds.

    python3 forgebench/selftest.py            # all workloads
    python3 forgebench/selftest.py --workload lift-endos

A seed may only rename carrier ids and shuffle the order of operations, so
two seeds must agree exactly on the work done.  For each workload this runs
`run.py --trace 1` with two seeds and requires that both runs pass every
output check with no failed operation, that they report the same passes,
operations attempted, operations per kind, work units, call counts and
counters, and that the traced run reports exactly the per-layer metrics of
`BENCHMARK.json`, with their units.  Exits with 0 only if all of that holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stage-chain", "pushout-oracle", "lift-endos")
SEEDS = (11, 12)


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    return result, report


def work_signature(result: dict, report: dict) -> dict:
    return {"attempted": result["attempted"],
            "passes": report["passes"],
            "ops_per_pass": report["ops_per_pass"],
            "ops_by_kind": {k: v["count"] for k, v in report["kinds"].items()},
            "work_units": report["untraced"]["work_units"],
            "traced_work_units": report["traced"]["work_units"],
            "counters": report["counters"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    declared = {m["name"]: m["unit"]
                for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    ok = True
    for workload in args.workload or WORKLOADS:
        sigs = []
        for seed in SEEDS:
            result, report = traced_run(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"FAIL {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}: {report['errors']}")
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            if reported != declared:
                ok = False
                print(f"FAIL {workload} seed {seed}: per-layer metrics differ from "
                      f"BENCHMARK.json: {sorted(set(reported.items()) ^ set(declared.items()))}")
            sigs.append(work_signature(result, report))
        if sigs[0] != sigs[1]:
            ok = False
            for key in sigs[0]:
                if sigs[0][key] != sigs[1][key]:
                    print(f"FAIL {workload}: {key} differs between seeds {SEEDS}: "
                          f"{sigs[0][key]} != {sigs[1][key]}")
        else:
            print(f"ok   {workload}: seeds {SEEDS} agree on {sigs[0]['attempted']} "
                  f"operations, {sigs[0]['work_units']} work units and "
                  f"{len(sigs[0]['counters'])} counters")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
