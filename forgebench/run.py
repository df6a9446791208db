"""Run one workload of the fraisse-forge benchmark and print its metrics.

    python3 forgebench/run.py --workload stage-chain --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory.  Each run is one process on one thread:

1. set-up and one untimed warm-up pass, on inputs renamed apart from the
   timed ones;
2. a fixed number of timed passes, round(seconds / nominal pass seconds), so
   that every seed does the same work.  Each pass sets up again under fresh
   names, runs every operation of the workload in a shuffled order, timing
   each one, then checks every output against the benchmark's own
   computations.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the run makes the same untimed and timed
passes, then as many traced passes, and reports the per-layer spans and
counters of the traced passes with the tracing overhead.  A fuller report
(and, when traced, the spans) is written under `forgebench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import NOMINAL_S, WINDOW_S, slice_seconds
from reference import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("stage-chain", "pushout-oracle", "lift-endos")
SETUP_SLICES = 3  # reference slices on each side of a set-up


def import_library() -> None:
    """Import fraisse_forge from this checkout's src/, and from nowhere else."""
    package = ROOT / "src" / "fraisse_forge"
    if not (package / "__init__.py").is_file():
        sys.exit(f"forgebench: no library sources at {package}; "
                 f"run from the root of a source checkout")
    sys.path.insert(1, str(ROOT / "src"))
    import fraisse_forge
    if Path(fraisse_forge.__file__).resolve().parent != package.resolve():
        sys.exit(f"forgebench: fraisse_forge was imported from "
                 f"{fraisse_forge.__file__}, not from {package}")


def make_workload(name: str):
    if name == "stage-chain":
        from stage_chain import StageChain
        return StageChain()
    if name == "pushout-oracle":
        from pushout_oracle import PushoutOracle
        return PushoutOracle()
    from lift_endos import LiftEndos
    return LiftEndos()


class Run:
    """Timed passes of one workload, with their timings and check results."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.names = random.Random(seed)        # renaming and shuffling
        self.checks = random.Random(-1 - seed)  # sampled checks
        self.errors: list[str] = []
        self.failed = 0
        self.check_failures = 0

    def one_pass(self, tracer=None):
        """Set up, run and check one pass.

        Returns the set-up seconds, the (kind, seconds) of each operation and
        the pass's work units; seconds are scaled to the nominal machine speed
        (see calibrate.py), and the raw ones come as a second pair."""
        tag = f"{self.names.getrandbits(32):08x}."  # fresh carrier-id prefix
        if tracer is not None:
            tracer.install()
        before = sum(slice_seconds() for _ in range(SETUP_SLICES))
        if tracer is not None:
            close = tracer.span("setup")
        t0 = time.perf_counter()
        ops = self.workload.setup(tag)
        setup_raw = time.perf_counter() - t0
        if tracer is not None:
            close()
        after = sum(slice_seconds() for _ in range(SETUP_SLICES))
        setup_s = setup_raw * 2 * SETUP_SLICES * NOMINAL_S / (before + after)
        self.names.shuffle(ops)
        gc.collect()
        results = []
        raw = []
        scaled = []
        window = 0.0
        before = slice_seconds()
        for k, op in enumerate(ops):
            if tracer is not None:
                close = tracer.span(f"op.{op.kind}")
            t0 = time.perf_counter()
            try:
                out = self.workload.run(op)
            except Exception:
                out = None
                self.failed += 1
                self._log(f"{op.kind} failed:\n{traceback.format_exc()}")
            dt = time.perf_counter() - t0
            if tracer is not None:
                close()
            raw.append(dt)
            results.append(out)
            window += dt
            if window >= WINDOW_S or k == len(ops) - 1:
                after = slice_seconds()
                factor = 2 * NOMINAL_S / (before + after)
                scaled.extend(r * factor for r in raw[len(scaled):])
                before, window = after, 0.0
        if tracer is not None:
            tracer.uninstall()
        for op, out in zip(ops, results):
            if out is None:
                continue
            try:
                self.workload.check(op, out, self.checks)
            except CheckFailed as e:
                self.check_failed(str(e))
        try:
            self.workload.end_pass(self.checks)
        except CheckFailed as e:
            self.check_failed(str(e))
        units = self.workload.work_units(ops)
        kinds = [op.kind for op in ops]
        return ((setup_s, list(zip(kinds, scaled)), units),
                (setup_raw, list(zip(kinds, raw)), units))

    def check_failed(self, message: str) -> None:
        self.check_failures += 1
        self._log(f"check failed: {message}")

    def _log(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)
        print(message, file=sys.stderr)


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[math.ceil(q * len(sorted_values)) - 1]


def summarize(passes) -> dict:
    durations = sorted(dt for _, timings, _ in passes for _, dt in timings)
    timed = sum(durations)
    units = sum(u for _, _, u in passes)
    return {"timed_s": timed, "work_units": units, "ops": len(durations),
            "work_per_s": statistics.median(u / sum(dt for _, dt in timings)
                                            for _, timings, u in passes),
            "op_p50_ms": statistics.median(durations) * 1e3,
            "op_p90_ms": nearest_rank(durations, 0.9) * 1e3,
            "samples_beyond_p90": len(durations) - math.ceil(0.9 * len(durations)),
            "setup_s": statistics.median(s for s, _, _ in passes)}


def per_kind(passes) -> dict:
    kinds: dict[str, list[float]] = {}
    for _, timings, _ in passes:
        for kind, dt in timings:
            kinds.setdefault(kind, []).append(dt)
    return {k: {"count": len(v), "median_ms": statistics.median(v) * 1e3}
            for k, v in sorted(kinds.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_library()
    workload = make_workload(args.workload)
    run = Run(workload, args.seed)
    n_passes = max(1, round(args.seconds / workload.pass_seconds))

    run.one_pass()  # warm-up
    passes, raw_passes = zip(*(run.one_pass() for _ in range(n_passes)))
    summary = summarize(passes)
    if len({len(t) for _, t, _ in passes}) != 1 or len({u for _, _, u in passes}) != 1:
        run.check_failed("passes differ in operations or work units")

    traced = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        traced = summarize([run.one_pass(tracer)[0] for _ in range(n_passes)])
        if traced["work_units"] != summary["work_units"]:
            run.check_failed("traced passes did different work")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = summary["ops"] + (traced["ops"] if traced else 0)
    if traced is None:
        metrics = {"setup_s": (summary["setup_s"], "s"),
                   "work_per_s": (summary["work_per_s"], "1/s"),
                   "op_p50_ms": (summary["op_p50_ms"], "ms"),
                   "op_p90_ms": (summary["op_p90_ms"], "ms"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics = tracer.metrics()
        metrics["trace.overhead_pct"] = (
            (traced["timed_s"] / summary["timed_s"] - 1) * 100, "%")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "passes": n_passes, "ops_per_pass": len(passes[0][1]),
              "work_units_per_pass": passes[0][2], "untraced": summary,
              "untraced_unscaled": summarize(raw_passes),
              "traced": traced, "peak_rss_mb": peak_rss_mb,
              "kinds": per_kind(passes), "errors": run.errors,
              "counters": {k: v for k, (v, _) in metrics.items()
                           if not k.endswith("self_ms") and k != "trace.overhead_pct"}
              if traced else None}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    if traced is not None:
        tracer.write(OUT / f"{stem}.spans")

    print(f"{args.workload} seed {args.seed}: {n_passes} passes x "
          f"{len(passes[0][1])} ops, {summary['work_units']} work units in "
          f"{summary['timed_s']:.2f} s; "
          f"{summary['samples_beyond_p90']} samples beyond p90", file=sys.stderr)
    print(json.dumps({"correct": run.check_failures == 0,
                      "attempted": attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
