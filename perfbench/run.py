"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload figure6 --seed 0 --seconds 24 \
        --trace 0

With ``--trace 0`` the run measures whole cycles of the workload with
tracing off, as many as fit ``--seconds`` at the workload's
nominal cycle time (at least one), checks every output, and prints the
end-to-end metrics.  With
``--trace 1`` it first makes the same untraced pass, then repeats the
same cycles with the simulator's public functions wrapped, and prints
the per-layer metrics: per-module calls and self seconds, the coverage
check, the tracing overhead, and the workload's own figures.  The last
line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Run it from the root of a checkout; it needs ``src/`` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["figure6", "faults_telemetry",
                                 "cli_service"])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 reproduces the defaults")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="how long the untraced pass measures, at "
                             "the workload's nominal cycle time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, clock):
    if name == "figure6":
        from figure6 import Figure6
        return Figure6(seed, clock)
    if name == "faults_telemetry":
        from faults_telemetry import FaultsTelemetry
        return FaultsTelemetry(seed, clock)
    from cli_service import CliService
    return CliService(seed, clock)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro beside {BENCH_DIR}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    # a terminated run still closes its runtime and stops its server
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for the benchmark and every process it starts: a client
    # and server that wake each other across virtual CPUs took up to
    # 45% longer per round-trip in some runs than in others.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from common import (KIND_SLOTS, HostProbe, Record, VerifyClock, drive,
                        isolated_run_dir, leaked_segments, peak_rss_mb)

    # BENCHMARK.json names every metric a run prints, with its unit
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    units = {m["name"]: m["unit"] for m in declared[
        "per_layer" if args.trace else "end_to_end"]}

    with isolated_run_dir():
        import repro  # noqa: F401  (registers workloads)

        clock = VerifyClock()
        clock.install()
        workload = make_workload(args.workload, args.seed, clock)
        rec = Record(probe=HostProbe())
        try:
            setups = []
            for _ in range(SETUP_REPEATS):
                workload.close()  # stopping the last set-up is not timed
                start = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - start)
            pass_start = time.perf_counter()
            done = drive(workload, rec, args.seconds)
            # the probe's own time is not the workload's
            untraced_wall = time.perf_counter() - pass_start - sum(
                t for ts in rec.probe.samples.values() for t in ts)
            specific = workload.check(rec)
            if args.trace:
                from report import traced_pass

                metrics = traced_pass(workload, args.seed, done,
                                      untraced_wall, rec, specific,
                                      list(units))
            else:
                metrics = rec.kind_metrics(workload.kinds)
        finally:
            workload.close()
            clock.remove()
        for name in leaked_segments([os.getpid()] + workload.pids()):
            rec.fail(f"leaked shared-memory segment {name}")

    if not args.trace:
        # set-up runs in the same minute as the pass: scaled alike
        metrics["setup_s"] = statistics.median(setups) / \
            rec.probe.slowdown()
        metrics["peak_rss_mb"] = peak_rss_mb()
    print(f"workload {args.workload}  seed {args.seed}  cycles {done}  "
          f"untraced pass {untraced_wall:.2f}s  ops {rec.attempted}  "
          f"ops_failed {len(rec.failures)}")
    if not args.trace:
        print(f"  host slowdown {rec.probe.slowdown():.3f} (probe time "
              f"over its reference; op times are divided by it)")
        for slot, kind in zip(KIND_SLOTS, workload.kinds):
            raw = statistics.geometric_mean(rec.latencies_ms(kind))
            print(f"  {slot}: {len(rec.of(kind))} {kind} ops, "
                  f"unscaled geometric mean {raw:.4g} ms")
        for name, value in specific.items():
            print(f"  {name:32} {value:.6g}")
    for failure in rec.failures:
        print(f"FAILED: {failure}")
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit in units.items()}
    for name, entry in out.items():
        print(f"  {name:32} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
