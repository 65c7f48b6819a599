"""One timed repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --out RESULT.json [--workload NAME --seed N
                                [--trace] [--scale full|smoke]]

The first thing it does is `import edgering`; run.py takes the time from
spawning this process to the end of that import as one set-up sample. Without
--workload it stops there. Otherwise it runs the workload once, with every
edgering cache cold, and writes wall time, analyze latencies, check results,
peak memory and either the machine's speed while it ran (speedprobe.py,
untraced) or the per-layer trace (--trace) to RESULT.json. Wall time and
latencies leave out the time the speed probe takes.
"""

import time

import edgering  # set-up ends when this import returns

READY = time.perf_counter()

import argparse
import json
import resource

import speedprobe
import tracing
import workloads


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    args = ap.parse_args()
    result = {"ready": READY}
    if args.workload:
        tracer = tracing.install() if args.trace else None
        if tracer is None:
            speedprobe.start()
        t0 = time.perf_counter()
        outcome = workloads.run(args.workload, args.seed, args.scale)
        result["wall_s"] = time.perf_counter() - t0 - speedprobe.spent_s()
        speedprobe.stop()
        result["speed"] = speedprobe.speed()
        kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result.update(
            maxrss_mb=kb / 1024,
            attempted=outcome.attempted,
            failed=outcome.failed,
            problems=outcome.problems,
            latencies_s=outcome.latencies_s,
        )
        if tracer is not None:
            result["trace"] = tracer.metrics()
            trace_path = workloads.OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
            tracer.write(trace_path)
            result["trace_file"] = str(trace_path)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
