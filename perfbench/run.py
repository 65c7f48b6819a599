"""Benchmark of edgering, run from the root of a checkout:

    python3 perfbench/run.py --workload atlas7|survey8|families --seed N \\
        --seconds S --trace 0|1

Each repetition runs in a fresh interpreter (worker.py), one after the other:
a closed loop with one caller, so every edgering cache starts cold, as it
does for a command-line user. Another repetition starts while at least half
of it is predicted to fit within --seconds, so a run measures about --seconds
on average; there is always at least one.

--trace 0 prints the end-to-end metrics: set-up time (interpreter start to
`import edgering` returning, the median of several fresh interpreters), the
median wall time of a repetition, the median and 90th percentile of the
per-call `analyze()` latency pooled over repetitions, and the median peak
resident memory. Wall time and latencies are reported at the reference
machine speed (`*_ref_*`, see speedprobe.py): each repetition's times are
multiplied by the speed measured while it ran. The times as measured are
printed above the result line, outside the JSON.

--trace 1 runs each repetition twice, untraced and traced, and prints the
per-layer metrics of the traced run, the tracing overhead and the wall time
that no layer span accounts for; the counts that the inputs and right
answers fix are printed beside them as checks, outside the JSON.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines above it are the same numbers
for people, with the failed fraction and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
WORKLOADS = ("atlas7", "survey8", "families")
SETUP_PROBES = 9
# A run is aborted this long after --seconds: no repetition is started with
# less than half of it left to fit, so only a hung or runaway one reaches it.
OVERRUN_S = 100.0
POLL_S = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "analyze_p50_ref_ms": "ms",
    "analyze_p90_ref_ms": "ms",
    "peak_rss_mb": "MB",
}
# printed for people beside the end-to-end metrics, not in the JSON
AS_MEASURED_UNITS = {
    "wall_s": "s",
    "analyze_p50_ms": "ms",
    "analyze_p90_ms": "ms",
    "machine_speed": "ratio",
}


class HarnessError(RuntimeError):
    """A repetition could not be measured: the worker crashed, was killed or
    ran past the run's time limit."""


def _tree_rss_mb(pid: int) -> float:
    """Resident memory of a process and all its descendants, from /proc."""
    pages = 0
    stack = [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/statm", encoding="ascii") as fh:
                pages += int(fh.read().split()[1])
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children", encoding="ascii") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except OSError:  # the process ended while we looked, or no /proc
            continue
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Runner:
    """Starts workers one at a time and enforces the run's time limit."""

    def __init__(self, seconds: int) -> None:
        self.deadline = time.perf_counter() + seconds + OVERRUN_S
        self.count = 0
        pythonpath = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

    def spawn(self, args: list[str]) -> dict:
        """Run worker.py once; returns its result with `setup_s` and, for a
        workload repetition, `peak_rss_mb` added."""
        self.count += 1
        out = OUT_DIR / f"rep-{os.getpid()}-{self.count}.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "worker.py"), "--out", str(out), *args]
        t0 = time.perf_counter()
        # worker stdout (the CLI's own messages) goes to our stderr, so that
        # the result stays the last line of our stdout
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr.fileno())
        peak = 0.0
        try:
            while proc.poll() is None:
                if time.perf_counter() > self.deadline:
                    raise HarnessError(f"run passed --seconds by more than {OVERRUN_S:.0f} s")
                peak = max(peak, _tree_rss_mb(proc.pid))
                time.sleep(POLL_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or not out.exists():
            raise HarnessError(f"worker {' '.join(args) or 'set-up probe'} "
                               f"exited with {proc.returncode}")
        result = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        result["setup_s"] = result["ready"] - t0
        if "maxrss_mb" in result:
            result["peak_rss_mb"] = max(peak, result["maxrss_mb"])
        return result


def _p50_p90(values: list[float]) -> tuple[float, float]:
    if not values:  # every analyze() call raised; the run is already failed
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(args) -> tuple[list[dict], list[dict], list[float]]:
    """Set-up probes, then repetitions until --seconds is used up."""
    runner = Runner(args.seconds)
    runner.spawn([])  # warm-up: byte-compiles the sources once, not counted
    setup = [runner.spawn([])["setup_s"] for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        # each repetition draws its own inputs, so a run averages over several
        # samples and relabellings; seed 0 starts with the recorded reference
        wargs = ["--workload", args.workload, "--seed", str(args.seed * 1000 + len(plain)),
                 "--scale", args.scale]
        t = time.perf_counter()
        plain.append(runner.spawn(wargs))
        if args.trace:
            traced.append(runner.spawn(wargs + ["--trace"]))
        last = time.perf_counter() - t
        if time.perf_counter() - loop_start + last / 2 > args.seconds:
            break
    setup += [r["setup_s"] for r in plain + traced]
    return plain, traced, setup


def end_to_end(plain: list[dict], setup: list[float]) -> dict[str, float]:
    """Times at the reference speed: each repetition's wall time and
    latencies are multiplied by the machine speed measured while it ran."""
    p50, p90 = _p50_p90([x * 1e3 * r["speed"] for r in plain for x in r["latencies_s"]])
    return {
        "setup_s": statistics.median(setup),
        "wall_ref_s": statistics.median(r["wall_s"] * r["speed"] for r in plain),
        "analyze_p50_ref_ms": p50,
        "analyze_p90_ref_ms": p90,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def as_measured(plain: list[dict]) -> dict[str, float]:
    p50, p90 = _p50_p90([x * 1e3 for r in plain for x in r["latencies_s"]])
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "analyze_p50_ms": p50,
        "analyze_p90_ms": p90,
        "machine_speed": statistics.median(r["speed"] for r in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced repetitions. `analysis.unattributed_s` is the
    traced wall time outside every layer span and count hook, measured inside
    the same repetition so that drift between repetitions stays out of it;
    `trace.overhead_s` is traced minus untraced wall time."""
    layers = set(tracing.SELF_TIME_METRICS.values())
    for r in traced:
        m = r["trace"]
        m["analysis.unattributed_s"] = (r["wall_s"] - m["trace.hooks_s"]
                                        - sum(m[k] for k in layers))
    out = {k: statistics.median(r["trace"][k] for r in traced) for k in traced[0]["trace"]}
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in AS_MEASURED_UNITS:
        return AS_MEASURED_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("_yield") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: reduced sizes, for the harness's own test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "edgering" / "__init__.py").is_file():
        print(f"perfbench: no edgering sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        plain, traced, setup = measure(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setup)
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for problem in sorted({p for r in reps for p in r["problems"]})[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    checks = {k: metrics.pop(k) for k in tracing.OUTPUT_COUNTS if k in metrics}
    rows = dict(metrics, failed_frac=failed / attempted)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} repetition(s), {len(setup)} set-up samples, "
          f"{sum(len(r['latencies_s']) for r in plain)} analyze calls")
    for name, value in rows.items():
        print(f"  {name:28s} {value:14.6f} {'frac' if name == 'failed_frac' else unit_of(name)}")
    if checks:
        print("  output counts (checks, not metrics):")
    for name, value in checks.items():
        print(f"  {name:28s} {value:14.6f} {unit_of(name)}")
    if not args.trace:
        print("  as measured (not normalised to the reference speed):")
        for name, value in as_measured(plain).items():
            print(f"  {name:28s} {value:14.6f} {unit_of(name)}")
    for r in traced[-1:]:
        print(f"  spans written to {r['trace_file']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
