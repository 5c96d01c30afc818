#!/usr/bin/env python3
"""gntd request benchmark runner.

    python3 gntbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (gntbench/CMakeLists.txt, which compiles the
program from ../src) into $CARGO_TARGET_DIR or .bench_build, runs one
workload in its own process and prints, as the last line of stdout,
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.
--trace 1 runs the workload twice with the same seed, untraced and then
traced, and reports the per-layer metrics of the traced run plus
trace.overhead.<metric>: the traced-over-untraced ratio of each timed
end-to-end metric (1 = no overhead). The traced run's Chrome trace-event
JSON goes to <build dir>/traces/<workload>-seed<N>.json.

Exit status is 0 only when every response matched its reference.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

# End-to-end metrics whose traced-over-untraced ratio is the tracing
# overhead. ok_ratio and msgs_per_kstep cannot move; setup_s is left out
# because nothing is traced during set-up.
OVERHEAD_OF = ["throughput_rps", "req_p50_us", "req_p99_us",
               "cpu_us_per_req", "peak_rss_mb"]


def log(msg):
    print(f"gntbench/run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures once, then brings the gntbench binary up to date."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "gntbench",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return out / "gntbench"


def run_workload(exe, args, trace, trace_out=None):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload run timed out: {' '.join(cmd)}")
        return None
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"workload run printed no result (exit {done.returncode})")
        return None
    result = json.loads(lines[-1])
    if done.returncode != 0:
        result["correct"] = False
    return result


def pick(result, names):
    missing = [name for name in names if name not in result["metrics"]]
    if missing:
        log(f"workload did not report {', '.join(missing)}")
        return None
    return {name: result["metrics"][name] for name in names}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exe = build()
    if exe is None:
        return 1

    untraced = run_workload(exe, args, 0)
    if untraced is None:
        return 1
    if args.trace == 0:
        out = {k: untraced[k] for k in ("correct", "attempted", "failed")}
        out["metrics"] = pick(untraced, [m["name"] for m in spec["end_to_end"]])
        if out["metrics"] is None:
            return 1
    else:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        traced = run_workload(
            exe, args, 1, traces / f"{args.workload}-seed{args.seed}.json")
        if traced is None:
            return 1
        measured = dict(traced["metrics"])
        for name in OVERHEAD_OF:
            base = untraced["metrics"][name]["value"]
            with_trace = traced["metrics"][name]["value"]
            measured[f"trace.overhead.{name}"] = {
                "value": with_trace / base, "unit": "ratio"}
        out = {"correct": untraced["correct"] and traced["correct"],
               "attempted": untraced["attempted"] + traced["attempted"],
               "failed": untraced["failed"] + traced["failed"],
               "metrics": pick({"metrics": measured},
                               [m["name"] for m in spec["per_layer"]])}
        if out["metrics"] is None:
            return 1
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
