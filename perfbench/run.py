#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
builds perfbench from the checkout's sources (once; later runs only check
that the build is current), runs the workload and passes its output
through. The last line of standard output is the JSON result.

Repeat mode:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --repeat N
runs the workload N times with seeds n, n+1, ..., and prints each metric's
median and quartiles and the quartile spread as a share of the median.

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the current directory.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "driver.hpp")):
        log(f"library sources not found under {ROOT}/src")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        # Build output goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.isfile(binary) else None


def run_once(binary, workload, seed, seconds, trace, capture):
    """Runs one workload; returns (exit code, stdout text or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # Its own process group, so a timeout also ends the node processes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    return proc.returncode, out


def repeat(binary, args):
    results = []
    for i in range(args.repeat):
        seed = args.seed + i
        t0 = time.monotonic()
        code, out = run_once(binary, args.workload, seed, args.seconds,
                             args.trace, capture=True)
        lines = (out or "").strip().splitlines()
        if code != 0 or not lines:
            sys.stdout.write(out or "")
            log(f"seed {seed}: run failed with exit code {code}")
            return 1
        result = json.loads(lines[-1])
        results.append(result)
        values = " ".join(f"{k}={v['value']:.6g}"
                          for k, v in result["metrics"].items())
        print(f"# seed {seed} ({time.monotonic() - t0:.1f} s): "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{values}", flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"# {args.workload}: {len(results)} runs, seeds {args.seed}.."
          f"{args.seed + args.repeat - 1}, failed share {sorted(shares)}")
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/median':>10s}")
    for name, first in results[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], 0, vals[0]))
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:10.3f}"
              f"  {first['unit']}")
    return 0 if all(r["correct"] for r in results) else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run N times on consecutive seeds and summarize")
    args = p.parse_args()
    binary = build()
    if binary is None:
        return 2
    if args.repeat > 0:
        return repeat(binary, args)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
