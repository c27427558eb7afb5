#!/usr/bin/env python3
"""Build ccpred_ledger from source and run it.

    python3 ledger/run.py --workload warm_open --seed 1 --seconds 20 --trace 0
    python3 ledger/run.py --smoke

The first form builds (once, then incrementally) into .bench_build/ledger
and runs one workload; the last line of standard output is the run's JSON
result, and the exit code is the run's. --smoke runs every workload of
BENCHMARK.json in both modes at a tiny size and fails unless every answer
is correct and every metric BENCHMARK.json names comes out finite.

Runs in the repository root: BENCH_ledger.json and TRACE_<workload>.jsonl
are written there, scratch files under .bench_build/. Standard library only.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
# A run stops itself well inside 180 s; this only catches a hang.
RUN_TIMEOUT_S = 170


def child_env():
    """The environment for the build and the runs: temporary files too
    stay inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Returns the ccpred_ledger binary, or None when the build fails."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "ledger"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "ccpred_ledger",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=child_env()).returncode:
            return None
    return os.path.join(BUILD, "ccpred_ledger")


def run(binary, args, capture=False):
    """Runs the ledger in its own process group, so a hung run is killed
    together with the daemon it started. Returns (exit code, stdout)."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE if capture else None,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("ccpred_ledger did not finish; killed", file=sys.stderr)
        return 1, ""
    return proc.returncode, out or ""


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run(binary, ["--workload", name, "--seed", "1",
                                     "--seconds", str(bench["run_seconds"]),
                                     "--trace", str(trace), "--smoke", "1"],
                            capture=True)
            sys.stdout.write(out)
            where = f"{name} --trace {trace}"
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{where}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}")
            for metric in bench[group]:
                got = result["metrics"].get(metric["name"])
                if (got is None or not isinstance(got["value"], (int, float))
                        or not math.isfinite(got["value"])
                        or got["unit"] != metric["unit"]):
                    problems.append(f"{where}: {metric['name']} missing, "
                                    f"not finite or in the wrong unit")
    for problem in problems:
        print("ledger_smoke FAILED:", problem)
    if not problems:
        print("ledger_smoke: every answer correct, every metric emitted")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this ccpred_ledger, do not build")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    binary = args.binary or build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)
    code, _ = run(binary, ["--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
