#!/usr/bin/env python3
"""Seed runs and regression bounds for the ledger's end-to-end metrics.

    python3 ledger/bounds.py collect --runs 10 --traced-runs 3 \
        --out ledger/seed_runs.json
    python3 ledger/bounds.py bounds ledger/seed_runs.json [--apply]
    python3 ledger/bounds.py compare first.json second.json
    python3 ledger/bounds.py table ledger/seed_runs.json

collect  runs every workload of BENCHMARK.json --runs times untraced and
         --traced-runs times traced (seeds 1..N, workloads interleaved) and
         stores each run's metrics with the median and quartiles of each
         metric per workload.
bounds   sets each end-to-end metric's bound to 3 * spread rounded up to
         a multiple of 0.05 (at least 0.05), where spread is the largest
         (q3 - q1) / median over the workloads; setup_s gets 0.25, the
         largest bound allowed. A metric whose
         spread exceeds 0.25 / 3 cannot be held to any allowed bound and is
         flagged for demotion to per-layer. --apply writes the bounds into
         BENCHMARK.json.
compare  checks that two collections agree: for every metric and
         workload, the second median is within the bound of the first.
table    prints a collection as markdown tables (median and quartiles of
         every metric per workload), as README.md shows them.

Quartiles are statistics.quantiles(values, n=4). Standard library only.
"""

import argparse
import datetime
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
MAX_BOUND = 0.25
MIN_BOUND = STEP = 0.05


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model,
            "machine": platform.machine(), "system": platform.system()}


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(name, seed, seconds, trace):
    """One run through run.py; returns its record or exits on failure."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "ledger", "run.py"),
         "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{name} seed {seed} trace {trace} failed ({out.returncode}):\n"
                 f"{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    print(f"{name} seed {seed} trace {trace}: {wall:.1f} s "
          + " ".join(f"{k}={v['value']:.4g}"
                     for k, v in list(result["metrics"].items())[:8]),
          flush=True)
    return {"seed": seed, "wall_s": round(wall, 2),
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def collect(args):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    groups = (("end_to_end", 0, args.runs), ("per_layer", 1, args.traced_runs))
    runs = {name: {group: [] for group, _, _ in groups} for name in names}
    for group, trace, count in groups:
        for seed in range(args.first_seed, args.first_seed + count):
            for name in names:
                runs[name][group].append(run_once(name, seed, seconds, trace))
    doc = {"provenance": {"git_rev": git_rev(), "host": host(),
                          "date": datetime.date.today().isoformat(),
                          "seconds": seconds},
           "workloads": {}}
    for name in names:
        doc["workloads"][name] = {}
        for group, _, _ in groups:
            records = runs[name][group]
            if len(records) < 2:
                continue
            doc["workloads"][name][group] = {
                "summary": {m: summarize([r["metrics"][m] for r in records])
                            for m in records[0]["metrics"]},
                "runs": records}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")


def bounds(args):
    with open(args.runs) as f:
        doc = json.load(f)
    bench = load_benchmark()
    demote = []
    for metric in bench["end_to_end"]:
        name = metric["name"]
        spreads = {w: d["end_to_end"]["summary"][name]["spread"]
                   for w, d in doc["workloads"].items()}
        worst = max(spreads.values())
        if name == "setup_s":
            bound = MAX_BOUND
        else:
            bound = min(MAX_BOUND, max(MIN_BOUND, math.ceil(3 * worst / STEP) * STEP))
        flag = ""
        if name != "setup_s" and worst > MAX_BOUND / 3:
            flag = "  DEMOTE: spread above 0.25 / 3"
            demote.append(name)
        print(f"{name:16s} bound {bound:.3f}  spread "
              + " ".join(f"{w}={s:.3f}" for w, s in spreads.items()) + flag)
        metric["bound"] = round(bound, 3)
    if args.apply:
        with open(BENCHMARK, "w") as f:
            json.dump(bench, f, indent=2)
            f.write("\n")
        print(f"wrote bounds into {BENCHMARK}")
    return 1 if demote else 0


def compare(args):
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    bench = load_benchmark()
    worse = 0
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        for w in first["workloads"]:
            a = first["workloads"][w]["end_to_end"]["summary"][name]["median"]
            b = second["workloads"][w]["end_to_end"]["summary"][name]["median"]
            change = sign * (b - a) / a
            ok = change <= bound
            worse += not ok
            print(f"{w:11s} {name:16s} {a:12.5g} -> {b:12.5g}  "
                  f"{100 * change:+6.1f}% worse (bound {100 * bound:.0f}%)"
                  + ("" if ok else "  OUT OF BOUND"))
    return 1 if worse else 0


def number(v):
    if v == 0:
        return "0"
    for limit, fmt in ((1000, "{:,.0f}"), (100, "{:.0f}"), (10, "{:.1f}"),
                       (1, "{:.2f}")):
        if abs(v) >= limit:
            return fmt.format(v)
    return f"{v:.3g}"


def table(args):
    with open(args.runs) as f:
        doc = json.load(f)
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = list(doc["workloads"])
    for group, title in (("end_to_end", "End to end"), ("per_layer", "Per layer")):
        first = doc["workloads"][names[0]].get(group)
        if first is None:
            continue
        print(f"**{title}** ({len(first['runs'])} runs per workload):\n")
        print("| metric | unit | " + " | ".join(names) + " |")
        print("|---|---|" + "---:|" * len(names))
        for metric in first["summary"]:
            cells = []
            for w in names:
                s = doc["workloads"][w][group]["summary"][metric]
                cells.append(f"{number(s['median'])} "
                             f"({number(s['q1'])}–{number(s['q3'])})")
            print(f"| `{metric}` | {units[metric]} | " + " | ".join(cells) + " |")
        print()
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--traced-runs", type=int, default=0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--out", required=True)
    p = sub.add_parser("bounds")
    p.add_argument("runs")
    p.add_argument("--apply", action="store_true")
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p = sub.add_parser("table")
    p.add_argument("runs")
    args = parser.parse_args()
    commands = {"collect": collect, "bounds": bounds, "compare": compare,
                "table": table}
    return commands[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
