#!/usr/bin/env python3
"""Latency budget of one verb from a traced run's spans.

    python3 ledger/budget.py TRACE_warm_open.jsonl --verb stq

Reads the spans ccpred_ledger --trace 1 wrote and prints a markdown table:
for each child span of the verb's requests (generator lag, event-loop
ingress, server, event-loop egress), its mean, median and p99 in
microseconds and its share of the mean end-to-end latency. Means add up
exactly to the end-to-end mean, because the spans tile each request.
Standard library only.
"""

import argparse
import collections
import json
import statistics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trace")
    parser.add_argument("--verb", default="stq")
    args = parser.parse_args()

    requests = collections.defaultdict(dict)
    with open(args.trace) as f:
        for line in f:
            span = json.loads(line)
            requests[span["trace"]][span["name"]] = span["end_ns"] - span["start_ns"]
    root = "request." + args.verb
    order = ["gen.lag", "loop.ingress", "server." + args.verb, "loop.egress"]
    chosen = [r for r in requests.values() if root in r]
    if not chosen:
        raise SystemExit(f"no {args.verb} requests in {args.trace}")
    total = statistics.fmean(r[root] for r in chosen) / 1e3
    print(f"{len(chosen)} traced {args.verb} requests\n")
    print("| span | mean µs | p50 µs | p99 µs | share of mean |")
    print("|---|---:|---:|---:|---:|")
    for name in order + [root]:
        values = sorted(r[name] / 1e3 for r in chosen)
        mean = statistics.fmean(values)
        p99 = values[min(len(values) - 1, int(0.99 * len(values)))]
        print(f"| {name} | {mean:.1f} | {statistics.median(values):.1f} | "
              f"{p99:.1f} | {100 * mean / total:.0f}% |")


if __name__ == "__main__":
    main()
