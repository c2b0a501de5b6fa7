#!/usr/bin/env python3
"""Compare two benchmark records and fail on a regression.

Usage: bench_diff.py OLD.json NEW.json

Both records come from scripts/record_bench.py. For every workload and every
end-to-end metric in BENCHMARK.json, NEW's median may be worse than OLD's, in
the direction of the metric's `better` field, by at most max(bound, 2 x the
larger of the two records' spreads), where spread is IQR / median over the
seeds.

Exit 1: a metric regressed, a workload's failed share of repetitions rose,
or a metric is missing from one record.
Exit 2: a record is not in record_bench.py's shape (the section-shaped
BENCH_seed..pr10 records are history and are not compared), or the two
records' provenance differs: host, seeds, run length or benchmark hash.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROVENANCE = ("host", "seeds", "run_seconds", "benchmark_hash")


def load(path):
    with open(path) as f:
        record = json.load(f)
    if not isinstance(record.get("workloads"), dict) or any(
            k not in record for k in PROVENANCE):
        print(f"bench_diff: {path} is not a record_bench.py record", file=sys.stderr)
        raise SystemExit(2)
    return record


def worse_by(old, new, better):
    """How much worse NEW's median is than OLD's, as a share of OLD's."""
    gap = new - old if better == "lower" else old - new
    if old == 0:
        return 0.0 if gap <= 0 else float("inf")
    return gap / abs(old)


def failed_share(w):
    return w["failed"] / w["attempted"] if w["attempted"] else 0.0


def compare(old, new, spec):
    """Prints one line per (workload, metric); returns the failure count."""
    failures = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        ow = old["workloads"].get(name)
        nw = new["workloads"].get(name)
        if ow is None or nw is None:
            print(f"{name}: missing from one record")
            failures += 1
            continue
        fo, fn = failed_share(ow), failed_share(nw)
        rose = fn > fo
        print(f"{name}: failed share {fo:.3g} -> {fn:.3g}"
              + (" FAILED SHARE ROSE" if rose else ""))
        failures += rose
        for m in spec["end_to_end"]:
            o = ow["end_to_end"].get(m["name"])
            n = nw["end_to_end"].get(m["name"])
            if o is None or n is None:
                print(f"  {m['name']:21s} missing from one record")
                failures += 1
                continue
            worse = worse_by(o["median"], n["median"], m["better"])
            limit = max(m["bound"], 2 * max(o["spread"], n["spread"]))
            regressed = worse > limit
            print(f"  {m['name']:21s} {o['median']:.4g} -> {n['median']:.4g} "
                  f"{m['unit']} ({m['better']} is better, worse by {worse:+.1%}, "
                  f"limit {limit:.1%}) {'REGRESSION' if regressed else 'ok'}")
            failures += regressed
    return failures


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (load(p) for p in argv)
    for key in PROVENANCE:
        if old[key] != new[key]:
            print(f"bench_diff: provenance differs ({key}): {old[key]} vs {new[key]}",
                  file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = compare(old, new, spec)
    if failures:
        print(f"FAIL: {failures} regression(s), rises in failed share or missing metrics")
        return 1
    print("OK: no end-to-end metric regressed past its limit")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
