#!/usr/bin/env python3
"""Compare two BENCH_*.json records and fail on kernel regressions.

Usage: bench_diff.py OLD.json NEW.json [--threshold PCT]

Two kinds of entries are compared, matched by name across the files:

  * google-benchmark micro kernels (the "benchmarks" array): cpu_time,
    lower is better;
  * engine kernel rates (the "event_core" and — since PR 7 —
    "large_scale" sections, or PR 3's "shard_scaling" section, whose rows
    are normalized to the same keys): events_per_s, higher is better. Rows
    are keyed by (engine, nodes, shards), so the sharded online, sharded
    replay and large-scale rows are tracked independently (older records'
    "serial" rows now match nothing and report as only-in-one-file);
  * engine memory footprints (the same sections' mem_bytes key): bytes at
    end of run, lower is better. A row that silently balloons past the
    threshold fails CI even if its events/s held up — the large-scale tier
    exists precisely because state size, not speed, is what breaks first;
  * serving-tier rows (the "serving" section, since PR 8): p99_us per
    (scenario, nodes, shards, clients, rate) row, lower is better, and the
    achieved qps, higher is better. Tail latency is the serving layer's
    whole contract, so a p99 that quietly grows 25% fails the same way a
    kernel slowdown does. Since PR 10 rows also carry a snapshot_deltas
    flag (part of the key — delta and full publication rows are tracked
    independently; pre-PR 10 rows default to 0, so old full-mode rows keep
    matching) and snapshot_publish_bytes_per_epoch, the mean wire bytes one
    snapshot publish costs, lower is better — churn-proportional
    publication exists to hold this down, so it gates like memory;
  * rebalance rows (the "rebalance" section, since PR 9): events_per_s per
    (scenario, nodes, shards, rebalance) row, higher is better, and
    util_spread — the (max-min)/mean spread of per-shard busy CPU time —
    lower is better. Dynamic ownership exists to hold that spread down
    under churn without costing throughput, so both directions gate.
    util_spread is compared with an ADDITIVE slack of 0.1 on top of the
    percentage threshold: spread is a dimensionless ratio that sits near
    zero on a quiet host, so a pure percentage gate fails on scheduler
    noise (0.01 -> 0.04 is +300% but means nothing on a time-sliced
    1-core container), while a genuine regression — the kind rebalancing
    exists to prevent — moves spread by tenths (PR 9's own deltas:
    0.144 -> 0.028).

Entries present in only one file are reported but never fail the check
(benches come and go across PRs); a matched entry that regressed by more
than --threshold percent (default 25) fails with exit code 1. Records are
expected to come from comparable runs (same host class, same build type) —
this guards against collateral kernel damage, not micro-noise, hence the
generous default threshold.
"""

import argparse
import json
import sys


def micro_kernels(record):
    """name -> cpu_time (ns, lower is better) from the benchmarks array."""
    out = {}
    for b in record.get("benchmarks", []):
        if b.get("run_type", "iteration") == "iteration":
            out[b["name"]] = float(b["cpu_time"])
    return out


def _engine_rows(record):
    """Rows from every section that prints (engine, nodes, shards) rows."""
    for section in ("event_core", "large_scale"):
        for row in record.get(section, {}).get("results", []):
            yield row


def engine_rates(record):
    """name -> events/s (higher is better) from the engine row sections."""
    out = {}
    for row in _engine_rows(record):
        name = "online_events_per_s[engine=%s,nodes=%d,shards=%d]" % (
            row.get("engine", "sharded"),
            int(row["nodes"]),
            int(row.get("shards", 0)),
        )
        out[name] = float(row["events_per_s"])
    # PR 3's bench_shard_scaling section: always the sharded engine at 1000
    # nodes (the workload string pins it); normalize to the same key space.
    for row in record.get("shard_scaling", {}).get("results", []):
        name = "online_events_per_s[engine=sharded,nodes=1000,shards=%d]" % int(
            row["shards"]
        )
        out[name] = float(row["events_per_s"])
    return out


def engine_memory(record):
    """name -> mem_bytes (lower is better) from the engine row sections.

    Older records (pre-PR 5) have no mem_bytes key; their rows are simply
    absent here and show up as only-in-one-file, which never fails.
    """
    out = {}
    for row in _engine_rows(record):
        if "mem_bytes" not in row:
            continue
        name = "mem_bytes[engine=%s,nodes=%d,shards=%d]" % (
            row.get("engine", "sharded"),
            int(row["nodes"]),
            int(row.get("shards", 0)),
        )
        out[name] = float(row["mem_bytes"])
    return out


def _serving_key(row):
    return "scenario=%s,nodes=%d,shards=%d,clients=%d,rate=%d,deltas=%d" % (
        row.get("scenario", "planetlab"),
        int(row["nodes"]),
        int(row.get("shards", 0)),
        int(row.get("clients", 0)),
        int(row.get("rate_qps", 0)),
        int(row.get("snapshot_deltas", 0)),
    )


def serving_p99(record):
    """name -> p99 latency in us (lower is better) from the serving rows."""
    out = {}
    for row in record.get("serving", {}).get("results", []):
        out["serving_p99_us[%s]" % _serving_key(row)] = float(row["p99_us"])
    return out


def serving_qps(record):
    """name -> achieved queries/s (higher is better) from the serving rows."""
    out = {}
    for row in record.get("serving", {}).get("results", []):
        out["serving_qps[%s]" % _serving_key(row)] = float(row["qps"])
    return out


def serving_publish_bytes(record):
    """name -> mean snapshot wire bytes per publish (lower is better).

    Only PR 10+ rows carry snapshot_publish_bytes_per_epoch; older rows are
    simply absent and show up as only-in-one-file, which never fails.
    """
    out = {}
    for row in record.get("serving", {}).get("results", []):
        if "snapshot_publish_bytes_per_epoch" not in row:
            continue
        out["serving_publish_bytes[%s]" % _serving_key(row)] = float(
            row["snapshot_publish_bytes_per_epoch"]
        )
    return out


def _rebalance_key(row):
    return "scenario=%s,nodes=%d,shards=%d,rebalance=%d" % (
        row.get("scenario", "flash-crowd"),
        int(row["nodes"]),
        int(row.get("shards", 0)),
        int(row.get("rebalance", 0)),
    )


def rebalance_rates(record):
    """name -> events/s (higher is better) from the rebalance rows."""
    out = {}
    for row in record.get("rebalance", {}).get("results", []):
        out["rebalance_events_per_s[%s]" % _rebalance_key(row)] = float(
            row["events_per_s"]
        )
    return out


def rebalance_spread(record):
    """name -> per-shard busy-time spread (lower is better).

    (max-min)/mean of per-worker busy CPU time; dynamic ownership exists to
    push this down, so a spread that quietly grows back fails like a kernel
    slowdown.
    """
    out = {}
    for row in record.get("rebalance", {}).get("results", []):
        out["rebalance_util_spread[%s]" % _rebalance_key(row)] = float(
            row["util_spread"]
        )
    return out


def compare(name, old, new, lower_is_better, threshold_pct, abs_slack=0.0):
    # improvement_pct is signed in the direction of goodness: positive means
    # the new record is better, negative means it regressed.
    if lower_is_better:
        improvement_pct = (old - new) / old * 100.0 if old > 0 else (
            0.0 if new == 0 else float("-inf")
        )
    else:
        improvement_pct = (new - old) / old * 100.0 if old > 0 else float("inf")
    regressed = improvement_pct < -threshold_pct
    # Near-zero absolute metrics (util_spread) get an additive grace band:
    # only a move past old + abs_slack is a regression, whatever the
    # percentage says.
    if regressed and lower_is_better and abs_slack > 0.0:
        regressed = new > old + abs_slack
    better = "lower" if lower_is_better else "higher"
    marker = "REGRESSION" if regressed else "ok"
    print(
        "  %-58s old=%12.1f new=%12.1f (%s is better, %+6.1f%%) %s"
        % (name, old, new, better, improvement_pct, marker)
    )
    return regressed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=25.0,
                    help="max tolerated regression in percent (default 25)")
    args = ap.parse_args()

    with open(args.old) as f:
        old = json.load(f)
    with open(args.new) as f:
        new = json.load(f)

    failures = 0
    for title, extract, lower, abs_slack in (
        ("micro kernels (cpu_time)", micro_kernels, True, 0.0),
        ("online engine (events/s)", engine_rates, False, 0.0),
        ("engine memory (mem_bytes)", engine_memory, True, 0.0),
        ("serving tail latency (p99_us)", serving_p99, True, 0.0),
        ("serving throughput (qps)", serving_qps, False, 0.0),
        ("serving publish bytes/epoch", serving_publish_bytes, True, 0.0),
        ("rebalance throughput (events/s)", rebalance_rates, False, 0.0),
        ("rebalance busy-time spread", rebalance_spread, True, 0.1),
    ):
        a, b = extract(old), extract(new)
        shared = sorted(set(a) & set(b))
        only_old = sorted(set(a) - set(b))
        only_new = sorted(set(b) - set(a))
        print("%s: %d compared" % (title, len(shared)))
        for name in shared:
            if compare(name, a[name], b[name], lower, args.threshold,
                       abs_slack):
                failures += 1
        for name in only_old:
            print("  %-58s only in %s (skipped)" % (name, args.old))
        for name in only_new:
            print("  %-58s only in %s (skipped)" % (name, args.new))

    if failures:
        print("FAIL: %d kernel(s) regressed more than %.0f%%"
              % (failures, args.threshold))
        return 1
    print("OK: no kernel regressed more than %.0f%%" % args.threshold)
    return 0


if __name__ == "__main__":
    sys.exit(main())
