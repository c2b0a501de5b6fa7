#!/usr/bin/env python3
"""Record the repository benchmark, or A/B two trees of it.

    python3 scripts/record_bench.py OUT.json
    python3 scripts/record_bench.py --ab PARENT_REV [CHANGE_REV]

The first form runs perfbench/run.py on every workload of BENCHMARK.json at
each seed of SEEDS for BENCHMARK.json's run_seconds, one process at a time,
plus one traced run per workload at the first seed, and writes one record in
perfbench/baseline.json's shape:

  * per workload and end-to-end metric: median, q1, q3, spread (IQR /
    median), the bound, and the value at each seed (null where the run
    failed; a failed run adds nothing to the statistics);
  * per workload: the traced run's per-layer values, and the repetitions
    perfbench attempted and failed over all runs (a run that ends without a
    result line counts as one failed repetition);
  * provenance, which bench_diff.py requires to match: perfbench's
    `provenance:` line ("host"), the seeds, the run length and a hash of
    perfbench/ plus BENCHMARK.json;
  * identity, which is never compared: the git rev, a dirty flag and a hash
    of src/.

The second form exports PARENT_REV (and CHANGE_REV; without it the working
tree is the change) with `git archive` under .bench_build/record_bench/,
builds each side with its own CARGO_TARGET_DIR, and refuses (exit 2) when
the two sides' benchmark hashes differ. It runs PAIRS interleaved pairs per
workload on the same seeds, alternating which side runs first, then one
traced pair per workload, and writes both records as parent.json and
change.json in that directory. Per workload and end-to-end metric it prints
each side's median with quartiles, the pairs the change won (ties count for
neither) and one verdict:

  gain        the change won at least 9 of 10 pairs, and the medians differ
              by more than the parent's IQR;
  regression  the change's median is worse by more than the bound;
  unresolved  either side's spread is wider than the bound, and not every
              change run reads better than every parent run;
  no change   otherwise.

Either form exits 1 when a run failed; the A/B also exits 1 on a regression.
"""
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".bench_build", "record_bench")
SEEDS = list(range(1, 11))
PAIRS = len(SEEDS)


def log(msg):
    print(f"record_bench: {msg}", file=sys.stderr, flush=True)


def tree_hash(root, names):
    """sha256 over the relative path and bytes of every file under names."""
    paths = []
    for name in names:
        top = os.path.join(root, name)
        if os.path.isfile(top):
            paths.append(top)
        for d, _, files in os.walk(top):
            if "__pycache__" not in d:
                paths += [os.path.join(d, f) for f in files]
    h = hashlib.sha256()
    for path in sorted(paths):
        with open(path, "rb") as f:
            h.update(os.path.relpath(path, root).encode() + b"\0" + f.read() + b"\0")
    return h.hexdigest()


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def parse_output(stdout):
    """perfbench's JSON result with its provenance line as "host", or None."""
    host, result = None, None
    for line in stdout.splitlines():
        if line.startswith("provenance: "):
            host = json.loads(line[len("provenance: "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if host is None or result is None:
        return None
    result["host"] = host
    return result


class Side:
    """One tree to benchmark: its sources, build directory, identity and runs."""

    def __init__(self, label, rev=None):
        self.label = label
        if rev is None:
            self.root = ROOT
            self.target = os.path.join(WORK_DIR, "worktree")
            self.identity = {"rev": git("rev-parse", "HEAD"),
                             "dirty": bool(git("status", "--porcelain"))}
        else:
            sha = git("rev-parse", "--verify", rev + "^{commit}")
            # Named by commit: git archive stamps files with the commit time,
            # so a tree extracted over another one's build would not rebuild.
            self.root = os.path.join(WORK_DIR, sha, "tree")
            self.target = os.path.join(WORK_DIR, sha, "target")
            if not os.path.isdir(self.root):
                os.makedirs(self.root + ".part", exist_ok=True)
                archive = subprocess.run(["git", "-C", ROOT, "archive", sha],
                                         check=True, capture_output=True).stdout
                subprocess.run(["tar", "-x", "-C", self.root + ".part"],
                               input=archive, check=True)
                os.rename(self.root + ".part", self.root)
            self.identity = {"rev": sha, "dirty": False}
        self.identity["src_hash"] = tree_hash(self.root, ["src"])
        self.benchmark_hash = tree_hash(self.root, ["perfbench", "BENCHMARK.json"])
        with open(os.path.join(self.root, "BENCHMARK.json")) as f:
            self.spec = json.load(f)
        self.results = {}  # (workload, seed, trace) -> parse_output() of the run
        self.host = None

    def perfbench(self, *args):
        return subprocess.run(
            [sys.executable, os.path.join(self.root, "perfbench", "run.py")] + list(args),
            env=dict(os.environ, CARGO_TARGET_DIR=self.target),
            capture_output=True, text=True)

    def build(self):
        log(f"building {self.label} ({self.identity['rev'][:12]}) into {self.target}")
        done = self.perfbench("--selftest")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"record_bench: {self.label}: perfbench selftest failed")

    def run(self, workload, seed, trace):
        done = self.perfbench("--workload", workload, "--seed", str(seed),
                              "--seconds", str(self.spec["run_seconds"]),
                              "--trace", str(trace))
        result = parse_output(done.stdout)
        if done.returncode != 0 or result is None or not result["correct"]:
            sys.stderr.write(done.stderr)
            log(f"{self.label} {workload} seed {seed} trace {trace}: run failed")
        elif self.host is None:
            self.host = result["host"]
        self.results[(workload, seed, trace)] = result


def summarize(values):
    """Median, quartiles (linear interpolation) and IQR / median of values."""
    values = [v for v in values if v is not None]
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def passed(result):
    return result is not None and result["correct"]


def make_record(side):
    workloads = {}
    for w in side.spec["workloads"]:
        name = w["name"]
        runs = [side.results.get((name, s, 0)) for s in SEEDS]
        traced = side.results.get((name, SEEDS[0], 1))
        end_to_end = {}
        for m in side.spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] if passed(r) else None for r in runs]
            if any(v is not None for v in values):
                end_to_end[m["name"]] = dict(unit=m["unit"], **summarize(values),
                                             bound=m["bound"], values=values)
        workloads[name] = {
            "why": w["why"],
            "end_to_end": end_to_end,
            "per_layer": ({k: v["value"] for k, v in traced["metrics"].items()}
                          if passed(traced) else {}),
            "attempted": sum(r["attempted"] if r else 1 for r in runs + [traced]),
            "failed": sum(r["failed"] if r else 1 for r in runs + [traced]),
        }
    return {
        "what": "perfbench medians and quartiles over the seeds per workload "
                "(untraced; engine rate and set-up time scaled to the reference "
                "host probe time), and the per-layer values of one traced run "
                "(first seed).",
        "host": side.host,
        "run_seconds": side.spec["run_seconds"],
        "seeds": SEEDS,
        "benchmark_hash": side.benchmark_hash,
        "identity": side.identity,
        "workloads": workloads,
    }


def write(path, record):
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    log(f"wrote {path}")


def wins(parent, change, better):
    """Pairs the change won; a tie, or a pair with a failed run, counts for neither."""
    sign = 1 if better == "higher" else -1
    return sum(1 for p, c in zip(parent, change)
               if p is not None and c is not None and sign * (c - p) > 0)


def verdict(parent, change, better, bound):
    """gain / regression / unresolved / no change from the per-pair values."""
    sign = 1 if better == "higher" else -1
    p, c = summarize(parent), summarize(change)
    gap = sign * (c["median"] - p["median"])
    if p["median"] and -gap / abs(p["median"]) > bound:
        return "regression"
    if wins(parent, change, better) * 10 >= 9 * len(parent) and gap > p["q3"] - p["q1"]:
        return "gain"
    ordered = all(sign * (cv - pv) > 0 for cv in change if cv is not None
                  for pv in parent if pv is not None)
    if max(p["spread"], c["spread"]) > bound and not ordered:
        return "unresolved"
    return "no change"


def report(parent, change, spec):
    """Prints the A/B table; returns 1 on a regression or a failed run."""
    status = 0
    for w in spec["workloads"]:
        pw, cw = parent["workloads"][w["name"]], change["workloads"][w["name"]]
        print(f"{w['name']}: failed repetitions {pw['failed']}/{pw['attempted']} -> "
              f"{cw['failed']}/{cw['attempted']}")
        status |= bool(pw["failed"] or cw["failed"])
        for m in spec["end_to_end"]:
            if m["name"] not in pw["end_to_end"] or m["name"] not in cw["end_to_end"]:
                print(f"  {m['name']:21s} no passing run on one side")
                continue
            p, c = pw["end_to_end"][m["name"]], cw["end_to_end"][m["name"]]
            v = verdict(p["values"], c["values"], m["better"], m["bound"])
            status |= v == "regression"
            rel = (c["median"] / p["median"] - 1) * 100 if p["median"] else 0.0
            print(f"  {m['name']:21s} {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
                  f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {m['unit']} "
                  f"({rel:+.1f}%), change won "
                  f"{wins(p['values'], c['values'], m['better'])}/{len(p['values'])}: {v}")
    return int(status)


def ab(parent_rev, change_rev):
    os.makedirs(WORK_DIR, exist_ok=True)
    parent, change = Side("parent", parent_rev), Side("change", change_rev)
    if parent.benchmark_hash != change.benchmark_hash:
        log("the two sides' perfbench/ or BENCHMARK.json differ; "
            "an A/B needs identical benchmark code")
        return 2
    names = [w["name"] for w in change.spec["workloads"]]
    parent.build()
    change.build()
    for i, seed in enumerate(SEEDS):
        sides = (parent, change) if i % 2 == 0 else (change, parent)
        for name in names:
            log(f"pair {i + 1}/{PAIRS} {name} seed {seed}: {sides[0].label} first")
            for side in sides:
                side.run(name, seed, 0)
    for i, name in enumerate(names):
        sides = (parent, change) if i % 2 == 0 else (change, parent)
        log(f"traced pair {name} seed {SEEDS[0]}: {sides[0].label} first")
        for side in sides:
            side.run(name, SEEDS[0], 1)
    records = [make_record(side) for side in (parent, change)]
    for label, rec in zip(("parent", "change"), records):
        write(os.path.join(WORK_DIR, label + ".json"), rec)
    return report(*records, change.spec)


def record(out):
    side = Side("tree")
    side.build()
    for seed in SEEDS:
        for w in side.spec["workloads"]:
            log(f"{w['name']} seed {seed}")
            side.run(w["name"], seed, 0)
    for w in side.spec["workloads"]:
        log(f"{w['name']} seed {SEEDS[0]} traced")
        side.run(w["name"], SEEDS[0], 1)
    rec = make_record(side)
    write(out, rec)
    return int(any(w["failed"] for w in rec["workloads"].values()))


def main(argv):
    if len(argv) == 1 and not argv[0].startswith("-"):
        return record(argv[0])
    if argv[:1] == ["--ab"] and len(argv) in (2, 3):
        return ab(argv[1], argv[2] if len(argv) == 3 else None)
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
