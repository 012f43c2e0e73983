#!/usr/bin/env python3
"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced result files `run.py --save DIR` writes
(one per run; run each side at least ten times on different seeds). Prints
one row per (workload, end-to-end metric): each side's quartiles and median,
the fraction of (parent, change) run pairs the change wins, and the verdict
under the metric's bound in BENCHMARK.json (metrics.verdict). Exits 1 when
any verdict is "worse".
"""

import glob
import json
import os
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def load(directory):
    """workload -> list of metric dicts, from untraced, comparable runs."""
    runs = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        prov = doc["provenance"]
        if prov["trace"]:
            continue
        if not prov["comparable"]:
            print(f"# skipping {path}: not comparable "
                  "(unoptimized, sanitizer or allocation-audit build)")
            continue
        runs[prov["workload"]].append(doc["result"]["metrics"])
    return runs


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(argv[1]), load(argv[2])
    print(f"{'workload':16s} {'metric':24s} {'parent q1/med/q3':>28s} "
          f"{'change q1/med/q3':>28s} {'wins':>5s} {'bound':>5s}  verdict")
    any_worse = False
    for w in (w["name"] for w in spec["workloads"]):
        if not parent[w] or not change[w]:
            print(f"{w:16s} (missing runs: parent {len(parent[w])}, "
                  f"change {len(change[w])})")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            v = metrics.verdict([r[name]["value"] for r in parent[w]],
                                [r[name]["value"] for r in change[w]],
                                m["better"], m["bound"])
            any_worse |= v["verdict"] == "worse"
            quart = ["/".join(f"{x:.4g}" for x in v[side])
                     for side in ("parent", "change")]
            print(f"{w:16s} {name:24s} {quart[0]:>28s} {quart[1]:>28s} "
                  f"{v['win_frac']:5.2f} {m['bound']:5.2f}  {v['verdict']}"
                  f" (n={len(parent[w])}/{len(change[w])})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
