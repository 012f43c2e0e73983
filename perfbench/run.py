#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--save DIR]

Run from the repository root. Builds the workload binary (perfbench/
spcg_perfbench.cc against the unchanged library in src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, checks every solution it produced, and prints a human-readable
report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(metrics.py lists both). --save DIR also writes the full result, with its
provenance, to DIR/<workload>-seed<N>-trace<T>.json for compare.py.

Workloads (every one solves to absolute tolerance 1e-10 with library
defaults otherwise; inputs are generated from --seed):
  cold_setup       cold matrix-in -> solution-out passes, no cache:
                   gen_kernel2d(200,200,3.5,0.7) with ILU(2), then
                   gen_grid_laplacian(600,600,2.0,0.5) with ILU(0)
  serve_repeat     SolveService, 2 workers, 2 closed-loop clients, every
                   timed request a setup-cache hit on gen_poisson3d(64,64,64)
  transient_drift  TransientSession backward-Euler steps on
                   I/dt + D_t K D_t, K = gen_varcoef2d(500,500,1.0), with a
                   sinusoidal drift D_t: update_matrix + values-only refresh
                   + warm-started solve per step

Every traced run also probes the layers its workload never runs (service,
transient, distributed: 4 thread-ranks, comm-reduced body) on its matrix.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("cold_setup", "serve_repeat", "transient_drift")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build of the workload binary."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "spcg_perfbench", "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "spcg_perfbench")


def run_workload(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def provenance(records, args):
    host = next(r for r in records if r["kind"] == "host")
    comparable = (host["optimized"] and not host["sanitized"]
                  and not host["alloc_audit"]
                  and host["build_type"] in ("Release", "RelWithDebInfo"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {k: host[k] for k in ("nproc", "omp_num_threads",
                                      "build_type", "compiler", "optimized",
                                      "sanitized", "alloc_audit",
                                      "llc_bytes")},
        "comparable": comparable,
        "matrices": [{k: r[k] for k in ("name", "rows", "nnz",
                                        "pattern_hash", "values_hash")}
                     for r in records if r["kind"] == "matrix"],
    }


def report(args, records, prov):
    attempted, failed, bad = metrics.failures(records)
    if args.trace:
        values, source = metrics.per_layer(records)
        units = metrics.PER_LAYER
    else:
        values, detail = metrics.end_to_end(records)
        units = metrics.END_TO_END
        source = {}
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    host = prov["host"]
    print(f"# host nproc={host['nproc']} OMP_NUM_THREADS="
          f"{host['omp_num_threads'] or '(unset)'} build={host['build_type']} "
          f"compiler={host['compiler']} comparable={prov['comparable']}")
    if not prov["comparable"]:
        print("# NOT COMPARABLE: unoptimized, sanitizer or allocation-audit "
              "build")
    for m in prov["matrices"]:
        print(f"# matrix {m['name']} rows={m['rows']} nnz={m['nnz']} "
              f"pattern={m['pattern_hash']} values={m['values_hash']}")
    aliases = metrics.ALIASES[args.workload]
    for name, unit in units.items():
        note = ""
        if name in aliases and aliases[name] != name:
            note = f"  (= {aliases[name]})"
        if name == "time_to_solution_tail_s":
            note += (f"  p{detail['tail_percentile']:.1f} of "
                     f"{detail['samples']} samples")
        if source.get(name) == "probe":
            note += "  (probe: layer not run by this workload)"
        print(f"{name:32s} {values[name]:.6g} {unit}{note}")
    print(f"failed_frac {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} checked solves)")
    for r in bad:
        print(f"# FAILED op {r['op']} matrix {r['matrix']} iterations "
              f"{r['iterations']} true residual {r['residual']}")
    if args.trace:
        cov = values["bench.layer_coverage"]
        print(f"# layer self-times cover {100 * cov:.1f}% of op time "
              f"(reconciled within 5%: {abs(cov - 1.0) <= 0.05})")
        print("# bytes are computed from array sizes; the working set is "
              f"below the {host['llc_bytes'] / 2**20:.0f} MiB LLC")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="directory for the full result file")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
        records = run_workload(binary, args)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    prov = provenance(records, args)
    result = report(args, records, prov)
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        path = os.path.join(args.save, f"{args.workload}-seed{args.seed}-"
                                       f"trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump({"provenance": prov, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
