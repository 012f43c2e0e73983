"""Statistics of the repository benchmark: tails, span self-times, the
metrics derived from the workload binary's records, and compare verdicts.

Pure functions over plain data; run.py and compare.py do the I/O.
"""

import statistics
from collections import defaultdict

TAIL_BEYOND = 10  # a tail percentile needs this many samples beyond it

# End-to-end metrics (untraced run): name -> unit. Every workload reports
# every one; "time to solution" is the workload's operation: a cold pass
# (cold_setup), a request from submit to reply (serve_repeat) or one step
# (transient_drift).
END_TO_END = {
    "setup_s": "s",
    "time_to_solution_s": "s",
    "time_to_solution_tail_s": "s",
    "solutions_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# The names the workloads' own descriptions give the same numbers.
ALIASES = {
    "cold_setup": {"time_to_solution_s": "time_to_solution_s"},
    "serve_repeat": {"time_to_solution_s": "request_p50_s",
                     "time_to_solution_tail_s": "request_tail_s",
                     "solutions_per_s": "requests_per_s"},
    "transient_drift": {"time_to_solution_s": "step_s",
                        "time_to_solution_tail_s": "step_tail_s"},
}

# Per-layer metrics (traced run): name -> unit.
PER_LAYER = {
    "core.sparsify_s": "s",
    "core.kept_nnz_frac": "fraction",
    "precond.factorize_s": "s",
    "precond.factor_nnz": "count",
    "wavefront.inspect_s": "s",
    "wavefront.levels": "count",
    "transient.update_s": "s",
    "transient.refactorize_s": "s",
    "transient.warm_iterations": "count",
    "sptrsv.apply_s": "s",
    "sptrsv.apply_share": "fraction",
    "sptrsv.gbps_computed": "GB/s",
    "sptrsv.level_apply_s": "s",
    "sparse.spmv_s": "s",
    "sparse.spmv_gbps_computed": "GB/s",
    "solver.blas1_s": "s",
    "solver.pcg_s": "s",
    "solver.iterations": "count",
    "solver.true_residual": "norm",
    "runtime.fingerprint_s": "s",
    "runtime.queue_wait_s": "s",
    "runtime.cache_hit_ratio": "fraction",
    "runtime.session_overhead_s": "s",
    "dist.partition_s": "s",
    "dist.subdomain_setup_s": "s",
    "dist.allreduces_per_iter": "count",
    "dist.halo_bytes_per_iter": "bytes",
    "dist.wait_s": "s",
    "dist.parallel_eff": "fraction",
    "bench.layer_coverage": "fraction",
    "bench.trace_overhead_frac": "fraction",
}


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample count). With fewer than 2 * beyond
    samples that percentile would sit at or below the median, so the median
    is reported instead, labelled as the 50th percentile.
    """
    xs = sorted(values)
    n = len(xs)
    at_or_below = n - beyond
    if at_or_below * 2 < n or at_or_below < 1:
        return median(xs), 50.0, n
    return xs[at_or_below - 1], 100.0 * at_or_below / n, n


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(records):
    """Per op: {name: [self seconds, inclusive seconds, calls]}.

    `records` are span records (start, end) and part records (seconds), each
    with op, id, parent and name. A span's self time is its duration minus
    the part of its interval its child spans cover and minus its child
    parts' seconds; a part's self time is its seconds minus its child parts'.
    Each op also gets "@coverage": the share of its root span ("op") that
    its layers cover (1 - root self / root duration).
    """
    by_id = {r["id"]: r for r in records}
    child_spans = defaultdict(list)
    child_parts = defaultdict(float)
    for r in records:
        if r["parent"] < 0:
            continue
        if r["kind"] == "span":
            child_spans[r["parent"]].append((r["start"], r["end"]))
        else:
            child_parts[r["parent"]] += r["seconds"]
    out = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
    for rid, r in by_id.items():
        if r["kind"] == "span":
            s, e = r["start"], r["end"]
            clipped = [(max(a, s), min(b, e)) for a, b in child_spans[rid]
                       if min(b, e) > max(a, s)]
            inclusive = e - s
            covered = _union_length(clipped)
        else:
            inclusive = r["seconds"]
            covered = 0.0
        own = inclusive - covered - child_parts[rid]
        acc = out[r["op"]][r["name"]]
        acc[0] += own
        acc[1] += inclusive
        acc[2] += r.get("calls", 1)
        if r["name"] == "op" and inclusive > 0:
            out[r["op"]]["@coverage"] = [1.0 - own / inclusive, 0.0, 1]
    return out


def _op_phases(records):
    return {r["op"]: (r["phase"], r["traced"]) for r in records
            if r["kind"] == "op"}


def end_to_end(records):
    """The untraced run's end-to-end metrics plus their tail detail."""
    ops = [r for r in records if r["kind"] == "op" and not r["traced"]]
    op_s = [r["seconds"] for r in ops if r["phase"] == "op"]
    setup_s = [r["seconds"] for r in ops if r["phase"] == "setup"]
    rate = [r["value"] for r in records if r["kind"] == "value"
            and r["name"] == "bench.solutions_per_s"]
    rss = [r["peak_rss_mb"] for r in records if r["kind"] == "end"]
    tail_v, tail_pct, n = tail(op_s)
    metrics = {
        "setup_s": median(setup_s),
        "time_to_solution_s": median(op_s),
        "time_to_solution_tail_s": tail_v,
        "solutions_per_s": rate[0],
        "peak_rss_mb": rss[0],
    }
    return metrics, {"tail_percentile": tail_pct, "samples": n,
                     "setup_samples": len(setup_s)}


def per_layer(records):
    """The traced run's per-layer metrics and where each came from.

    A layer metric is the median over the ops that exercise the layer. The
    workload's own traced ops (setup and op phases) are used when any of
    them exercises it; otherwise the probe ops are ("probe-" phases).
    """
    phases = _op_phases(records)
    selfs = self_times([r for r in records if r["kind"] in ("span", "part")])
    values = defaultdict(lambda: defaultdict(list))
    for r in records:
        if r["kind"] == "value":
            values[r["op"]][r["name"]].append(r["value"])
    checks = defaultdict(list)  # operations only: setups solve cold
    for r in records:
        if r["kind"] == "check" and phases.get(r["op"], ("", False))[0] in (
                "op", "probe-op"):
            checks[r["op"]].append(r)

    def own(op):
        return phases.get(op, ("", False))[0] in ("setup", "op")

    def probe(op):
        return phases.get(op, ("", False))[0] in ("probe-setup", "probe-op")

    def pick(per_op):
        """per_op: {op: value or None} -> (median, source)."""
        for source, keep in (("own", own), ("probe", probe)):
            xs = [v for op, v in per_op.items() if keep(op) and v is not None]
            if xs:
                return median(xs), source
        raise ValueError("no op measured this layer")

    def span_stat(name, idx):
        return {op: (d[name][idx] if name in d else None)
                for op, d in selfs.items()}

    def ratio(num, den):
        return {op: (num[op] / den[op]
                     if num.get(op) is not None and den.get(op) else None)
                for op in set(num) | set(den)}

    def value_sum(name):
        return {op: (sum(d[name]) if name in d else None)
                for op, d in values.items()}

    run_values = {name: v[0] for name, v in values[-1].items()}
    apply_self = span_stat("sptrsv.apply", 0)
    apply_calls = span_stat("sptrsv.apply", 2)
    spmv_self = span_stat("sparse.spmv", 0)
    pcg_incl = span_stat("solver.pcg", 1)

    derived = {
        "core.sparsify_s": span_stat("core.sparsify", 0),
        "core.kept_nnz_frac": ratio(value_sum("core.kept_nnz"),
                                    value_sum("core.input_nnz")),
        "precond.factorize_s": span_stat("precond.factorize", 0),
        "precond.factor_nnz": value_sum("precond.factor_nnz"),
        "wavefront.inspect_s": span_stat("wavefront.inspect", 0),
        "wavefront.levels": value_sum("wavefront.levels"),
        "transient.update_s": span_stat("transient.update", 1),
        "transient.refactorize_s": span_stat("transient.refactorize", 0),
        "transient.warm_iterations": value_sum("transient.warm_iterations"),
        "sptrsv.apply_s": ratio(apply_self, apply_calls),
        "sptrsv.apply_share": ratio(apply_self, pcg_incl),
        "sptrsv.gbps_computed": {
            op: v / 1e9 for op, v in
            ratio(value_sum("sptrsv.bytes"), apply_self).items()
            if v is not None},
        "sparse.spmv_s": spmv_self,
        "sparse.spmv_gbps_computed": {
            op: v / 1e9 for op, v in
            ratio(value_sum("sparse.spmv_bytes"), spmv_self).items()
            if v is not None},
        "solver.blas1_s": span_stat("solver.pcg", 0),
        "solver.pcg_s": pcg_incl,
        "solver.iterations": {op: sum(c["iterations"] for c in cs)
                              for op, cs in checks.items()},
        "solver.true_residual": {op: max(c["residual"] for c in cs)
                                 for op, cs in checks.items()},
        "runtime.fingerprint_s": span_stat("runtime.fingerprint", 1),
        "runtime.queue_wait_s": span_stat("runtime.queue_wait", 1),
        "runtime.session_overhead_s": value_sum("runtime.session_overhead_s"),
        "dist.partition_s": span_stat("dist.partition", 1),
        "dist.subdomain_setup_s": span_stat("dist.subdomain_setup", 1),
        "dist.allreduces_per_iter": value_sum("dist.allreduces_per_iter"),
        "dist.halo_bytes_per_iter": value_sum("dist.halo_bytes_per_iter"),
        "dist.wait_s": span_stat("dist.wait", 1),
        "dist.parallel_eff": value_sum("dist.parallel_eff"),
    }
    out, source = {}, {}
    for name, per_op in derived.items():
        out[name], source[name] = pick(per_op)

    hits = [v for op, d in values.items() for v in d.get("runtime.cache_hit", [])
            if phases.get(op, ("", False))[0] == "op"]
    probe_hits = [v for op, d in values.items()
                  for v in d.get("runtime.cache_hit", [])
                  if phases.get(op, ("", False))[0] == "probe-op"]
    out["runtime.cache_hit_ratio"] = statistics.fmean(hits or probe_hits)
    source["runtime.cache_hit_ratio"] = "own" if hits else "probe"

    out["sptrsv.level_apply_s"] = run_values["sptrsv.level_apply_s"]
    source["sptrsv.level_apply_s"] = "own"

    coverage = [d["@coverage"][0] for op, d in selfs.items()
                if "@coverage" in d and phases.get(op) == ("op", True)]
    out["bench.layer_coverage"] = median(coverage)
    source["bench.layer_coverage"] = "own"

    timed = defaultdict(list)
    for r in records:
        if r["kind"] == "op" and r["phase"] == "op":
            timed[r["traced"]].append(r["seconds"])
    out["bench.trace_overhead_frac"] = (
        median(timed[True]) / median(timed[False]) - 1.0)
    source["bench.trace_overhead_frac"] = "own"
    return out, source


def failures(records):
    """(attempted, failed, failing check records)."""
    checks = [r for r in records if r["kind"] == "check"]
    bad = [r for r in checks if not r["ok"]]
    return len(checks), len(bad), bad


def verdict(parent, change, better, bound):
    """Compare two sets of runs of one end-to-end metric.

    better: "lower" or "higher"; bound: the share of the parent's median by
    which the change may be worse before it counts as a regression.
    Verdicts, in this order:
      better      the change wins at least 9/10 of all (parent, change)
                  pairs, ties counting for neither, and the medians differ
                  by more than the parent's own quartile spread
      unresolved  the parent's quartile spread is wider than the bound,
                  unless every change run beats (better) or loses to
                  (worse, when beyond the bound) every parent run
      worse       the change's median is worse than the parent's by more
                  than the bound
      unchanged   otherwise
    """
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p in parent for c in change if sign * (p - c) > 0)
    losses = sum(1 for p in parent for c in change if sign * (p - c) < 0)
    pairs = len(parent) * len(change)
    win_frac = wins / pairs
    worse_by = sign * (cm - pm) / abs(pm)
    spread = (p3 - p1) / abs(pm)
    if win_frac >= 0.9 and abs(cm - pm) > p3 - p1:
        v = "better"
    elif spread > bound:
        if wins == pairs:
            v = "better"
        elif losses == pairs and worse_by > bound:
            v = "worse"
        else:
            v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "unchanged"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3),
            "win_frac": win_frac, "worse_by": worse_by, "verdict": v}
