"""Statistics, metric derivation, correctness gate and compare verdicts.

Pure functions over the JSON records isw_perf prints, kept apart from
run.py (which builds and runs things) so the unit tests can cover them.
"""

import math
import statistics

# ---------------------------------------------------------------------------
# Summaries


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    xs = list(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def tail(xs):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile) or None when there are fewer than 11
    samples: with n samples, the value at rank n-10 (1-based, sorted
    ascending) has exactly ten above it and sits at percentile
    100 * (n - 10) / n.
    """
    n = len(xs)
    if n < 11:
        return None
    return sorted(xs)[n - 11], 100.0 * (n - 10) / n


def summarize(xs):
    q1, q2, q3 = quartiles(xs)
    out = {"median": q2, "q1": q1, "q3": q3, "n": len(xs)}
    t = tail(xs)
    if t is not None:
        out["tail"], out["tail_pct"] = t
    return out


def geomean(xs):
    xs = [x for x in xs if x > 0]
    if not xs:
        return 0.0
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def ln_error(pairs):
    """Mean |ln(ours / paper)| over (ours, paper) ratio pairs; 0 if none."""
    pairs = list(pairs)
    if not pairs:
        return 0.0
    return sum(abs(math.log(ours / paper)) for ours, paper in pairs) / len(pairs)


# ---------------------------------------------------------------------------
# Bounds and verdicts


class Bound:
    """How far a median may move the wrong way before it counts as worse.

    The allowance is the larger of `rel` times the parent's median and
    the absolute `abs`; Bound(0) is exact: any move the wrong way is
    worse.
    """

    def __init__(self, rel, abs=0.0):
        self.rel = rel
        self.abs = abs

    def allowance(self, parent_median):
        return max(self.rel * abs(parent_median), self.abs)

    def worse(self, parent_median, change_median, better):
        delta = change_median - parent_median
        if better == "higher":
            delta = -delta
        return delta > self.allowance(parent_median)


# Fewer run pairs than this never support a claimed gain.
MIN_PAIRS_FOR_GAIN = 10


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(parent, change, better, bound):
    """Classify a change's runs of one metric against the parent's.

    - "unresolved": the parent's run-to-run spread is wider than the
      bound allows, and not every change run beats every parent run;
    - "improved": at least ten run pairs (runs matched in order), the
      change wins at least nine tenths of them (ties counting for
      neither), and the medians differ, the right way, by more than the
      parent's quartile distance;
    - "worse": the change's median moved the wrong way by more than the
      bound;
    - "within bound" otherwise.
    """
    pq1, pm, pq3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    everyone_better = all(is_better(c, p, better) for c in change for p in parent)
    if pq3 - pq1 > bound.allowance(pm) and not everyone_better:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if is_better(c, p, better))
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(pairs) and is_better(cm, pm, better)
            and abs(cm - pm) > pq3 - pq1):
        return "improved"
    if bound.worse(pm, cm, better):
        return "worse"
    return "within bound"


# ---------------------------------------------------------------------------
# Metrics from isw_perf records


def _extra(job, key):
    return job["extras"].get(key, 0.0)


def _perf(job, key):
    return job["perf"].get(key, 0.0)


# The probe time that defines one reference second (README.md,
# "Host-speed normalization"): about the one-thread probe time on the
# host baseline.json was measured on.
REFERENCE_PROBE_S = 0.006


def end_to_end(rec):
    """The end-to-end metrics of one repetition (one isw_perf record),
    plus the raw host times and probe time they are derived from.

    Host times are scaled to the reference speed with the median of the
    probes taken between the same process's jobs: set-up runs on one
    thread, so it is scaled by the one-thread probes; runs by probes as
    wide as the workload's thread count.
    """
    jobs = rec["jobs"]
    one = median(rec["probe_s"])
    wide = median(rec["wide_probe_s"]) if rec["wide_probe_s"] else one
    raw_wall = sum(j["run_s"] + j["teardown_s"] for j in jobs)
    raw_setup = sum(j["setup_s"] for j in jobs)
    return {
        "wall_s": raw_wall * REFERENCE_PROBE_S / wide,
        "setup_s": raw_setup * REFERENCE_PROBE_S / one,
        "peak_rss_mb": rec["peak_rss_mb"],
        "sim_iter_ms": geomean(j["sim_ms_per_iter"] for j in jobs),
        "raw_wall_s": raw_wall,
        "raw_setup_s": raw_setup,
        "probe_s": one,
    }


def job_failed(job):
    return bool(job["error"]) or _extra(job, "retx_gave_up") > 0 or \
        job["iterations"] < job["max_iterations"]


def iteration_intervals(job):
    """Simulated ms between consecutive iterations (curve_every = 1)."""
    ts = [0] + [t for t, _ in job["curve"]]
    return [(b - a) / 1e6 for a, b in zip(ts, ts[1:])]


def iters_to_target(job):
    """First iteration whose cluster-average reward reaches the target."""
    for i, (_, reward) in enumerate(job["curve"]):
        if reward >= job["target_reward"]:
            return i + 1
    return None


def _twins(jobs):
    """(lossless, lossy) pairs matched by name suffix."""
    base = {j["name"].split("/", 1)[1]: j for j in jobs if j["name"].startswith("lossless/")}
    return [(base[j["name"].split("/", 1)[1]], j) for j in jobs if j["name"].startswith("lossy-ha/")]


def paper_ratios(jobs):
    """(ours, paper) speedups over the PS baseline of the same algorithm,
    for every job the paper has a per-iteration time for."""
    ref = [j for j in jobs if j.get("paper_per_iter_ms")]
    pairs = []
    for j in ref:
        if "PS" in j["strategy"]:
            continue
        for b in ref:
            if b["algo"] == j["algo"] and b["strategy"] == ("Async PS" if "Async" in j["strategy"] else "PS"):
                pairs.append((b["sim_ms_per_iter"] / j["sim_ms_per_iter"],
                              b["paper_per_iter_ms"] / j["paper_per_iter_ms"]))
    return pairs


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(rec, untraced_wall_s):
    """Per-layer metrics of a traced record, and each replayed layer's
    {"count", "ns_per_op"}: the operations the workload ran in it and
    their replayed unit cost.

    Host rates and attribution shares are taken of the traced run's own
    raw wall time, which was measured at the same host speed as its
    replays; the tracing overhead compares normalized wall times with the
    untraced median."""
    jobs = rec["jobs"]
    e2e = end_to_end(rec)
    wall_ns = e2e["raw_wall_s"] * 1e9
    replay = {r["name"]: r for r in rec["replay"]["jobs"]}

    def total(f):
        return sum(f(j) for j in jobs)

    def replayed(count, unit):
        """Σ over jobs of a count times the job's replayed unit cost."""
        return total(lambda j: count(j) * replay[j["name"]][unit])

    def packets_of(j):
        return _extra(j, "packets_sealed")

    events = total(lambda j: _extra(j, "events_executed"))
    packets = total(packets_of)
    folds = total(lambda j: j["folds"])
    lgc = total(lambda j: j["lgc_count"])
    lwu = total(lambda j: j["lwu_count"])
    iterations = total(lambda j: j["iterations"])
    ns = {
        "sim": events * rec["replay"]["sim_ns_per_event"],
        "net": replayed(packets_of, "net_ns_per_packet"),
        "core": replayed(lambda j: j["folds"], "core_ns_per_fold"),
        "encode": replayed(packets_of, "dist_ns_per_seg_encode"),
        "reassemble": replayed(packets_of, "dist_ns_per_seg_reassemble"),
        "rl": replayed(lambda j: j["lgc_count"], "rl_ns_per_lgc"),
        "ml": replayed(lambda j: j["lwu_count"], "ml_ns_per_lwu"),
    }
    windows = total(lambda j: _perf(j, "shard_windows"))
    pool_allocs = total(lambda j: _perf(j, "pool_allocs"))
    pool_reuses = total(lambda j: _perf(j, "pool_reuses"))
    timeouts = total(lambda j: _extra(j, "retx_timeouts"))
    committed = total(lambda j: _extra(j, "gradients_committed"))
    skipped = total(lambda j: _extra(j, "gradients_skipped"))
    twins = _twins(jobs)
    lossy = [j for _, j in twins]
    intervals = [x for j in jobs for x in iteration_intervals(j)]
    t = tail(intervals)
    reached = [n for n in (iters_to_target(j) for j in jobs if j["learning"]) if n]

    m = {
        "sim.events": events,
        "sim.events_per_s": events / wall_ns * 1e9,
        "sim.ns_per_event": rec["replay"]["sim_ns_per_event"],
        "sim.sim_s_per_wall_s": total(lambda j: j["total_sim_ns"]) / wall_ns,
        "sim.shard_windows": windows,
        "sim.shard_serial_share": _ratio(total(lambda j: _perf(j, "shard_windows_serial")), windows),
        "sim.shard_domains_skipped": total(lambda j: _perf(j, "shard_domains_skipped")),
        "sim.shard_cross_per_batch": _ratio(total(lambda j: _perf(j, "shard_cross_events")),
                                            total(lambda j: _perf(j, "shard_cross_batches"))),
        "sim.shard_mailbox_contention": total(lambda j: _perf(j, "shard_mailbox_contention")),
        "net.packets": packets,
        "net.ns_per_packet": _ratio(ns["net"], packets),
        "net.pool_allocs_per_iter": _ratio(pool_allocs, iterations),
        "net.pool_reuse_ratio": _ratio(pool_reuses, pool_allocs + pool_reuses),
        "net.fault_drops": total(lambda j: sum(v for k, v in j["extras"].items()
                                               if k.startswith("fault_") and k.endswith("_drops"))),
        "core.folds": folds,
        "core.ns_per_fold": _ratio(ns["core"], folds),
        "core.peak_active_segments": max(_extra(j, "peak_active_segments") for j in jobs),
        "core.repl_frames_per_iter": _ratio(sum(_extra(j, "failover_repl_frames") for j in lossy),
                                            sum(j["iterations"] for j in lossy)),
        "core.failover_detect_ms": _ratio(sum(_extra(j, "failover_promote_ms") - j["crash_ms"] for j in lossy),
                                          len(lossy)),
        "dist.ns_per_seg_encode": _ratio(ns["encode"], packets),
        "dist.ns_per_seg_reassemble": _ratio(ns["reassemble"], packets),
        "dist.sim_ga_ms": statistics.mean(j["sim_ga_ms"] for j in jobs),
        "dist.sim_lgc_ms": statistics.mean(j["sim_lgc_ms"] for j in jobs),
        "dist.sim_lwu_ms": statistics.mean(j["sim_lwu_ms"] for j in jobs),
        "dist.sim_iter_p50_ms": median(intervals),
        "dist.sim_iter_tail_ms": t[0] if t else 0.0,
        "dist.sim_iter_tail_pct": t[1] if t else 0.0,
        "dist.sim_iter_n": len(intervals),
        "dist.retx_segments": total(lambda j: _extra(j, "retx_segments")),
        "dist.retx_timeouts": timeouts,
        "dist.help_fbcast": total(lambda j: _extra(j, "help_requests") + _extra(j, "fbcasts")),
        "dist.recovery_ratio": _ratio(total(lambda j: _extra(j, "recoveries")), timeouts),
        "dist.async_commit_ratio": _ratio(committed, committed + skipped),
        "dist.iters_to_target": median(reached) if reached else 0.0,
        "rl.lgc_count": lgc,
        "rl.ns_per_lgc": _ratio(ns["rl"], lgc),
        "ml.lwu_count": lwu,
        "ml.ns_per_lwu": _ratio(ns["ml"], lwu),
        "fidelity.paper_err": ln_error(paper_ratios(jobs)),
        "fidelity.recovery_slowdown": geomean(j["sim_ms_per_iter"] / b["sim_ms_per_iter"]
                                              for b, j in twins if b["sim_ms_per_iter"] > 0),
    }
    ns["dist"] = ns.pop("encode") + ns.pop("reassemble")
    counts = {"sim": events, "net": packets, "core": folds, "dist": packets, "rl": lgc, "ml": lwu}
    layers = {}
    for layer, cost in ns.items():
        m["attr.%s_share" % layer] = cost / wall_ns
        layers[layer] = {"count": counts[layer], "ns_per_op": _ratio(cost, counts[layer])}
    m["attr.unattributed_share"] = 1.0 - sum(ns.values()) / wall_ns
    m["trace_overhead"] = e2e["wall_s"] / untraced_wall_s - 1.0
    return m, layers


# ---------------------------------------------------------------------------
# Correctness gate

WEIGHT_TOLERANCE = 1e-4


def gate(reps, check=None, traced=None):
    """Correctness failures (empty list = correct) over one workload's
    repetitions, its single-thread check record and its traced record."""
    failures = []
    records = list(reps) + [r for r in (check, traced) if r is not None]
    for r in records:
        for j in r["jobs"]:
            if job_failed(j):
                failures.append("%s: job %s failed (error=%r, retx_gave_up=%g, iterations %d of %d)" % (
                    r["workload"], j["name"], j["error"], _extra(j, "retx_gave_up"),
                    j["iterations"], j["max_iterations"]))
            if j["name"].startswith("lossy-ha/") and _extra(j, "failover_events") != 1:
                failures.append("%s: %s had %g failovers, expected 1" % (
                    r["workload"], j["name"], _extra(j, "failover_events")))
        for name, diff in r["weights_max_diff_vs_ps"].items():
            if diff is None or not diff <= WEIGHT_TOLERANCE:
                failures.append("%s: worker-0 weights of %s differ from PS by %s" % (r["workload"], name, diff))
    digests = {r["results_digest"] for r in list(reps) + ([traced] if traced else [])}
    if len(digests) > 1:
        failures.append("%s: simulated results differ across repetitions: %s" % (
            reps[0]["workload"], sorted(digests)))
    if check is not None and check["results_digest"] != reps[0]["results_digest"]:
        failures.append("%s: %d-thread results digest %s differs from %d-thread results digest %s" % (
            check["workload"], check["threads"], check["results_digest"], reps[0]["threads"],
            reps[0]["results_digest"]))
    return failures
