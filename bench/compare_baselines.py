#!/usr/bin/env python3
"""Compare fresh BENCH_micro_*.json reports against bench/baselines/.

Warn-only by design: micro-bench timings on shared CI runners are
noisy, so ordinary drift only prints a warning. The step fails only on
a catastrophic (> 2x by default) per-iteration slowdown, which almost
always means a real regression rather than noise. Every fresh Runner
report is also gated: a run that errored or made zero iterations
fails the step (the Runner records job errors instead of throwing),
and so does a fault, async-curve, scalability or sharing report whose
schema_version differs from its committed baseline.

Usage: compare_baselines.py <reports_dir> [--baselines DIR] [--fail-ratio R]
"""

import argparse
import json
import pathlib
import sys


def load_runs(path):
    """Map benchmark run name -> per-iteration cpu time (ns)."""
    with open(path) as f:
        doc = json.load(f)
    return {
        run["name"]: run["cpu_time_ns"]
        for run in doc.get("runs", [])
        if run.get("cpu_time_ns", 0) > 0
    }


def check_runner_runs(reports_dir, failures):
    """Hard gate over every fresh Runner report in @reports_dir.

    Runner::runAll records a job's error in its run instead of
    throwing, so a bench whose spec errors still exits 0. Every run
    that carries a "config" (i.e. came from the Runner) must be
    error-free and have made at least one iteration.
    """
    checked = 0
    for path in sorted(reports_dir.glob("BENCH_*.json")):
        with open(path) as f:
            runs = json.load(f).get("runs", [])
        for r in runs:
            if "config" not in r:
                continue
            name = f"{path.name}:{r.get('name', '?')}"
            if r.get("error"):
                failures.append((name, f"errored: {r['error']}"))
            elif r.get("iterations", 0) <= 0:
                failures.append((name, "zero iterations"))
            else:
                checked += 1
    print(f"# runner reports: {checked} runs clean")


SCHEMA_GATED = (
    "BENCH_fault_recovery.json",
    "BENCH_fig14_async_curves.json",
    "BENCH_fig15_scalability.json",
    "BENCH_switch_sharing.json",
)


def check_schema(baselines_dir, reports_dir, failures):
    """Hard gate: a fresh report must share its baseline's schema_version.

    The counter comparisons below read keys by name, so a baseline left
    at an older schema would only show up as a drift warning per key.
    """
    for name in SCHEMA_GATED:
        base_path = baselines_dir / name
        fresh_path = reports_dir / name
        if not base_path.exists() or not fresh_path.exists():
            continue
        with open(base_path) as f:
            want = json.load(f).get("schema_version")
        with open(fresh_path) as f:
            got = json.load(f).get("schema_version")
        if want != got:
            failures.append(
                (name, f"schema_version {got} != baseline {want}: "
                       "regenerate the baseline"))


RECOVERY_KEYS = (
    "retx_timeouts",
    "retx_segments",
    "help_requests",
    "fbcasts",
    "recoveries",
    "retx_gave_up",
    "fault_ge_drops",
    "fault_iid_drops",
    "fault_down_drops",
)


def check_fault_recovery(base_path, fresh_path, failures):
    """Correctness gate for the fault-injection bench.

    Unlike the micro benches this report is simulated-deterministic,
    so missing runs, errored runs, and runs that made zero training
    progress are hard failures; recovery-counter drift only warns
    (counters legitimately move when recovery tuning changes).
    """
    with open(base_path) as f:
        base = {r["name"]: r for r in json.load(f).get("runs", [])}
    with open(fresh_path) as f:
        fresh = {r["name"]: r for r in json.load(f).get("runs", [])}
    checked = 0
    for name, b in sorted(base.items()):
        r = fresh.get(name)
        if r is None:
            failures.append((name, "missing from fresh fault report"))
            continue
        if r.get("error"):
            failures.append((name, f"errored: {r['error']}"))
            continue
        if r.get("iterations", 0) <= 0:
            failures.append((name, "zero iterations under faults"))
            continue
        checked += 1
        for key in RECOVERY_KEYS:
            want = b.get("extras", {}).get(key)
            got = r.get("extras", {}).get(key)
            if want != got:
                print(f"WARN  {name}: {key} drifted {want} -> {got}")
    print(f"# fault-recovery: {checked}/{len(base)} runs healthy")


FAILOVER_KEYS = (
    "failover_heartbeats",
    "failover_beats_missed",
    "failover_promote_ms",
    "failover_repl_frames",
    "fault_switch_drops",
)


def check_failover(base_path, fresh_path, failures):
    """Hard gate for the switch-failover rows of the fault bench.

    Every "/failover-" run named in the committed baseline must be
    present in the fresh report, error-free, show real training
    progress, and report exactly one promotion (failover_events == 1 —
    a run that finished without ever failing over did not test
    failover). Counter drift only warns, as with the fault rows.
    """
    with open(base_path) as f:
        base = {r["name"]: r for r in json.load(f).get("runs", [])}
    rows = {n: r for n, r in base.items() if "/failover-" in n}
    if not rows:
        failures.append((base_path.name, "baseline names no failover runs"))
        return
    with open(fresh_path) as f:
        fresh = {r["name"]: r for r in json.load(f).get("runs", [])}
    checked = 0
    for name, b in sorted(rows.items()):
        r = fresh.get(name)
        if r is None:
            failures.append((name, "missing from fresh failover report"))
            continue
        if r.get("error"):
            failures.append((name, f"errored: {r['error']}"))
            continue
        if r.get("iterations", 0) <= 0:
            failures.append((name, "zero iterations across the failover"))
            continue
        if r.get("extras", {}).get("failover_events") != 1:
            failures.append((name, "run never promoted the backup"))
            continue
        checked += 1
        for key in FAILOVER_KEYS:
            want = b.get("extras", {}).get(key)
            got = r.get("extras", {}).get(key)
            if want != got:
                print(f"WARN  {name}: {key} drifted {want} -> {got}")
    print(f"# failover: {checked}/{len(rows)} runs healthy")


def check_sharded_async(base_path, fresh_path, failures):
    """Hard gate for the sharded-async rows of the fig14 bench.

    The domain-sharded engine must keep running the async strategies.
    Every "/sharded" run named in the committed baseline must be
    present in the fresh report, error-free, and show real progress:
    training iterations > 0 AND at least one window executed on the
    parallel engine (perf.shard_windows > 0 — a run that silently fell
    back to the serial engine has no business passing).
    """
    with open(base_path) as f:
        base = {r["name"]: r for r in json.load(f).get("runs", [])}
    sharded = {n: r for n, r in base.items() if "/sharded" in n}
    if not sharded:
        failures.append(
            (base_path.name, "baseline names no sharded-async runs"))
        return
    with open(fresh_path) as f:
        fresh = {r["name"]: r for r in json.load(f).get("runs", [])}
    checked = 0
    for name in sorted(sharded):
        r = fresh.get(name)
        if r is None:
            failures.append((name, "missing from fresh async report"))
            continue
        if r.get("error"):
            failures.append((name, f"errored: {r['error']}"))
            continue
        if r.get("iterations", 0) <= 0:
            failures.append((name, "zero iterations on the sharded engine"))
            continue
        if r.get("perf", {}).get("shard_windows", 0) <= 0:
            failures.append(
                (name, "zero windows: fell back off the sharded engine"))
            continue
        checked += 1
    print(f"# sharded-async: {checked}/{len(sharded)} runs healthy")


FAIRNESS_FLOOR = 0.90

SLOT_KEYS = (
    "slot_capacity",
    "slot_stale_drops",
    "slot_busy_drops",
    "slot_unadmitted",
    "slot_reclaimed",
    "slot_contention_events",
)


def check_switch_sharing(base_path, fresh_path, failures):
    """Correctness gate for the multi-job switch-sharing bench.

    The report is simulated-deterministic. Hard failures: a scenario
    missing from the fresh report, a job that errored or made zero
    progress, or cross-job fairness collapsing below FAIRNESS_FLOOR
    (partitioned slots should keep co-scheduled jobs near-equal).
    Slot-counter drift only warns, as with the fault bench.
    """
    with open(base_path) as f:
        base = {r["name"]: r for r in json.load(f).get("runs", [])}
    with open(fresh_path) as f:
        fresh = {r["name"]: r for r in json.load(f).get("runs", [])}
    checked = 0
    for name, b in sorted(base.items()):
        r = fresh.get(name)
        if r is None:
            failures.append((name, "missing from fresh sharing report"))
            continue
        bad = False
        for i, job in enumerate(r.get("job_results", [])):
            if job.get("error"):
                failures.append((name, f"job {i} errored: {job['error']}"))
                bad = True
            elif job.get("iterations", 0) <= 0:
                failures.append((name, f"job {i} made zero iterations"))
                bad = True
        fairness = r.get("fabric", {}).get("jain_fairness", 0.0)
        if fairness < FAIRNESS_FLOOR:
            failures.append(
                (name, f"jain fairness {fairness:.3f} < {FAIRNESS_FLOOR}"))
            bad = True
        if not bad:
            checked += 1
        for key in SLOT_KEYS:
            want = b.get("fabric", {}).get(key)
            got = r.get("fabric", {}).get(key)
            if want != got:
                print(f"WARN  {name}: {key} drifted {want} -> {got}")
    print(f"# switch-sharing: {checked}/{len(base)} scenarios healthy")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("reports_dir", type=pathlib.Path)
    ap.add_argument(
        "--baselines",
        type=pathlib.Path,
        default=pathlib.Path(__file__).parent / "baselines",
    )
    ap.add_argument("--fail-ratio", type=float, default=2.0)
    args = ap.parse_args()

    failures = []
    compared = 0

    check_runner_runs(args.reports_dir, failures)
    check_schema(args.baselines, args.reports_dir, failures)
    recovery_base = args.baselines / "BENCH_fault_recovery.json"
    recovery_fresh = args.reports_dir / "BENCH_fault_recovery.json"
    if recovery_base.exists():
        if recovery_fresh.exists():
            check_fault_recovery(recovery_base, recovery_fresh, failures)
            check_failover(recovery_base, recovery_fresh, failures)
        else:
            print("WARN: no fresh report for BENCH_fault_recovery.json")
    async_base = args.baselines / "BENCH_fig14_async_curves.json"
    async_fresh = args.reports_dir / "BENCH_fig14_async_curves.json"
    if not async_base.exists():
        # Unlike the warn-only micro baselines this one is a hard
        # requirement: losing it would silently stop gating the
        # sharded-async datapath.
        failures.append(
            (async_base.name, "sharded-async baseline missing"))
    elif not async_fresh.exists():
        failures.append(
            (async_fresh.name, "no fresh sharded-async report"))
    else:
        check_sharded_async(async_base, async_fresh, failures)
    sharing_base = args.baselines / "BENCH_switch_sharing.json"
    sharing_fresh = args.reports_dir / "BENCH_switch_sharing.json"
    if sharing_base.exists():
        if sharing_fresh.exists():
            check_switch_sharing(sharing_base, sharing_fresh, failures)
        else:
            print("WARN: no fresh report for BENCH_switch_sharing.json")
    for base_path in sorted(args.baselines.glob("BENCH_micro_*.json")):
        fresh_path = args.reports_dir / base_path.name
        if not fresh_path.exists():
            print(f"WARN: no fresh report for {base_path.name}")
            continue
        base = load_runs(base_path)
        fresh = load_runs(fresh_path)
        for name, base_ns in sorted(base.items()):
            if name not in fresh:
                print(f"WARN: {base_path.name}: run '{name}' missing")
                continue
            ratio = fresh[name] / base_ns
            compared += 1
            tag = "OK"
            if ratio > args.fail_ratio:
                tag = "FAIL"
                failures.append(
                    (name, f"slowed down {ratio:.2f}x "
                           f"(limit {args.fail_ratio}x)"))
            elif ratio > 1.25:
                tag = "WARN"
            print(
                f"{tag:>4}  {name:<40} {base_ns:>12.1f} ns -> "
                f"{fresh[name]:>12.1f} ns  ({ratio:.2f}x)"
            )

    print(f"# compared {compared} runs against {args.baselines}")
    if failures:
        print(f"# {len(failures)} failing run(s):")
        for name, reason in failures:
            print(f"#   {name}: {reason}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
