#!/usr/bin/env python3
"""perfbench: end-to-end benchmark of the simulator, with per-layer
attribution. See README.md.

  python3 perfbench/run.py                  # every workload, run_seconds each
  python3 perfbench/run.py --smoke          # 3 repetitions, iterations / 8
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --compare PARENT.json CHANGE.json [--model-change]

Builds the isw_perf program from ../src into perfbench/build-perf/, runs
each repetition as its own process, checks the outputs, prints every
metric by name with its unit and writes build-perf/out/results.json
(plus trace-<workload>.json for traced runs). The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero when a check fails.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import fcntl  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import perfstats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build-perf")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "isw_perf")

SHARDED = "fat64-sharded"
SMOKE_SCALE = 8
MIN_REPS = 3
# Set-up differences below this are timer noise (compare only).
SETUP_FLOOR_S = 0.005
# End-to-end metrics on the simulated clock: a run at a given seed
# reproduces them exactly, so compare holds them to no change at all.
SIMULATED = {"sim_iter_ms"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def shard_threads():
    return min(4, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Building and running isw_perf


def build():
    """Configure and build isw_perf (both no-ops when up to date); exit 1
    on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    # Serialize concurrent invocations sharing one build tree.
    with open(os.path.join(BUILD, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]):
            if subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                sys.exit(1)


def isw_perf(workload, seed, scale, threads, trace=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--scale", str(scale),
           "--threads", str(threads)] + (["--trace"] if trace else [])
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        sys.stderr.write("perfbench: %s exited with %d\n" % (" ".join(cmd), p.returncode))
        sys.exit(1)
    return json.loads(p.stdout.splitlines()[-1])


def measure(workload, seed, scale, seconds, trace=False):
    """Untraced repetitions until `seconds` have passed (at least
    MIN_REPS), the single-thread check of the sharded workload, and
    optionally one traced run."""
    threads = shard_threads()
    recs = []
    deadline = time.monotonic() + seconds
    while len(recs) < MIN_REPS or time.monotonic() < deadline:
        recs.append(isw_perf(workload, seed, scale, threads))
    check = isw_perf(workload, seed, scale, 1) if workload == SHARDED and threads > 1 else None
    traced = isw_perf(workload, seed, scale, threads, trace=True) if trace else None
    return recs, check, traced


# ---------------------------------------------------------------------------
# Results


def workload_result(spec, recs, check, traced):
    samples = {}
    for rec in recs:
        for name, value in perfstats.end_to_end(rec).items():
            samples.setdefault(name, []).append(value)
    raw = {name: perfstats.median(samples[name]) for name in ("raw_wall_s", "raw_setup_s", "probe_s")}
    summary = {}
    for m in spec["end_to_end"]:
        summary[m["name"]] = dict(perfstats.summarize(samples[m["name"]]), unit=m["unit"], better=m["better"])
    records = recs + [r for r in (check, traced) if r is not None]
    jobs = [j for r in records for j in r["jobs"]]
    result = {
        "seed": recs[0]["seed"],
        "scale": recs[0]["scale"],
        "threads": recs[0]["threads"],
        "samples": samples,
        "summary": summary,
        "raw_medians": raw,
        "results_digest": recs[0]["results_digest"],
        "attempted": len(jobs),
        "failed": sum(1 for j in jobs if perfstats.job_failed(j)),
        "failures": perfstats.gate(recs, check, traced),
    }
    if traced is not None:
        metrics, layers = perfstats.per_layer(traced, summary["wall_s"]["median"])
        result["per_layer"] = {m["name"]: metrics[m["name"]] for m in spec["per_layer"]}
        result["trace"] = os.path.relpath(write_trace(traced, layers), ROOT)
    return result


def write_trace(traced, layers):
    """Chrome trace-event JSON: workload > job > {setup, run, teardown},
    then one replay.<layer> span per layer with its count and unit cost."""
    events = []
    for s in traced["spans"]:
        e = {"name": s["name"], "cat": s["cat"], "ph": "X", "ts": s["ts"], "dur": s["dur"],
             "pid": 1, "tid": 1}
        if s["cat"] == "replay":
            e["args"] = layers[s["name"].split(".", 1)[1]]
        events.append(e)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s.json" % traced["workload"])
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return path


def host_info():
    info = {"nproc": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu"] = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            cache = dict(l.strip().split("=", 1) for l in f if "=" in l and not l.startswith(("#", "//")))
        info["build_type"] = cache.get("CMAKE_BUILD_TYPE:STRING")
        cxx = cache.get("CMAKE_CXX_COMPILER:FILEPATH") or cache.get("CMAKE_CXX_COMPILER:STRING")
        if cxx:
            info["compiler"] = subprocess.run([cxx, "--version"], capture_output=True,
                                              text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return info


def fmt(x):
    return "%.6g" % x


def print_workload(spec, name, res):
    print("== %s (seed %d, %d repetitions, %d jobs attempted, %d failed)" % (
        name, res["seed"], res["summary"]["wall_s"]["n"], res["attempted"], res["failed"]))
    for m in spec["end_to_end"]:
        s = res["summary"][m["name"]]
        tail = "  p%.0f %s" % (s["tail_pct"], fmt(s["tail"])) if "tail" in s else ""
        print("  %-28s %12s %-6s q1 %s  q3 %s  n=%d  (%s is better)%s" % (
            m["name"], fmt(s["median"]), m["unit"], fmt(s["q1"]), fmt(s["q3"]), s["n"], m["better"], tail))
    raw = res["raw_medians"]
    print("  %-28s raw wall %s s, raw setup %s s, probe %s s (medians)" % (
        "(unnormalized)", fmt(raw["raw_wall_s"]), fmt(raw["raw_setup_s"]), fmt(raw["probe_s"])))
    for m in spec["per_layer"]:
        if "per_layer" in res:
            print("  %-28s %12s %s" % (m["name"], fmt(res["per_layer"][m["name"]]), m["unit"]))
    print("  correct: %s" % ("yes" if not res["failures"] else "NO"))
    for f in res["failures"]:
        print("    FAIL " + f)


def save(results):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "results.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
    return path


def run_workloads(spec, names, seed, scale, seconds, trace=True):
    results = {"host": host_info(), "workloads": {}}
    for name in names:
        recs, check, traced = measure(name, seed, scale, seconds, trace=trace)
        res = workload_result(spec, recs, check, traced)
        results["workloads"][name] = res
        print_workload(spec, name, res)
    print("wrote %s" % os.path.relpath(save(results), ROOT))
    return results


# ---------------------------------------------------------------------------
# Compare


def compare(spec, parent_path, change_path, model_change=False):
    """Verdicts per workload and end-to-end metric. Unless the change
    declares that it changes the model, simulated metrics must not move
    at all and the simulated results must be identical."""
    with open(parent_path) as f:
        parent = json.load(f)["workloads"]
    with open(change_path) as f:
        change = json.load(f)["workloads"]
    def side(xs):
        q1, med, q3 = perfstats.quartiles(xs)
        return "%s [%s, %s] n=%d" % (fmt(med), fmt(q1), fmt(q3), len(xs))

    counts = {}
    differ = []
    print("%-16s %-14s %-34s %-34s %s" % ("workload", "metric", "parent median [q1, q3]",
                                          "change median [q1, q3]", "verdict"))
    for name in (w["name"] for w in spec["workloads"]):
        if name not in parent or name not in change:
            continue
        inputs = [(r["seed"], r["scale"]) for r in (parent[name], change[name])]
        if inputs[0] != inputs[1]:
            sys.stderr.write("perfbench: %s ran at (seed, scale) %s in %s but %s in %s\n" % (
                name, inputs[0], parent_path, inputs[1], change_path))
            return 2
        for m in spec["end_to_end"]:
            p = parent[name]["samples"][m["name"]]
            c = change[name]["samples"][m["name"]]
            if m["name"] in SIMULATED and not model_change:
                bound = perfstats.Bound(0.0)
            else:
                bound = perfstats.Bound(m["bound"], SETUP_FLOOR_S if m["name"] == "setup_s" else 0.0)
            v = perfstats.verdict(p, c, m["better"], bound)
            counts[v] = counts.get(v, 0) + 1
            print("%-16s %-14s %-34s %-34s %s" % (name, m["name"], side(p), side(c), v))
        same = parent[name]["results_digest"] == change[name]["results_digest"]
        print("%-16s simulated results %s" % (name, "identical" if same else "DIFFER"))
        if not same:
            differ.append(name)
    print("verdicts: " + ", ".join("%s %d" % kv for kv in sorted(counts.items())))
    if differ and not model_change:
        print("simulated results differ on %s: a change that means to alter the model passes "
              "--model-change" % ", ".join(differ))
        return 1
    return 1 if counts.get("worse") else 0


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run one workload and report its median metrics")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="repeat each workload for this long (default: BENCHMARK.json run_seconds; 0 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 reports the per-layer metrics of a traced run")
    ap.add_argument("--smoke", action="store_true", help="%d repetitions, iteration budgets / %d" % (
        MIN_REPS, SMOKE_SCALE))
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two results.json files")
    ap.add_argument("--model-change", action="store_true",
                    help="with --compare: the change means to alter simulated results")
    args = ap.parse_args()
    spec = load_spec()

    if args.compare:
        return compare(spec, *args.compare, model_change=args.model_change)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error("unknown workload %r (one of %s)" % (args.workload, ", ".join(names)))
    build()
    scale = SMOKE_SCALE if args.smoke else 1
    seconds = args.seconds if args.seconds is not None else 0 if args.smoke else spec["run_seconds"]

    metrics = {}
    if args.workload is None:
        per = run_workloads(spec, names, args.seed, scale, seconds)["workloads"].values()
    else:
        res = run_workloads(spec, [args.workload], args.seed, scale, seconds,
                            trace=bool(args.trace))["workloads"][args.workload]
        per = [res]
        if args.trace:
            metrics = {m["name"]: {"value": res["per_layer"][m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
        else:
            metrics = {m["name"]: {"value": res["summary"][m["name"]]["median"], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    correct = all(not r["failures"] for r in per)
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in per),
                      "failed": sum(r["failed"] for r in per), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
