"""Unit tests for perfstats: python3 -m unittest discover perfbench"""

import copy
import math
import statistics
import unittest

import perfstats


def job(name="DQN/iSW", strategy="iSW", **kw):
    j = {
        "name": name, "algo": "DQN", "strategy": strategy, "workers": 4,
        "learning": False, "target_reward": None, "max_iterations": 4,
        "paper_per_iter_ms": None, "crash_ms": 0.0,
        "setup_s": 0.01, "run_s": 1.0, "teardown_s": 0.1, "error": "",
        "iterations": 4, "sim_ms_per_iter": 20.0, "total_sim_ns": 80e6,
        "folds": 100,
        "lgc_count": 16, "lwu_count": 16,
        "sim_ga_ms": 5.0, "sim_lgc_ms": 14.0, "sim_lwu_ms": 1.0,
        "extras": {"events_executed": 1000, "packets_sealed": 200},
        "perf": {}, "curve": [[20e6, 0.0], [40e6, 1.0], [60e6, 2.0], [80e6, 3.0]],
    }
    j.update(kw)
    return j


def record(jobs=None, **kw):
    r = {"workload": "w", "seed": 1, "scale": 1, "threads": 1, "jobs": jobs or [job()],
         "results_digest": "r", "weights_max_diff_vs_ps": {}, "peak_rss_mb": 20.0,
         "probe_s": [perfstats.REFERENCE_PROBE_S] * 2, "wide_probe_s": []}
    r.update(kw)
    return r


class Summaries(unittest.TestCase):
    def test_median_and_quartiles_follow_statistics_quantiles(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        q1, q2, q3 = perfstats.quartiles(xs)
        self.assertEqual((q1, q2, q3), tuple(statistics.quantiles(xs, n=4)))
        self.assertEqual(perfstats.median(xs), 3.5)
        self.assertEqual(perfstats.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertIsNone(perfstats.tail(list(range(10))))
        value, pct = perfstats.tail(list(range(11)))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(pct, 100.0 / 11)
        xs = list(range(100, 0, -1))  # 1..100, unsorted
        value, pct = perfstats.tail(xs)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_summary_reports_tail_only_when_defined(self):
        self.assertNotIn("tail", perfstats.summarize([1.0, 2.0, 3.0]))
        s = perfstats.summarize([float(x) for x in range(20)])
        self.assertEqual(s["n"], 20)
        self.assertEqual(s["tail"], 9.0)

    def test_ln_error(self):
        self.assertEqual(perfstats.ln_error([]), 0.0)
        self.assertAlmostEqual(perfstats.ln_error([(2.0, 1.0)]), math.log(2))
        # Over- and under-estimates by the same factor count the same.
        self.assertAlmostEqual(perfstats.ln_error([(1.0, 2.0), (4.0, 2.0)]), math.log(2))
        self.assertEqual(perfstats.ln_error([(3.0, 3.0)]), 0.0)

    def test_geomean_skips_nonpositive(self):
        self.assertAlmostEqual(perfstats.geomean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(perfstats.geomean([0.0, 9.0]), 9.0)
        self.assertEqual(perfstats.geomean([]), 0.0)


class Bounds(unittest.TestCase):
    def test_relative(self):
        b = perfstats.Bound(0.1)
        self.assertFalse(b.worse(10.0, 10.9, "lower"))
        self.assertTrue(b.worse(10.0, 11.1, "lower"))
        self.assertFalse(b.worse(10.0, 5.0, "lower"))
        self.assertTrue(b.worse(10.0, 8.9, "higher"))
        self.assertFalse(b.worse(10.0, 12.0, "higher"))

    def test_absolute_floor(self):
        b = perfstats.Bound(0.1, 0.005)
        # 10% of 1 ms is below the 5 ms floor: the floor applies.
        self.assertFalse(b.worse(0.001, 0.005, "lower"))
        self.assertTrue(b.worse(0.001, 0.0061, "lower"))
        # Above the floor the relative bound applies.
        self.assertTrue(b.worse(1.0, 1.2, "lower"))

    def test_exact(self):
        b = perfstats.Bound(0.0)
        self.assertFalse(b.worse(0.33, 0.33, "lower"))
        self.assertTrue(b.worse(0.33, 0.33 + 1e-12, "lower"))
        self.assertFalse(b.worse(0.33, 0.32, "lower"))


class Verdicts(unittest.TestCase):
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]

    def test_within_bound(self):
        change = [x * 1.03 for x in self.parent]
        change[0] = 9.0  # one pair lost: no claim of a gain either way
        self.assertEqual(perfstats.verdict(self.parent, change, "lower", perfstats.Bound(0.1)),
                         "within bound")

    def test_worse(self):
        change = [x * 1.2 for x in self.parent]
        self.assertEqual(perfstats.verdict(self.parent, change, "lower", perfstats.Bound(0.1)), "worse")

    def test_improved_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread(self):
        change = [x * 0.8 for x in self.parent]
        self.assertEqual(perfstats.verdict(self.parent, change, "lower", perfstats.Bound(0.1)), "improved")
        # Better median but only 8 of 10 pairs won: not a gain.
        mixed = [x * 0.8 for x in self.parent[:8]] + [x * 1.01 for x in self.parent[8:]]
        self.assertEqual(perfstats.verdict(self.parent, mixed, "lower", perfstats.Bound(0.1)),
                         "within bound")

    def test_unresolved_when_the_spread_exceeds_the_bound(self):
        noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
        change = [x * 1.05 for x in noisy]
        self.assertEqual(perfstats.verdict(noisy, change, "lower", perfstats.Bound(0.1)), "unresolved")
        # ...unless every change run beats every parent run.
        fast = [1.0] * 10
        self.assertEqual(perfstats.verdict(noisy, fast, "lower", perfstats.Bound(0.1)), "improved")

    def test_fewer_than_ten_pairs_never_claim_a_gain(self):
        change = [x * 0.8 for x in self.parent]
        self.assertEqual(perfstats.verdict(self.parent[:9], change[:9], "lower", perfstats.Bound(0.1)),
                         "within bound")

    def test_direction(self):
        change = [x * 0.8 for x in self.parent]
        self.assertEqual(perfstats.verdict(self.parent, change, "higher", perfstats.Bound(0.1)), "worse")


class Metrics(unittest.TestCase):
    def test_end_to_end_of_one_repetition(self):
        rec = record([job(sim_ms_per_iter=4.0), job(name="DQN/PS", strategy="PS", sim_ms_per_iter=16.0)])
        m = perfstats.end_to_end(rec)
        self.assertAlmostEqual(m["wall_s"], 2.2)
        self.assertAlmostEqual(m["setup_s"], 0.02)
        self.assertEqual(m["peak_rss_mb"], 20.0)
        self.assertAlmostEqual(m["sim_iter_ms"], 8.0)

    def test_host_times_scale_with_the_probes(self):
        ref = perfstats.REFERENCE_PROBE_S
        # A host running at half speed: raw times and probes both double.
        slow = record([job(run_s=2.0, teardown_s=0.2, setup_s=0.02)], probe_s=[2 * ref, 2 * ref])
        m = perfstats.end_to_end(slow)
        self.assertAlmostEqual(m["raw_wall_s"], 2.2)
        self.assertAlmostEqual(m["wall_s"], 1.1)
        self.assertAlmostEqual(m["setup_s"], 0.01)
        # Runs of multi-threaded workloads scale by the wide probes;
        # set-up stays on the one-thread probes.
        wide = record([job(run_s=2.0, teardown_s=0.2, setup_s=0.02)], probe_s=[ref], wide_probe_s=[4 * ref])
        m = perfstats.end_to_end(wide)
        self.assertAlmostEqual(m["wall_s"], 0.55)
        self.assertAlmostEqual(m["setup_s"], 0.02)

    def test_paper_ratios_pair_each_strategy_with_its_ps_baseline(self):
        jobs = [job(name="DQN/PS", strategy="PS", sim_ms_per_iter=40.0, paper_per_iter_ms=80.0),
                job(name="DQN/iSW", strategy="iSW", sim_ms_per_iter=20.0, paper_per_iter_ms=20.0),
                job(name="DQN/Async-iSW", strategy="Async iSW", sim_ms_per_iter=10.0, paper_per_iter_ms=None)]
        self.assertEqual(perfstats.paper_ratios(jobs), [(2.0, 4.0)])

    def test_iteration_intervals_and_target(self):
        j = job(learning=True, target_reward=2.0)
        self.assertEqual(perfstats.iteration_intervals(j), [20.0, 20.0, 20.0, 20.0])
        self.assertEqual(perfstats.iters_to_target(j), 3)
        self.assertIsNone(perfstats.iters_to_target(job(learning=True, target_reward=9.0)))

    def test_attribution_shares_and_remainder_sum_to_one(self):
        rec = record([job()])
        rec["replay"] = {"sim_ns_per_event": 100.0, "jobs": [{
            "name": "DQN/iSW", "net_ns_per_packet": 50.0, "core_ns_per_fold": 10.0,
            "dist_ns_per_seg_encode": 5.0, "dist_ns_per_seg_reassemble": 5.0,
            "rl_ns_per_lgc": 1e6, "ml_ns_per_lwu": 1e5}]}
        m, layers = perfstats.per_layer(rec, 1.0)
        shares = [m["attr.%s_share" % l] for l in ("sim", "net", "core", "dist", "rl", "ml")]
        self.assertAlmostEqual(m["attr.sim_share"], 1000 * 100e-9 / 1.1)
        self.assertAlmostEqual(sum(shares) + m["attr.unattributed_share"], 1.0)
        self.assertAlmostEqual(m["trace_overhead"], 0.1)
        # Each layer's trace arguments agree with its metrics.
        self.assertEqual(layers["sim"], {"count": 1000, "ns_per_op": 100.0})
        self.assertEqual(layers["core"], {"count": 100, "ns_per_op": m["core.ns_per_fold"]})
        self.assertEqual(layers["dist"], {"count": 200, "ns_per_op": 10.0})
        self.assertEqual(layers["rl"]["count"], m["rl.lgc_count"])


class Gate(unittest.TestCase):
    def reps(self):
        lossless = job(name="lossless/A2C/iSW")
        lossy = job(name="lossy-ha/A2C/iSW", extras={"events_executed": 1, "packets_sealed": 1,
                                                     "failover_events": 1, "retx_gave_up": 0})
        return [record([lossless, lossy], weights_max_diff_vs_ps={"A2C/iSW": 3e-8}) for _ in range(3)]

    def test_clean_result_passes(self):
        reps = self.reps()
        self.assertEqual(perfstats.gate(reps, check=copy.deepcopy(reps[0]), traced=copy.deepcopy(reps[0])), [])

    def test_each_hand_broken_result_is_rejected(self):
        def broken(mutate):
            reps = self.reps()
            check = copy.deepcopy(reps[0])
            mutate(reps, check)
            return perfstats.gate(reps, check=check)

        def set_extra(key, value):
            return lambda reps, check: reps[1]["jobs"][1]["extras"].__setitem__(key, value)

        cases = {
            "job error": lambda reps, check: reps[0]["jobs"][0].__setitem__("error", "stalled"),
            "short run": lambda reps, check: reps[0]["jobs"][0].__setitem__("iterations", 3),
            "retransmit gave up": set_extra("retx_gave_up", 1),
            "no failover": set_extra("failover_events", 0),
            "weights diverged": lambda reps, check: reps[2]["weights_max_diff_vs_ps"].__setitem__("A2C/iSW", 1e-3),
            "weights NaN": lambda reps, check: reps[2]["weights_max_diff_vs_ps"].__setitem__("A2C/iSW", math.nan),
            "weights unmatched": lambda reps, check: reps[2]["weights_max_diff_vs_ps"].__setitem__("A2C/iSW", None),
            "results drift": lambda reps, check: reps[2].__setitem__("results_digest", "other"),
            "thread variance": lambda reps, check: check.__setitem__("results_digest", "other"),
        }
        for what, mutate in cases.items():
            with self.subTest(what):
                self.assertTrue(broken(mutate), what)

    def test_failed_jobs_are_counted(self):
        self.assertFalse(perfstats.job_failed(job()))
        self.assertTrue(perfstats.job_failed(job(error="watchdog")))
        self.assertTrue(perfstats.job_failed(job(extras={"retx_gave_up": 2})))


if __name__ == "__main__":
    unittest.main()
