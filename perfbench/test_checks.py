"""Tests for the benchmark's output parsing and checks.

    python3 perfbench/test_checks.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True  # write nothing next to the sources
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import run  # noqa: E402

HEADER = ",".join(checks.SWEEP_COLUMNS)


def row(workload="hist", arch="nvmr", policy="jit", total="100.00",
        completed=1, validated=1):
    return ("%s,%s,%s,0.1,%s,80.00,1.00,10.00,0.00,0.00,0.00,5.0,4.0,3.0,"
            "0.0,1.0,40.0,2,%d,%d" % (workload, arch, policy, total,
                                      completed, validated))


def sweep_csv(rows):
    return "\n".join([HEADER] + rows) + "\n"


class SweepCsv(unittest.TestCase):
    def test_clean_csv_passes(self):
        text = sweep_csv([row(), row(arch="clank")])
        rows, findings, failed = checks.check_sweep(text, 2)
        self.assertEqual(len(rows), 2)
        self.assertEqual(findings, [])
        self.assertEqual(failed, 0)

    def test_unvalidated_cell_fails(self):
        text = sweep_csv([row(), row(arch="clank", validated=0)])
        _, findings, failed = checks.check_sweep(text, 2)
        self.assertEqual(failed, 1)
        self.assertIn("validated=0", findings[0])

    def test_truncated_row_fails(self):
        text = sweep_csv([row(), row(arch="clank")[:25]])
        _, findings, failed = checks.check_sweep(text, 2)
        self.assertEqual(failed, 1)
        self.assertTrue(any("fields" in f for f in findings))

    def test_corrupted_header_fails_every_cell(self):
        text = sweep_csv([row(), row(arch="clank")]).replace("workload",
                                                             "wrokload")
        _, findings, failed = checks.check_sweep(text, 2)
        self.assertEqual(failed, 2)
        self.assertTrue(findings)

    def test_missing_rows_fail(self):
        _, _, failed = checks.check_sweep(sweep_csv([row()]), 3)
        self.assertEqual(failed, 2)

    def test_extra_row_is_a_finding(self):
        _, findings, failed = checks.check_sweep(
            sweep_csv([row(), row()]), 1)
        self.assertEqual(failed, 1)
        self.assertTrue(findings)

    def test_digest_ignores_row_order_only(self):
        a = sweep_csv([row(), row(arch="clank")])
        b = sweep_csv([row(arch="clank"), row()])
        c = sweep_csv([row(), row(arch="clank", total="100.01")])
        self.assertEqual(checks.csv_digest(a), checks.csv_digest(b))
        self.assertNotEqual(checks.csv_digest(a), checks.csv_digest(c))

    def test_fig10_error(self):
        rows, _ = checks.parse_sweep_csv(sweep_csv([
            row("hist", "clank", total="100.00"),
            row("hist", "nvmr", total="70.00"),
            row("qsort", "clank", total="200.00"),
            row("qsort", "nvmr", total="180.00"),
            row("qsort", "nvmr", "watchdog", total="1.00"),
        ]))
        # (30% + 10%) / 2 = 20% saved: no error against the paper.
        self.assertAlmostEqual(checks.fig10_jit_err_pp(rows), 0.0)


PASSED = ("crashtest passed: 12 crash points (12 fired), "
          "1 workloads x 1 archs\n")


class Crashtest(unittest.TestCase):
    def test_clean_run_passes(self):
        self.assertEqual(checks.check_crashtest(PASSED, 0), (12, 12, []))

    def test_divergent_point_fails(self):
        out = ("FAILURE: qsort/nvmr diverged with crash at persist 7\n"
               "qsort  nvmr  12 points, 12 crashed, 1 divergent, 0 stuck"
               "  <-- FAIL\n"
               "crashtest FAILED: 12 crash points (12 fired), "
               "1 workloads x 1 archs\n")
        _, _, findings = checks.check_crashtest(out, 1)
        self.assertIn("diverged", findings[0])
        self.assertTrue(any("exited 1" in f for f in findings))

    def test_unfired_point_fails(self):
        out = PASSED.replace("(12 fired)", "(11 fired)")
        _, _, findings = checks.check_crashtest(out, 0)
        self.assertEqual(findings, ["only 11 of 12 crash points fired"])

    def test_missing_summary_fails(self):
        _, _, findings = checks.check_crashtest("", 0)
        self.assertEqual(findings, ["crashtest printed no summary line"])


class Serve(unittest.TestCase):
    def test_clean_job_passes(self):
        self.assertEqual(checks.check_serve_job(sweep_csv([row()])), [])

    def test_missing_job_output_fails(self):
        self.assertEqual(checks.check_serve_job(None),
                         ["job produced no CSV"])

    def test_unvalidated_job_fails(self):
        self.assertTrue(checks.check_serve_job(
            sweep_csv([row(completed=0, validated=0)])))

    def test_failed_job_in_state_fails(self):
        state = {"final": True,
                 "jobs": {"done": 2, "failed": 1, "quarantined": 0}}
        findings = checks.check_serve_state(state, 3)
        self.assertIn("1 job(s) failed", findings)
        self.assertIn("2 of 3 jobs done", findings)

    def test_clean_state_passes(self):
        state = {"final": True,
                 "jobs": {"done": 3, "failed": 0, "quarantined": 0}}
        self.assertEqual(checks.check_serve_state(state, 3), [])


class Totals(unittest.TestCase):
    def manifest(self, hits):
        run = dict.fromkeys(checks.COUNT_FIELDS, 1)
        run["cache_hits"] = hits
        return {"runs": [run, dict(run)]}

    def test_probe_agreeing_with_manifest(self):
        totals = checks.manifest_totals(self.manifest(5))
        self.assertEqual(totals["cache_hits"], 10)
        self.assertEqual(totals["runs"], 2)
        self.assertEqual(checks.totals_mismatch(dict(totals), totals), [])

    def test_probe_drift_is_named(self):
        probe = checks.manifest_totals(self.manifest(5))
        manifest = checks.manifest_totals(self.manifest(6))
        self.assertEqual(checks.totals_mismatch(probe, manifest),
                         ["cache_hits"])


class Expected(unittest.TestCase):
    TABLE = {"cfg": {"csv_digest": "aa", "points": 3}}

    def test_matching_outputs_pass(self):
        self.assertEqual(checks.expected_findings(
            self.TABLE, "cfg", {"csv_digest": "aa", "points": 3}), [])

    def test_changed_digest_is_a_finding(self):
        findings = checks.expected_findings(self.TABLE, "cfg",
                                            {"csv_digest": "ab"})
        self.assertEqual(len(findings), 1)
        self.assertIn("expected aa", findings[0])

    def test_unknown_configuration_names_the_observed_values(self):
        findings = checks.expected_findings(self.TABLE, "other",
                                            {"points": 4})
        self.assertEqual(len(findings), 1)
        self.assertIn('"points": 4', findings[0])

    def test_committed_table_covers_every_configuration(self):
        table = run.load_expected()
        for config in (run.SWEEP_CONFIG, run.CRASH_CONFIG):
            for name in checks.EXACT_COUNTS:
                self.assertIn(name, table[config])
        self.assertIn("csv_digest", table[run.SWEEP_CONFIG])
        self.assertIn("points", table[run.CRASH_CONFIG])
        self.assertEqual(len(table[run.SERVE_CONFIG]),
                         len(run.serve_cells()))

    def test_changed_digest_is_counted_as_a_failure(self):
        ctx = run.Ctx("unused", {}, "sweep", 1, 1, None)
        good = ctx.expected[run.SWEEP_CONFIG]["csv_digest"]
        run.expect(ctx, run.SWEEP_CONFIG, {"csv_digest": good})
        self.assertEqual(ctx.failed, 0)
        run.expect(ctx, run.SWEEP_CONFIG, {"csv_digest": "0" * 64})
        self.assertEqual(ctx.failed, 1)

    def test_changed_count_is_counted_as_a_failure(self):
        ctx = run.Ctx("unused", {}, "crashtest", 1, 1, None)
        counts = {k: ctx.expected[run.CRASH_CONFIG][k]
                  for k in checks.EXACT_COUNTS}
        run.expect(ctx, run.CRASH_CONFIG, counts)
        self.assertEqual(ctx.failed, 0)
        counts["core.renames"] += 1
        run.expect(ctx, run.CRASH_CONFIG, counts)
        self.assertEqual(ctx.failed, 1)
        self.assertIn("core.renames", ctx.findings[0])


class Percentile(unittest.TestCase):
    def test_interpolates(self):
        self.assertEqual(checks.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(checks.percentile([5], 90), 5)
        self.assertAlmostEqual(checks.percentile(list(range(11)), 90), 9.0)


if __name__ == "__main__":
    unittest.main()
