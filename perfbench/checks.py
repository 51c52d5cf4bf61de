"""Output parsing and correctness checks for the perfbench workloads.

Every function here is pure (text or parsed JSON in, findings out), so
the checks can be tested without building or running the simulator;
see test_checks.py.
"""

import hashlib
import json
import math
import re

SWEEP_COLUMNS = (
    "workload,arch,policy,capacitor_f,total_uj,forward_uj,overhead_uj,"
    "backup_uj,restore_uj,reclaim_uj,dead_uj,backups,violations,renames,"
    "reclaims,power_failures,nvm_writes,max_wear,completed,validated"
).split(",")

# Figure 10: NvMR saves about 20% of Clank's energy under JIT backups.
PAPER_FIG10_JIT_SAVED_PCT = 20.0

COUNT_FIELDS = (
    "instructions", "cache_hits", "cache_misses", "nvm_reads",
    "nvm_writes", "violations", "renames", "reclaims", "backups",
    "power_failures", "restores",
)

# Per-layer event counts that depend only on the simulated work, so a
# speed-only change must leave every one identical.
EXACT_COUNTS = (
    "mem.cache_hits", "mem.cache_misses", "mem.nvm_reads", "mem.nvm_writes",
    "arch.violations", "core.renames", "core.reclaims", "power.backups",
    "power.power_failures", "power.restores",
)

_CRASHTEST_SUMMARY = re.compile(
    r"^crashtest (passed|FAILED): (\d+) crash points \((\d+) fired\)")


def parse_sweep_csv(text):
    """Rows of an nvmr_sweep CSV as dicts, plus format findings."""
    failures = []
    lines = text.splitlines()
    if not lines or lines[0].split(",") != SWEEP_COLUMNS:
        return [], ["sweep CSV header is missing or malformed"]
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(SWEEP_COLUMNS):
            failures.append("sweep CSV line %d has %d fields, expected %d"
                            % (n, len(fields), len(SWEEP_COLUMNS)))
            continue
        rows.append(dict(zip(SWEEP_COLUMNS, fields)))
    return rows, failures


def sweep_row_failures(rows):
    """One finding per row that did not complete and validate."""
    failures = []
    for row in rows:
        if row["completed"] != "1" or row["validated"] != "1":
            failures.append("cell %s/%s/%s completed=%s validated=%s" % (
                row["workload"], row["arch"], row["policy"],
                row["completed"], row["validated"]))
    return failures


def check_sweep(text, expected_cells):
    """(rows, findings, failed cells) for one nvmr_sweep CSV.

    A cell fails when its row is malformed, missing, or did not
    complete and validate.
    """
    rows, findings = parse_sweep_csv(text)
    bad_rows = sweep_row_failures(rows)
    findings += bad_rows
    missing = max(0, expected_cells - len(rows))
    if missing:
        findings.append("sweep CSV lacks %d of %d cells"
                        % (missing, expected_cells))
    elif len(rows) > expected_cells:
        findings.append("sweep CSV has %d rows, expected %d"
                        % (len(rows), expected_cells))
    failed = min(expected_cells, len(bad_rows) + missing)
    if findings and not failed:
        failed = 1
    return rows, findings, failed


def csv_digest(text):
    """Digest of a CSV that ignores row order (the header stays first)."""
    lines = text.splitlines()
    body = "\n".join([lines[0]] + sorted(lines[1:])) if lines else ""
    return hashlib.sha256(body.encode()).hexdigest()


def fig10_jit_err_pp(rows):
    """|mean NvMR-vs-Clank JIT energy saved - the paper's ~20%| in pp."""
    totals = {}
    for row in rows:
        if row["policy"] == "jit" and row["arch"] in ("clank", "nvmr"):
            totals.setdefault(row["workload"], {})[row["arch"]] = float(
                row["total_uj"])
    saved = [100.0 * (1.0 - t["nvmr"] / t["clank"])
             for t in totals.values()
             if "nvmr" in t and t.get("clank", 0) > 0]
    if not saved:
        return float("nan")
    return abs(sum(saved) / len(saved) - PAPER_FIG10_JIT_SAVED_PCT)


def check_crashtest(stdout, returncode):
    """(points, fired, findings) for one nvmr_crashtest run.

    A run passes when it exits 0, reports zero divergent or stuck
    points, and every crash point it attempted actually fired.
    """
    failures = []
    points = fired = 0
    summary = None
    for line in stdout.splitlines():
        if line.startswith("FAILURE:"):
            failures.append(line)
        m = _CRASHTEST_SUMMARY.match(line)
        if m:
            summary = m
    if summary is None:
        failures.append("crashtest printed no summary line")
    else:
        points, fired = int(summary.group(2)), int(summary.group(3))
        if summary.group(1) != "passed" and not failures:
            failures.append("crashtest reported FAILED")
        if fired != points:
            failures.append("only %d of %d crash points fired"
                            % (fired, points))
    if returncode != 0:
        failures.append("crashtest exited %d" % returncode)
    return points, fired, failures


def check_serve_job(csv_text):
    """Findings for one serve job's CSV: one completed, validated row."""
    if csv_text is None:
        return ["job produced no CSV"]
    rows, failures = parse_sweep_csv(csv_text)
    failures += sweep_row_failures(rows)
    if not failures and len(rows) != 1:
        failures.append("job CSV has %d rows, expected 1" % len(rows))
    return failures


def check_serve_state(state, expected_done):
    """Findings for the daemon's final nvmr-serve-v1 snapshot."""
    if state is None:
        return ["daemon left no serve.json"]
    failures = []
    jobs = state.get("jobs", {})
    for key in ("failed", "quarantined"):
        if jobs.get(key, 0):
            failures.append("%d job(s) %s" % (jobs[key], key))
    if jobs.get("done", 0) != expected_done:
        failures.append("%d of %d jobs done"
                        % (jobs.get("done", 0), expected_done))
    if not state.get("final", False):
        failures.append("serve.json is not the final snapshot")
    return failures


def manifest_totals(manifest):
    """Exact counts summed over every run of a run manifest."""
    totals = dict.fromkeys(COUNT_FIELDS, 0)
    for run in manifest.get("runs", []):
        for key in COUNT_FIELDS:
            totals[key] += run[key]
    totals["runs"] = len(manifest.get("runs", []))
    return totals


def totals_mismatch(probe, manifest):
    """Names of exact counts on which the probe and manifest differ."""
    return sorted(k for k in ("runs",) + COUNT_FIELDS
                  if probe.get(k) != manifest.get(k))


def expected_findings(table, config, observed):
    """One finding per observed output that differs from table[config].

    `table` maps a workload configuration to its exact outputs (CSV
    digests, crash point counts, event counts); `observed` holds some
    of those outputs from one run. A configuration with no entry is
    itself a finding, which names the observed values to record.
    """
    entry = table.get(config)
    if entry is None:
        return ["no expected outputs recorded for %r; observed %s"
                % (config, json.dumps(observed, sort_keys=True))]
    return ["%s: got %s, expected %s under %r"
            % (k, observed[k], entry.get(k), config)
            for k in sorted(observed) if entry.get(k) != observed[k]]


def percentile(values, q):
    """Linear-interpolated q-th percentile (0 <= q <= 100)."""
    if not values:
        return float("nan")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)
