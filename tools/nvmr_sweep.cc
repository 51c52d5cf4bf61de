/**
 * @file
 * Grid-sweep driver with CSV output: run every workload across a
 * grid of architectures, policies and capacitor sizes and emit one
 * CSV row per cell, ready for plotting. This is the generic
 * companion to the fixed per-figure harnesses in bench/.
 *
 *     nvmr_sweep > sweep.csv
 *     nvmr_sweep --traces 3 --archs clank,nvmr --caps 0.1,0.0075
 *     nvmr_sweep --workloads hist --stats-json sweep.json
 *     nvmr_sweep --journal sweep.jrn           # checkpoint cells
 *     nvmr_sweep --resume sweep.jrn            # skip finished cells
 *     nvmr_sweep --help                        # every flag, exit codes
 *
 * The campaign is the sweep definition in campaign/sweep.hh, shared
 * with nvmr_serve's sweep jobs; this file parses argv and prints.
 * Every finished cell is journaled (docs/operations.md), a SIGKILL'd
 * sweep resumes with byte-identical merged output, hung cells are
 * retried then quarantined into the manifest, and SIGINT/SIGTERM
 * flush a partial manifest before exiting 128+signal. An invalid
 * grid exits 2 before anything runs.
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <deque>
#include <string>

#include "campaign/campaign.hh"
#include "campaign/sig.hh"
#include "campaign/sweep.hh"
#include "cli.hh"
#include "common/exitcodes.hh"
#include "common/log.hh"
#include "obs/manifest.hh"
#include "workloads/workloads.hh"

using namespace nvmr;

namespace
{

void
usage()
{
    std::puts(
        "nvmr_sweep: grid sweep with one CSV row per cell on stdout\n"
        "\n"
        "  --workloads A,B       comma list (default: all workloads)\n"
        "  --archs A,B           ideal | clank | clank_original | task |\n"
        "                        nvmr | hoop (default clank,nvmr,hoop)\n"
        "  --policies A,B        jit | watchdog | none "
        "(default jit,watchdog)\n"
        "  --caps F,G            capacitor sizes in farads "
        "(default 0.1)\n"
        "  --traces N            harvest traces per cell, 1..10 "
        "(default 5)\n"
        "  --stats-json FILE     write the run manifest as JSON");
    std::puts(cli::kCampaignFlagsHelp);
    std::puts("Exit codes: 0 clean, 2 usage or invalid grid, 3 "
              "degraded (quarantined\ncells, journal or output "
              "errors), 128+signal when interrupted.");
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    campaign::installSignalHandlers();
    campaign::SweepParams params;
    std::string stats_json_path;
    campaign::Options copts;
    obs::TelemetryOptions topts;

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("missing value for ", argv[i]);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        if (cli::handleJobsArg(argc, argv, i))
            continue;
        if (cli::handleCampaignArg(argc, argv, i, copts))
            continue;
        if (cli::handleTelemetryArg(argc, argv, i, topts))
            continue;
        std::string a = argv[i];
        if (a == "--traces") {
            // Saturate; validateSweep rejects out-of-range counts.
            params.traces = static_cast<int>(
                std::min<uint64_t>(cli::parseU64(need(i), a), INT_MAX));
        } else if (a == "--archs") {
            params.archs = cli::splitList(need(i));
        } else if (a == "--policies") {
            params.policies = cli::splitList(need(i));
        } else if (a == "--caps") {
            params.caps.clear();
            for (const std::string &c : cli::splitList(need(i)))
                params.caps.push_back(cli::parseDouble(c.c_str(), a));
        } else if (a == "--workloads") {
            params.workloads = cli::splitList(need(i));
        } else if (a == "--stats-json") {
            stats_json_path = need(i);
        } else if (a == "-h" || a == "--help") {
            usage();
            return kExitOk;
        } else {
            fatal("unknown argument '", a, "' (try --help)");
        }
    }
    // Validate the whole grid before running anything: a typo in the
    // last arch name should not surface hours into the sweep.
    std::string error = campaign::validateSweep(params);
    fatal_if(!error.empty(), error);

    // Host telemetry (off by default): heartbeat snapshots + span
    // profile go to their own files, never into the CSV or manifest.
    obs::Telemetry telemetry("nvmr_sweep", topts,
                             campaign::interruptRequested);

    campaign::Campaign cam("nvmr_sweep",
                           campaign::sweepConfigSpec(params, copts),
                           copts);

    ManifestWriter manifest("nvmr_sweep");
    ManifestWriter *mptr = stats_json_path.empty() ? nullptr : &manifest;
    std::deque<Program> assembled;
    campaign::SweepOutput out = campaign::runSweep(
        cam, params,
        [&](const std::string &w) -> const Program & {
            return assembled.emplace_back(assembleWorkload(w));
        },
        mptr);
    fatal_if(!out.error.empty(), out.error);

    std::fputs(out.csv.c_str(), stdout);
    int rc = kExitOk;
    if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
        warn("error writing CSV to stdout");
        rc = kExitDegraded;
    }

    for (const auto &q : cam.quarantined())
        warn("quarantined cell ", q.index, " (",
             campaign::sweepCellLabel(params, q.index), ") after ",
             q.attempts, " attempt(s): ", q.reason);

    if (mptr) {
        campaign::addSweepExtras(manifest, params, cam);
        if (!manifest.tryWriteFile(stats_json_path))
            rc = kExitDegraded;
    }
    return cam.exitCode(rc);
}
