/**
 * @file
 * Differential correctness fuzzer: generate random programs and run
 * them intermittently across every architecture, policy and a grid
 * of capacitor sizes, comparing each final NVM state against the
 * continuously-powered execution. Any divergence (or stuck run)
 * prints a one-line repro command and stops with a non-zero exit.
 *
 *     nvmr_fuzz                 # 100 iterations from seed 1
 *     nvmr_fuzz 500 12345       # iterations + base seed
 *     nvmr_fuzz --faults 500    # randomized crashes and bit errors
 *     nvmr_fuzz --oracle 500    # golden oracle + invariant checker
 *     nvmr_fuzz --one SEED IDX  # the replay command a failure prints
 *     nvmr_fuzz --help          # every flag, exit codes
 *
 * The campaign is the fuzz definition in check/fuzzcases.hh, shared
 * with nvmr_serve's fuzz jobs; this file parses argv, prints the log
 * as it comes and saves an oracle-mode failure's repro file. Clean
 * cells are journaled (docs/operations.md), a watchdog budget
 * quarantines hung cells, and any divergence exits 1 with the repro
 * line -- divergences are never journaled, so a resume reproduces
 * them.
 */

#include <cstdio>
#include <string>

#include "campaign/campaign.hh"
#include "campaign/sig.hh"
#include "check/fuzzcases.hh"
#include "check/repro.hh"
#include "cli.hh"
#include "common/exitcodes.hh"
#include "common/log.hh"
#include "isa/assembler.hh"
#include "obs/manifest.hh"
#include "par/par.hh"
#include "sim/randprog.hh"

using namespace nvmr;

namespace
{

void
usage()
{
    std::puts(
        "nvmr_fuzz: differential correctness fuzzer\n"
        "\n"
        "  nvmr_fuzz [options] [ITERATIONS [SEED]]\n"
        "\n"
        "  ITERATIONS            random programs to check "
        "(default 100)\n"
        "  SEED                  seed of the first program "
        "(default 1)\n"
        "  --faults              also randomize crash points and\n"
        "                        correctable NVM bit-error rates\n"
        "  --oracle              run every case under the golden "
        "oracle and\n"
        "                        the lockstep invariant checker\n"
        "  --one SEED CASE       re-run one (seed, case) pair\n"
        "  --stats-json FILE     write the run manifest as JSON");
    std::puts(cli::kCampaignFlagsHelp);
    std::puts("Exit codes: 0 no divergence, 1 divergence, 2 usage, 3 "
              "degraded\n(quarantined cells, journal or output errors), "
              "128+signal when interrupted.");
}

void
printLine(const std::string &line)
{
    std::fputs(line.c_str(), stdout);
}

/** Save an oracle-mode failure for nvmr_diff --shrink. */
void
saveFailureRepro(const FuzzOutcome &out)
{
    if (saveRepro("nvmr_fuzz_failure.repro", out.cc))
        std::printf("also saved nvmr_fuzz_failure.repro; shrink "
                    "with: nvmr_diff --shrink "
                    "nvmr_fuzz_failure.repro\n");
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    campaign::installSignalHandlers();
    FuzzParams params;
    bool one_mode = false;
    uint64_t one_seed = 0;
    uint64_t one_case = 0;
    std::string stats_json_path;
    campaign::Options copts;
    obs::TelemetryOptions topts;
    int npos = 0;
    for (int i = 1; i < argc; ++i) {
        if (cli::handleJobsArg(argc, argv, i) ||
            cli::handleCampaignArg(argc, argv, i, copts) ||
            cli::handleTelemetryArg(argc, argv, i, topts))
            continue;
        std::string a = argv[i];
        if (a == "--faults") {
            params.faults = true;
        } else if (a == "--oracle") {
            params.oracle = true;
        } else if (a == "--one") {
            if (i + 2 >= argc)
                fatal("--one needs SEED and CASE_IDX");
            one_mode = true;
            one_seed = cli::parseU64(argv[++i], "--one SEED");
            one_case = cli::parseU64(argv[++i], "--one CASE_IDX");
        } else if (a == "--stats-json") {
            if (i + 1 >= argc)
                fatal("missing value for --stats-json");
            stats_json_path = argv[++i];
        } else if (a == "-h" || a == "--help") {
            usage();
            return kExitOk;
        } else if (a[0] == '-') {
            fatal("unknown argument '", a, "' (try --help)");
        } else if (npos == 0) {
            params.iterations = cli::parseU64(argv[i], "ITERATIONS");
            ++npos;
        } else if (npos == 1) {
            params.baseSeed = cli::parseU64(argv[i], "SEED");
            ++npos;
        } else {
            fatal("unexpected argument '", a,
                  "' (at most ITERATIONS and SEED; try --help)");
        }
    }

    if (one_mode) {
        if (one_case < 1 || one_case > fuzzCaseCount())
            fatal("case index out of range (1..",
                  static_cast<uint64_t>(fuzzCaseCount()), ")");
        std::string text = makeRandomProgram(one_seed);
        Program prog =
            assemble("fuzz" + std::to_string(one_seed), text);
        FaultConfig fc;
        if (params.faults)
            fc = randomFuzzFaults(one_seed, one_case);
        FuzzOutcome out = evalFuzzCase(
            prog, text, one_seed, fuzzCases()[one_case - 1],
            params.faults ? &fc : nullptr, params.oracle);
        if (!out.ok) {
            printLine(fuzzFailureText(out, one_seed, one_case,
                                      params.faults, params.oracle));
            if (params.oracle)
                saveFailureRepro(out);
        }
        std::printf(out.ok ? "case clean\n" : "case FAILED\n");
        return out.ok ? kExitOk : kExitMismatch;
    }

    std::string error = validateFuzz(params);
    fatal_if(!error.empty(), error);

    obs::Telemetry telemetry("nvmr_fuzz", topts,
                             campaign::interruptRequested);

    campaign::Campaign cam("nvmr_fuzz", fuzzConfigSpec(params, copts),
                           copts);

    // Only failures land in the manifest's runs: a fuzz campaign
    // makes tens of thousands of runs and the interesting ones are
    // the repros.
    ManifestWriter manifest("nvmr_fuzz");
    ManifestWriter *mptr = stats_json_path.empty() ? nullptr : &manifest;
    par::Progress progress("fuzz", fuzzCellCount(params));
    FuzzSummary s = runFuzz(cam, params, printLine, mptr, &progress);
    if (s.diverged && params.oracle)
        saveFailureRepro(s.failure);
    if (!s.diverged && !cam.interrupted())
        for (const auto &q : cam.quarantined())
            warn("quarantined ", q.stage, "/", q.index, " after ",
                 q.attempts, " attempt(s): ", q.reason);

    int rc = kExitOk;
    if (mptr) {
        addFuzzExtras(manifest, params, s, cam);
        if (!manifest.tryWriteFile(stats_json_path))
            rc = kExitDegraded;
    }
    if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
        warn("error writing to stdout");
        rc = kExitDegraded;
    }
    if (s.diverged)
        return cam.exitCode(kExitMismatch);
    return cam.exitCode(rc);
}
