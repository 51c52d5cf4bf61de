/**
 * @file
 * The differential-fuzz campaign, defined once for the standalone
 * tool (tools/nvmr_fuzz.cc) and `nvmr_serve`'s fuzz jobs, so both
 * check exactly the same (program, case) grid, produce byte-identical
 * journal payloads and write the same log lines.
 *
 * One fuzz iteration is one random program (sim/randprog.hh) pushed
 * through every entry of a fixed architecture x policy x capacitor
 * grid; each run's final NVM state is compared against the
 * continuously-powered execution (directly, or via the full oracle +
 * invariant harness in src/check when oracle mode is on).
 */

#ifndef NVMR_CHECK_FUZZCASES_HH
#define NVMR_CHECK_FUZZCASES_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "campaign/campaign.hh"
#include "check/runner.hh"
#include "fault/fault.hh"
#include "obs/manifest.hh"
#include "par/par.hh"
#include "sim/simulator.hh"

namespace nvmr
{

/** One grid entry: where a fuzzed program runs. */
struct FuzzCase
{
    ArchKind arch;
    PolicyKind policy;
    double farads;
    bool byteLbf = false;
};

/** The fixed case grid; `nvmr_fuzz --one` indexes into it 1-based. */
const FuzzCase *fuzzCases();
size_t fuzzCaseCount();

/**
 * Derive a random-but-reproducible fault load for one (seed, case)
 * pair: a crash armed at a random persist boundary, sometimes a
 * second one at a raw cycle, and sometimes a transient bit-error
 * rate. Only single-bit transients are enabled so SECDED always
 * corrects them: any divergence is still a simulator bug, never the
 * fault manifesting.
 */
FaultConfig randomFuzzFaults(uint64_t seed, uint64_t case_idx);

/** Map one fuzz case onto the src/check harness description. */
CheckCase makeFuzzCheckCase(const std::string &text, uint64_t seed,
                            const FuzzCase &c,
                            const FaultConfig *faults);

/** What one (seed, case) evaluation produced. Workers only compute;
 *  all printing, manifest writes and repro saving stay on the main
 *  thread so output order and side effects are deterministic. */
struct FuzzOutcome
{
    bool skipped = false;  ///< case not applicable (ideal + non-JIT)
    bool ok = true;
    RunResult run;          ///< failure detail (both modes)
    std::string checkText;  ///< oracle mode: describe() + detail()
    CheckCase cc;           ///< oracle mode: repro payload
    FaultConfig faults;
    bool haveFaults = false;
};

/**
 * Evaluate one (program, case) pair. `budget_cycles` (when nonzero)
 * overrides the simulated-cycle budget so the campaign watchdog can
 * retry with doubled budgets; `cancel` (when non-null) is threaded
 * into the run so a service deadline can abandon it mid-simulation.
 */
FuzzOutcome evalFuzzCase(const Program &prog, const std::string &text,
                         uint64_t seed, const FuzzCase &c,
                         const FaultConfig *faults, bool oracle_mode,
                         uint64_t budget_cycles = 0,
                         const std::atomic<bool> *cancel = nullptr);

/** Most programs one fuzz campaign may generate. */
constexpr uint64_t kMaxFuzzIterations = 1ull << 32;

/** The fuzz campaign (nvmr_fuzz's arguments, a fuzz job's keys). */
struct FuzzParams
{
    uint64_t iterations = 100; ///< random programs
    uint64_t baseSeed = 1;     ///< seed of the first program
    bool faults = false;       ///< randomized crashes and bit errors
    bool oracle = false;       ///< full oracle + invariant harness
};

/** Check the parameters (1..kMaxFuzzIterations programs). Returns
 *  the problem, or "" when the campaign can run. */
std::string validateFuzz(const FuzzParams &p);

/** Canonical config spec (its hash gates --resume). */
std::string fuzzConfigSpec(const FuzzParams &p,
                           const campaign::Options &opts);

/** (program, case) cells the campaign runs: faults mode skips the
 *  ideal architecture, whose perfect-JIT assumption injected crashes
 *  break by construction. */
uint64_t fuzzCellCount(const FuzzParams &p);

/** A failed case's report: a blank line, `FAILURE:` (with the
 *  oracle's findings in oracle mode), `faults:` when faults were
 *  injected, and the `repro:` command replaying this (seed, case). */
std::string fuzzFailureText(const FuzzOutcome &out, uint64_t seed,
                            uint64_t case_idx, bool faults_mode,
                            bool oracle_mode);

/** How a fuzz campaign ended. */
struct FuzzSummary
{
    uint64_t runs = 0;     ///< clean runs before the end or failure
    bool diverged = false;
    FuzzOutcome failure;   ///< diverged: the first failing case
    std::string verdict;   ///< the manifest's "result"
};

/** Receives the campaign's log as it is produced, in whole lines. */
using LineSink = std::function<void(const std::string &)>;

/**
 * Run the campaign through `cam` in stages of ten programs. Outcomes
 * are scanned in canonical order on the calling thread, so the first
 * failure reported -- and the run count at that point -- is the same
 * whatever the worker count. Failures are never journaled, so a
 * resume reproduces them. Stops at the first failure (its report goes
 * to `emit`, its run to a non-null `manifest`), at an interrupt, or
 * when the campaign's cancel flag fires; finishes `progress` before
 * the last line.
 */
FuzzSummary runFuzz(campaign::Campaign &cam, const FuzzParams &p,
                    const LineSink &emit, ManifestWriter *manifest,
                    par::Progress *progress = nullptr);

/** Add the fuzz manifest extras: the parameters, "runs", "result"
 *  and the "quarantine" list. */
void addFuzzExtras(ManifestWriter &manifest, const FuzzParams &p,
                   const FuzzSummary &s, const campaign::Campaign &cam);

} // namespace nvmr

#endif // NVMR_CHECK_FUZZCASES_HH
