/**
 * @file
 * The parameter-sweep campaign, defined once for `nvmr_sweep` and
 * `nvmr_serve`'s sweep jobs: every workload across a grid of
 * architectures, policies and capacitor sizes, each cell averaged
 * over the standard harvest traces and rendered as one CSV row.
 * Callers keep only what differs between them: how the parameters
 * arrive, where the outputs go, and where programs come from.
 */

#ifndef NVMR_CAMPAIGN_SWEEP_HH
#define NVMR_CAMPAIGN_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "isa/program.hh"
#include "obs/manifest.hh"

namespace nvmr::campaign
{

/** Most harvest traces one sweep cell averages over. */
constexpr int kMaxSweepTraces = 10;

/** The sweep grid (nvmr_sweep's flags, a sweep job's keys). */
struct SweepParams
{
    std::vector<std::string> workloads; ///< empty = all registered
    std::vector<std::string> archs = {"clank", "nvmr", "hoop"};
    std::vector<std::string> policies = {"jit", "watchdog"};
    std::vector<double> caps = {0.1};
    int traces = 5;
};

/**
 * Fill an empty workload list with every registered workload, then
 * check the grid: known workload and architecture names, policies
 * other than spendthrift (it needs offline training), no empty axis,
 * finite positive capacitances and 1..kMaxSweepTraces traces.
 * Returns the first problem found, or "" when the grid can run.
 */
std::string validateSweep(SweepParams &p);

/** Canonical config spec (its hash gates --resume): everything that
 *  shapes the work-list or the per-cell results. */
std::string sweepConfigSpec(const SweepParams &p, const Options &opts);

/** Grid cells: workloads x archs x policies x caps. */
uint64_t sweepCellCount(const SweepParams &p);

/** "workload/arch/policy" of grid cell `index`. */
std::string sweepCellLabel(const SweepParams &p, uint64_t index);

/** Where a sweep gets the assembled image of a workload. Called on
 *  the calling thread, only for workloads with cells left to run. */
using ProgramLookup =
    std::function<const Program &(const std::string &workload)>;

struct SweepOutput
{
    std::string csv;   ///< header plus one row per finished cell
    std::string error; ///< a journal payload did not decode
};

/** Run a validated grid as stage "grid" of `cam` and render the CSV
 *  (quarantined and skipped cells get no row). A non-null `manifest`
 *  receives the configuration and every run of every finished cell. */
SweepOutput runSweep(Campaign &cam, const SweepParams &p,
                     const ProgramLookup &programs,
                     ManifestWriter *manifest);

/** Add the manifest extras: "cells", "traces_per_cell", `result`
 *  when non-null (a job's verdict), and the "quarantine" list. */
void addSweepExtras(ManifestWriter &manifest, const SweepParams &p,
                    const Campaign &cam, const char *result = nullptr);

} // namespace nvmr::campaign

#endif // NVMR_CAMPAIGN_SWEEP_HH
