/**
 * @file
 * Crash-safe campaign execution layer. Every long-running campaign
 * tool (nvmr_sweep, nvmr_fuzz, nvmr_diff, nvmr_crashtest,
 * nvmr_train) routes its work-list through a Campaign: cells fan out
 * across the src/par engine exactly as before, but each completed
 * cell's result payload is appended to an fsync'd CRC-framed journal
 * (campaign/journal.hh), so a SIGKILL'd or interrupted campaign can
 * `--resume` and skip straight to the unfinished cells. Because
 * payloads round-trip bit-exactly and gathering stays in canonical
 * index order, a resumed campaign's merged output is byte-identical
 * to an uninterrupted run at any `--jobs N`.
 *
 * Per-cell robustness policy: an optional deterministic watchdog
 * (simulated-cycle budget, so it is reproducible across hosts and
 * worker counts, unlike a wall-clock timeout) with bounded
 * budget-doubling retries. A cell that exhausts its retries is
 * quarantined -- recorded in the journal and reported in the manifest
 * -- instead of aborting or hanging the whole campaign.
 *
 * See docs/operations.md for the operator-facing semantics.
 */

#ifndef NVMR_CAMPAIGN_CAMPAIGN_HH
#define NVMR_CAMPAIGN_CAMPAIGN_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "campaign/journal.hh"
#include "par/par.hh"

namespace nvmr::campaign
{

/** Campaign-wide robustness knobs (tools parse them from the shared
 *  --journal/--resume/--watchdog-* flags; tools/cli.hh). */
struct Options
{
    /** Journal file; empty disables checkpointing. */
    std::string journalPath;

    /** Resume from journalPath instead of truncating it. The journal
     *  must exist, carry an intact header, and match the campaign's
     *  config hash; anything else is refused with fatal(). */
    bool resume = false;

    /** Per-cell simulated-cycle budget; 0 disables the watchdog. */
    uint64_t watchdogCycles = 0;

    /** Budget-doubling retries after the first timeout; the cell is
     *  quarantined after 1 + watchdogRetries attempts. */
    unsigned watchdogRetries = 2;

    /** External cooperative cancel (e.g. a service deadline): when
     *  the pointed-to flag becomes true, undispatched cells stay
     *  Skipped and bodies that honour CellContext::cancel abandon
     *  their run. Unlike an interrupt it is scoped to this campaign,
     *  not the process. */
    const std::atomic<bool> *cancelFlag = nullptr;
};

/** Thrown by a cell body when the watchdog budget expired before the
 *  cell finished. The campaign retries with twice the budget, then
 *  quarantines. */
struct CellTimeout
{
    std::string reason;
};

/** Thrown by a cell body that noticed CellContext::cancel. The cell
 *  stays Skipped (never journaled, never retried), so a resume
 *  re-runs it from scratch. */
struct CellCancelled
{
};

/** What the body of one cell attempt sees. */
struct CellContext
{
    uint64_t index = 0;      ///< cell index within the stage
    unsigned attempt = 0;    ///< 0-based attempt number
    uint64_t budgetCycles = 0; ///< 0 = no watchdog; doubles per retry

    /** Options::cancelFlag, passed through so the body can thread it
     *  into RunOptions::cancel (and throw CellCancelled after a
     *  cancelled run). May be null. */
    const std::atomic<bool> *cancel = nullptr;
};

enum class CellStatus : uint8_t
{
    Done,        ///< body returned a payload (fresh or from journal)
    Failed,      ///< body returned nullopt (tool-level failure;
                 ///  never journaled, so a resume re-runs it)
    Quarantined, ///< watchdog retries exhausted
    Skipped,     ///< interrupt arrived before the cell ran
};

struct CellResult
{
    CellStatus status = CellStatus::Skipped;
    bool fromJournal = false; ///< served without re-running
    unsigned attempts = 0;    ///< body invocations this run
    std::string payload;      ///< Done: result bytes;
                              ///  Quarantined: reason text
};

struct QuarantineEntry
{
    std::string stage;
    uint64_t index = 0;
    unsigned attempts = 0;
    std::string reason;
};

/**
 * One campaign run. Construct with the tool name and a canonical
 * config-spec string covering every parameter that shapes the
 * work-list or the per-cell results (not --jobs, not output paths);
 * its hash gates `--resume`. Then call runStage() once per
 * work-list, in a deterministic order with deterministic stage names.
 */
class Campaign
{
  public:
    /** Body: compute one cell, return its journal payload. Return
     *  nullopt for a tool-level failure that must not be journaled
     *  (the tool reports it and exits; a resume re-runs the cell and
     *  reproduces the failure). Throw CellTimeout to engage the
     *  watchdog retry/quarantine path. Any other exception aborts the
     *  stage (rethrown after the pool drains, lowest index first). */
    using CellBody =
        std::function<std::optional<std::string>(const CellContext &)>;

    Campaign(std::string tool, const std::string &config_spec,
             Options opts);

    /**
     * Run `n` cells under `stage` (a name that must be stable across
     * runs -- it keys the journal records). Journaled cells are
     * served without running the body; the rest fan out across the
     * parallel engine. Results come back in index order.
     */
    std::vector<CellResult> runStage(const std::string &stage,
                                     uint64_t n, const CellBody &body,
                                     par::Progress *progress = nullptr);

    /** True when a resume journal already holds this cell (tools use
     *  it to skip per-stage setup work such as program assembly or
     *  oracle precomputation). */
    bool cellDone(const std::string &stage, uint64_t index) const;

    /** Cells served from the journal so far. */
    uint64_t resumedCells() const { return resumedCount; }

    /** An interrupt arrived; remaining cells were/will be skipped. */
    bool interrupted() const;

    /** Options::cancelFlag fired (campaign-scoped, unlike an
     *  interrupt). */
    bool cancelled() const;

    /** Journal hit disk-full / short-write at some point. It may have
     *  recovered since (JournalWriter re-probes with backoff), but
     *  records written during the outage are gone, so the campaign
     *  still exits kExitDegraded. */
    bool journalDegraded() const;
    const std::string &journalError() const;

    /** Quarantined cells, in stage-then-index order. */
    const std::vector<QuarantineEntry> &quarantined() const
    {
        return quarantineList;
    }

    /** JSON array for the manifest's "quarantine" extra. `describe`
     *  optionally renders a human-readable cell label. */
    std::string quarantineJson(
        const std::function<std::string(const QuarantineEntry &)>
            &describe = nullptr) const;

    /**
     * The exit code this campaign deserves. `result_code` is the
     * tool-level verdict (kExitOk, or kExitMismatch on divergence).
     * An interrupt overrides it; quarantine or a degraded journal
     * upgrade a clean result to kExitDegraded.
     */
    int exitCode(int result_code) const;

  private:
    std::string tool;
    uint64_t configHash;
    Options opts;

    JournalWriter writer;
    std::unordered_map<uint64_t, std::string> resumedCellMap;
    std::unordered_map<uint64_t, std::string> resumedQuarantineMap;
    uint64_t resumedCount = 0;

    std::vector<QuarantineEntry> quarantineList;
};

/** Append the watchdog knobs to a campaign config-spec string (they
 *  shape per-cell results, so a resume must match them; --jobs and
 *  output paths deliberately stay out). */
void appendWatchdogSpec(std::string &spec, const Options &opts);

/** Serialize / parse a Quarantine journal record payload. */
std::string quarantinePayload(unsigned attempts,
                              const std::string &reason);
bool parseQuarantinePayload(const std::string &payload,
                            unsigned &attempts, std::string &reason);

} // namespace nvmr::campaign

#endif // NVMR_CAMPAIGN_CAMPAIGN_HH
