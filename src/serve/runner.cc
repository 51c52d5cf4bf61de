#include "serve/runner.hh"

#include "campaign/campaign.hh"
#include "campaign/sweep.hh"
#include "check/fuzzcases.hh"
#include "common/exitcodes.hh"
#include "common/fsutil.hh"
#include "common/log.hh"
#include "obs/manifest.hh"
#include "workloads/workloads.hh"

namespace nvmr::serve
{

namespace
{

std::string
outPath(const JobRunOptions &opts, const std::string &name,
        const char *suffix)
{
    return opts.outDir + "/" + name + suffix;
}

/** Translate campaign end state into a job phase. */
JobPhase
endPhase(const campaign::Campaign &cam)
{
    if (cam.interrupted())
        return JobPhase::Interrupted;
    if (cam.cancelled())
        return JobPhase::Cancelled;
    return JobPhase::Complete;
}

campaign::Options
campaignOptions(const JobSpec &job, const JobRunOptions &opts)
{
    campaign::Options copts;
    copts.journalPath = opts.journalPath;
    copts.resume = opts.resume;
    copts.watchdogCycles = job.watchdogCycles;
    copts.watchdogRetries = job.watchdogRetries;
    copts.cancelFlag = opts.cancel;
    return copts;
}

} // namespace

const Program &
ProgramCache::get(const std::string &workload)
{
    auto it = cache.find(workload);
    if (it != cache.end())
        return it->second;
    Program prog = assembleWorkload(workload);
    bytes += prog.text.size() * sizeof(Instruction) +
             prog.data.size() + workload.size();
    return cache.emplace(workload, std::move(prog)).first->second;
}

JobOutcome
runJob(const JobSpec &job, const JobRunOptions &opts,
       ProgramCache &programs)
{
    bool sweep = job.type == JobType::Sweep;
    campaign::Campaign cam("nvmr_serve", job.configSpec(),
                           campaignOptions(job, opts));
    ManifestWriter manifest("nvmr_serve");
    manifest.addExtra("job", job.name);
    campaign::SweepOutput grid;
    FuzzSummary fuzz;
    std::string log;
    if (sweep)
        grid = campaign::runSweep(
            cam, job.sweep,
            [&](const std::string &w) -> const Program & {
                return programs.get(w);
            },
            &manifest);
    else
        fuzz = runFuzz(
            cam, job.fuzz, [&](const std::string &line) { log += line; },
            &manifest);

    JobOutcome outcome;
    outcome.phase = endPhase(cam);
    outcome.cellsResumed = cam.resumedCells();
    outcome.cellsQuarantined = cam.quarantined().size();
    outcome.journalDegraded = cam.journalDegraded();
    int rc = kExitOk;
    if (fuzz.diverged) {
        // A divergence is a final verdict even if the deadline also
        // fired; resumes reproduce it (failures are never journaled).
        outcome.failReason = "divergence";
        outcome.phase = JobPhase::Complete;
        rc = kExitMismatch;
    } else if (outcome.phase == JobPhase::Cancelled) {
        return outcome; // the retry re-runs from the journal
    } else if (!grid.error.empty()) {
        outcome.failReason = grid.error;
        outcome.resultCode = kExitDegraded;
        return outcome;
    }

    // Outputs land atomically, after the campaign.
    if (sweep)
        campaign::addSweepExtras(
            manifest, job.sweep, cam,
            outcome.phase == JobPhase::Interrupted
                ? "interrupted"
                : (cam.quarantined().empty() ? "ok" : "quarantined"));
    else
        addFuzzExtras(manifest, job.fuzz, fuzz, cam);
    std::string err;
    const char *suffix = sweep ? ".csv" : ".out";
    if (!atomicWriteFile(outPath(opts, job.name, suffix),
                         sweep ? grid.csv : log, &err)) {
        warn("job ", job.name, ": cannot write ", suffix, ": ", err);
        rc = rc == kExitOk ? kExitDegraded : rc;
    }
    if (!manifest.tryWriteFile(outPath(opts, job.name, ".stats.json")))
        rc = rc == kExitOk ? kExitDegraded : rc;
    outcome.resultCode =
        outcome.phase == JobPhase::Complete ? cam.exitCode(rc) : rc;
    return outcome;
}

} // namespace nvmr::serve
