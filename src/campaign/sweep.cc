#include "campaign/sweep.hh"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <optional>

#include "campaign/cellio.hh"
#include "check/repro.hh"
#include "sim/experiment.hh"
#include "workloads/workloads.hh"

namespace nvmr::campaign
{

namespace
{

/** One grid cell's coordinates. Cells are numbered workload-major,
 *  then arch, policy and capacitor: the order of the CSV rows. */
struct Cell
{
    size_t wl, ai, pi, ci;
};

Cell
cellAt(const SweepParams &p, uint64_t index)
{
    Cell c{};
    c.ci = index % p.caps.size();
    index /= p.caps.size();
    c.pi = index % p.policies.size();
    index /= p.policies.size();
    c.ai = index % p.archs.size();
    c.wl = index / p.archs.size();
    return c;
}

std::string
joinList(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &s : items) {
        if (!out.empty())
            out += ',';
        out += s;
    }
    return out;
}

/** The registered workloads plus the hidden non-terminating "spin"
 *  (it exercises the watchdog and deadline paths;
 *  workloads/workloads.cc). */
bool
validWorkloadName(const std::string &name)
{
    if (name == "spin")
        return true;
    for (const WorkloadInfo &w : allWorkloads())
        if (w.name == name)
            return true;
    return false;
}

__attribute__((format(printf, 2, 3))) void
appendf(std::string &out, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list again;
    va_copy(again, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    size_t at = out.size();
    out.resize(at + static_cast<size_t>(n) + 1);
    std::vsnprintf(&out[at], static_cast<size_t>(n) + 1, fmt, again);
    va_end(again);
    out.resize(at + static_cast<size_t>(n));
}

} // namespace

std::string
validateSweep(SweepParams &p)
{
    if (p.workloads.empty())
        for (const WorkloadInfo &w : allWorkloads())
            p.workloads.push_back(w.name);
    for (const std::string &w : p.workloads)
        if (!validWorkloadName(w))
            return "unknown workload '" + w + "'";
    ArchKind arch = ArchKind::Nvmr;
    for (const std::string &a : p.archs)
        if (!archKindFromName(a, arch))
            return "unknown architecture '" + a +
                   "' (valid: ideal, clank, clank_original, task, "
                   "nvmr, hoop)";
    PolicyKind policy = PolicyKind::Jit;
    for (const std::string &name : p.policies)
        if (!policyKindFromName(name, policy) ||
            policy == PolicyKind::Spendthrift)
            return "invalid policy '" + name +
                   "' (valid: jit, watchdog, none)";
    if (p.archs.empty() || p.policies.empty())
        return "archs and policies must be non-empty";
    if (p.caps.empty())
        return "caps must be a non-empty list of positive numbers";
    for (double c : p.caps)
        if (!(c > 0) || !std::isfinite(c))
            return "caps must be a non-empty list of positive numbers";
    if (p.traces < 1 || p.traces > kMaxSweepTraces)
        return "traces must be a whole number in [1, " +
               std::to_string(kMaxSweepTraces) + "]";
    return "";
}

std::string
sweepConfigSpec(const SweepParams &p, const Options &opts)
{
    std::string spec = "sweep|traces=" + std::to_string(p.traces) +
                       "|archs=" + joinList(p.archs) +
                       "|policies=" + joinList(p.policies) + "|caps=";
    for (size_t i = 0; i < p.caps.size(); ++i)
        appendf(spec, "%s%.17g", i ? "," : "", p.caps[i]);
    spec += "|workloads=" + joinList(p.workloads);
    appendWatchdogSpec(spec, opts);
    return spec;
}

uint64_t
sweepCellCount(const SweepParams &p)
{
    return static_cast<uint64_t>(p.workloads.size()) * p.archs.size() *
           p.policies.size() * p.caps.size();
}

std::string
sweepCellLabel(const SweepParams &p, uint64_t index)
{
    Cell c = cellAt(p, index);
    return p.workloads[c.wl] + "/" + p.archs[c.ai] + "/" +
           p.policies[c.pi];
}

SweepOutput
runSweep(Campaign &cam, const SweepParams &p,
         const ProgramLookup &programs, ManifestWriter *manifest)
{
    // Names were validated; the lookups cannot fail.
    std::vector<ArchKind> arch_kinds(p.archs.size());
    for (size_t i = 0; i < p.archs.size(); ++i)
        archKindFromName(p.archs[i], arch_kinds[i]);
    std::vector<PolicyKind> policy_kinds(p.policies.size());
    for (size_t i = 0; i < p.policies.size(); ++i)
        policyKindFromName(p.policies[i], policy_kinds[i]);
    auto traces = HarvestTrace::standardSet(p.traces);
    uint64_t n = sweepCellCount(p);

    // Workers must not race the assembler caches, so every image is
    // fetched here, and only for workloads with fresh cells.
    std::vector<const Program *> images(p.workloads.size(), nullptr);
    for (uint64_t i = 0; i < n; ++i) {
        size_t wl = cellAt(p, i).wl;
        if (!images[wl] && !cam.cellDone("grid", i))
            images[wl] = &programs(p.workloads[wl]);
    }

    auto results = cam.runStage(
        "grid", n,
        [&](const CellContext &ctx) -> std::optional<std::string> {
            Cell c = cellAt(p, ctx.index);
            SystemConfig cfg;
            cfg.capacitorFarads = p.caps[c.ci];
            PolicySpec spec;
            spec.kind = policy_kinds[c.pi];
            RunOptions ropts;
            if (ctx.budgetCycles)
                ropts.maxCycles = ctx.budgetCycles;
            ropts.cancel = ctx.cancel;
            auto runs = runOnTraces(*images[c.wl], arch_kinds[c.ai],
                                    cfg, spec, traces, ropts);
            // A cancelled run looks like a blown budget in its
            // RunResult; the flag breaks the tie, so a deadline
            // never burns watchdog retries.
            if (cam.cancelled())
                throw CellCancelled{};
            if (ctx.budgetCycles)
                for (const RunResult &r : runs)
                    if (!r.completed)
                        throw CellTimeout{
                            sweepCellLabel(p, ctx.index) +
                            " exceeded " +
                            std::to_string(ctx.budgetCycles) +
                            " cycles on trace " + r.trace};
            return encodeRunResults(runs);
        });

    SweepOutput out;
    out.csv = "workload,arch,policy,capacitor_f,total_uj,forward_uj,"
              "overhead_uj,backup_uj,restore_uj,reclaim_uj,dead_uj,"
              "backups,violations,renames,reclaims,power_failures,"
              "nvm_writes,max_wear,completed,validated\n";
    if (manifest && n) {
        SystemConfig cfg;
        cfg.capacitorFarads = p.caps[0];
        manifest->setConfig(cfg);
    }
    for (uint64_t i = 0; i < n; ++i) {
        if (results[i].status != CellStatus::Done)
            continue; // quarantined or interrupt-skipped: no row
        std::vector<RunResult> runs;
        if (!decodeRunResults(results[i].payload, runs)) {
            out.error = "corrupt journal payload for sweep cell " +
                        std::to_string(i);
            return out;
        }
        if (manifest)
            for (const RunResult &r : runs)
                manifest->addRun(r);
        Cell c = cellAt(p, i);
        Aggregate a = aggregate(runs);
        appendf(out.csv,
                "%s,%s,%s,%g,%.2f,%.2f,%.2f,%.2f,%.2f,"
                "%.2f,%.2f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,"
                "%.0f,%d,%d\n",
                p.workloads[c.wl].c_str(), p.archs[c.ai].c_str(),
                p.policies[c.pi].c_str(), p.caps[c.ci],
                a.totalEnergyNj / 1000.0,
                a.energyOf(ECat::Forward) / 1000.0,
                (a.energyOf(ECat::ForwardOverhead) +
                 a.energyOf(ECat::BackupOverhead) +
                 a.energyOf(ECat::RestoreOverhead)) /
                    1000.0,
                a.energyOf(ECat::Backup) / 1000.0,
                a.energyOf(ECat::Restore) / 1000.0,
                a.energyOf(ECat::Reclaim) / 1000.0,
                a.energyOf(ECat::Dead) / 1000.0, a.backups,
                a.violations, a.renames, a.reclaims, a.powerFailures,
                a.nvmWrites, a.maxWear, a.allCompleted ? 1 : 0,
                a.allValidated ? 1 : 0);
    }
    return out;
}

void
addSweepExtras(ManifestWriter &manifest, const SweepParams &p,
               const Campaign &cam, const char *result)
{
    manifest.addExtra("cells", static_cast<double>(sweepCellCount(p)));
    manifest.addExtra("traces_per_cell", static_cast<double>(p.traces));
    if (result)
        manifest.addExtra("result", result);
    manifest.addExtraJson("quarantine",
                          cam.quarantineJson([&](const QuarantineEntry &q) {
                              return sweepCellLabel(p, q.index);
                          }));
}

} // namespace nvmr::campaign
