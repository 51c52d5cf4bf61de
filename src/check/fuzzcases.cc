#include "check/fuzzcases.hh"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "check/repro.hh"
#include "common/xorshift.hh"
#include "isa/assembler.hh"
#include "sim/randprog.hh"

namespace nvmr
{

namespace
{

const FuzzCase kCases[] = {
    {ArchKind::Clank, PolicyKind::Jit, 0.1},
    {ArchKind::Clank, PolicyKind::Watchdog, 500e-6},
    {ArchKind::ClankOriginal, PolicyKind::Jit, 0.1},
    {ArchKind::ClankOriginal, PolicyKind::Watchdog, 500e-6},
    {ArchKind::Nvmr, PolicyKind::Jit, 0.1},
    {ArchKind::Nvmr, PolicyKind::Watchdog, 500e-6},
    {ArchKind::Nvmr, PolicyKind::Jit, 500e-6},
    {ArchKind::Hoop, PolicyKind::Jit, 0.1},
    {ArchKind::Hoop, PolicyKind::Watchdog, 500e-6},
    {ArchKind::Ideal, PolicyKind::Jit, 0.1},
    {ArchKind::Clank, PolicyKind::Watchdog, 500e-6, true},
    {ArchKind::Nvmr, PolicyKind::Watchdog, 500e-6, true},
};

/** Ideal relies on the perfect-JIT assumption that power never
 *  fails unexpectedly; injected crashes break it. */
bool
caseRuns(const FuzzCase &c, bool faults_mode)
{
    return !(faults_mode && c.arch == ArchKind::Ideal);
}

} // namespace

const FuzzCase *
fuzzCases()
{
    return kCases;
}

size_t
fuzzCaseCount()
{
    return sizeof(kCases) / sizeof(kCases[0]);
}

FaultConfig
randomFuzzFaults(uint64_t seed, uint64_t case_idx)
{
    XorShift rng(seed * 1315423911ull + case_idx + 1);
    FaultConfig fc;
    fc.enabled = true;
    fc.seed = seed;
    fc.crashAtPersist = 1 + rng.next() % 1500;
    if (rng.next() % 4 == 0)
        fc.crashAtCycle = 1 + rng.next() % 200000;
    if (rng.next() % 2 == 0) {
        fc.transientBitErrorRate = 1e-5 * (1 + rng.next() % 20);
        fc.doubleBitFraction = 0;
        fc.maxReadRetries = 4;
    }
    return fc;
}

CheckCase
makeFuzzCheckCase(const std::string &text, uint64_t seed,
                  const FuzzCase &c, const FaultConfig *faults)
{
    CheckCase cc;
    cc.name = "fuzz" + std::to_string(seed);
    cc.arch = c.arch;
    cc.policy = c.policy;
    cc.farads = c.farads;
    cc.byteLbf = c.byteLbf;
    cc.traceSeed = 40000 + seed;
    cc.programText = text;
    cc.programSeed = seed;
    if (faults)
        cc.faults = *faults;
    return cc;
}

FuzzOutcome
evalFuzzCase(const Program &prog, const std::string &text,
             uint64_t seed, const FuzzCase &c,
             const FaultConfig *faults, bool oracle_mode,
             uint64_t budget_cycles, const std::atomic<bool> *cancel)
{
    FuzzOutcome out;
    if (faults) {
        out.faults = *faults;
        out.haveFaults = true;
    }

    // The ideal architecture is only safe under perfect JIT.
    if (c.arch == ArchKind::Ideal && c.policy != PolicyKind::Jit) {
        out.skipped = true;
        return out;
    }

    if (oracle_mode) {
        // Full checked harness: lockstep invariants + oracle diff.
        out.cc = makeFuzzCheckCase(text, seed, c, faults);
        if (budget_cycles)
            out.cc.maxCycles = budget_cycles;
        out.cc.cancel = cancel;
        CheckOutcome res = runChecked(out.cc);
        out.cc.cancel = nullptr; // repro payloads stay runtime-free
        out.ok = res.clean();
        if (!out.ok) {
            out.run = res.run;
            out.checkText = res.describe() + "\n" + res.detail();
        }
        return out;
    }

    // Small capacitors need the co-sized platform (atomic backups
    // must fit one charge; see SystemConfig::smallPlatform).
    SystemConfig cfg = c.farads < 1e-3 ? SystemConfig::smallPlatform()
                                       : SystemConfig{};
    cfg.capacitorFarads = c.farads;
    cfg.mapTableEntries = 64;
    cfg.mtCacheEntries = 16;
    cfg.mtCacheWays = 4;
    if (c.byteLbf)
        cfg.cache.lbfGranularityBytes = 1;
    PolicySpec spec;
    spec.kind = c.policy;
    if (c.farads < 1e-3)
        spec.watchdogPeriod = 300;

    auto policy = makePolicy(spec);
    HarvestTrace trace(TraceKind::Rf, 40000 + seed, 7.0);
    RunOptions opts;
    if (faults)
        opts.faults = *faults;
    if (budget_cycles)
        opts.maxCycles = budget_cycles;
    opts.cancel = cancel;
    Simulator sim(prog, c.arch, cfg, *policy, trace, opts);
    out.run = sim.run();
    out.ok = out.run.completed && out.run.validated;
    return out;
}

std::string
validateFuzz(const FuzzParams &p)
{
    if (p.iterations < 1 || p.iterations > kMaxFuzzIterations)
        return "iterations must be a whole number in [1, " +
               std::to_string(kMaxFuzzIterations) + "]";
    return "";
}

std::string
fuzzConfigSpec(const FuzzParams &p, const campaign::Options &opts)
{
    std::string spec = "fuzz|iterations=" + std::to_string(p.iterations) +
                       "|base_seed=" + std::to_string(p.baseSeed) +
                       "|faults=" + std::to_string(p.faults ? 1 : 0) +
                       "|oracle=" + std::to_string(p.oracle ? 1 : 0);
    campaign::appendWatchdogSpec(spec, opts);
    return spec;
}

uint64_t
fuzzCellCount(const FuzzParams &p)
{
    uint64_t per_program = 0;
    for (size_t i = 0; i < fuzzCaseCount(); ++i)
        per_program += caseRuns(kCases[i], p.faults) ? 1 : 0;
    return p.iterations * per_program;
}

std::string
fuzzFailureText(const FuzzOutcome &out, uint64_t seed, uint64_t case_idx,
                bool faults_mode, bool oracle_mode)
{
    const FuzzCase &c = kCases[case_idx - 1];
    char buf[256];
    std::snprintf(buf, sizeof(buf), "\nFAILURE: seed %llu on %s/%s at %g F: ",
                  static_cast<unsigned long long>(seed),
                  archKindName(c.arch), policyKindName(c.policy),
                  c.farads);
    std::string text = buf;
    if (oracle_mode) {
        text += out.checkText;
    } else {
        text += out.run.completed ? "final state diverged\n"
                                  : "did not complete\n";
        if (out.haveFaults) {
            std::snprintf(buf, sizeof(buf),
                          "faults: crashAtPersist=%llu crashAtCycle=%llu "
                          "transientBitErrorRate=%g\n",
                          static_cast<unsigned long long>(
                              out.faults.crashAtPersist),
                          static_cast<unsigned long long>(
                              out.faults.crashAtCycle),
                          out.faults.transientBitErrorRate);
            text += buf;
        }
    }
    std::snprintf(buf, sizeof(buf),
                  "repro: nvmr_fuzz%s%s --one %llu %llu   # %s/%s at "
                  "%g F%s\n",
                  faults_mode ? " --faults" : "",
                  oracle_mode ? " --oracle" : "",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(case_idx),
                  archKindName(c.arch), policyKindName(c.policy),
                  c.farads, c.byteLbf ? " (byte LBF)" : "");
    return text + buf;
}

FuzzSummary
runFuzz(campaign::Campaign &cam, const FuzzParams &p, const LineSink &emit,
        ManifestWriter *manifest, par::Progress *progress)
{
    struct Pair
    {
        uint64_t seed;
        uint64_t caseIdx; ///< 1-based index into kCases
        size_t prog;      ///< index into the stage's program vector
    };
    constexpr uint64_t kChunkProgs = 10;
    FuzzSummary s;
    char line[128];
    for (uint64_t i = 0;
         i < p.iterations && !cam.interrupted() && !cam.cancelled();
         i += kChunkProgs) {
        uint64_t chunk = std::min(kChunkProgs, p.iterations - i);
        std::string stage = "c" + std::to_string(i);
        std::vector<Pair> pairs;
        for (uint64_t k = 0; k < chunk; ++k)
            for (uint64_t ci = 1; ci <= fuzzCaseCount(); ++ci)
                if (caseRuns(kCases[ci - 1], p.faults))
                    pairs.push_back(Pair{p.baseSeed + i + k, ci, k});
        bool any_fresh = false;
        for (size_t k = 0; k < pairs.size() && !any_fresh; ++k)
            any_fresh = !cam.cellDone(stage, k);
        // A resume skips fully-checked stages without even generating
        // their programs. Assembly stays on the calling thread:
        // workers must not race the assembler caches.
        std::vector<std::string> texts(chunk);
        std::vector<Program> progs(chunk);
        if (any_fresh) {
            for (uint64_t k = 0; k < chunk; ++k) {
                uint64_t seed = p.baseSeed + i + k;
                texts[k] = makeRandomProgram(seed);
                progs[k] = assemble("fuzz" + std::to_string(seed), texts[k]);
            }
        }
        // Failure detail rides in this side table; the journal only
        // carries an "ok" marker.
        std::vector<FuzzOutcome> outs(pairs.size());
        auto results = cam.runStage(
            stage, pairs.size(),
            [&](const campaign::CellContext &ctx)
                -> std::optional<std::string> {
                const Pair &pr = pairs[ctx.index];
                FaultConfig fc;
                if (p.faults)
                    fc = randomFuzzFaults(pr.seed, pr.caseIdx);
                FuzzOutcome out = evalFuzzCase(
                    progs[pr.prog], texts[pr.prog], pr.seed,
                    kCases[pr.caseIdx - 1], p.faults ? &fc : nullptr,
                    p.oracle, ctx.budgetCycles, ctx.cancel);
                if (cam.cancelled())
                    throw campaign::CellCancelled{};
                if (ctx.budgetCycles && !out.ok && !out.skipped &&
                    !out.run.completed)
                    throw campaign::CellTimeout{
                        "seed " + std::to_string(pr.seed) + " case " +
                        std::to_string(pr.caseIdx) + " exceeded " +
                        std::to_string(ctx.budgetCycles) + " cycles"};
                if (!out.ok) {
                    outs[ctx.index] = std::move(out);
                    return std::nullopt;
                }
                return std::string("ok");
            },
            progress);
        for (size_t k = 0; k < pairs.size(); ++k) {
            campaign::CellStatus st = results[k].status;
            if (st == campaign::CellStatus::Skipped ||
                st == campaign::CellStatus::Quarantined)
                continue; // interrupt, or listed in the manifest
            if (st == campaign::CellStatus::Failed) {
                s.diverged = true;
                s.failure = std::move(outs[k]);
                s.verdict = "divergence";
                if (manifest)
                    manifest->addRun(s.failure.run);
                emit(fuzzFailureText(s.failure, pairs[k].seed,
                                     pairs[k].caseIdx, p.faults,
                                     p.oracle));
                return s;
            }
            ++s.runs;
        }
        uint64_t done = i + chunk;
        if (done % 10 == 0 && !cam.interrupted()) {
            std::snprintf(line, sizeof(line),
                          "%llu programs, %llu runs, all consistent\n",
                          static_cast<unsigned long long>(done),
                          static_cast<unsigned long long>(s.runs));
            emit(line);
        }
    }

    if (progress)
        progress->finish();
    if (cam.interrupted() || cam.cancelled()) {
        std::snprintf(line, sizeof(line),
                      "interrupted: %llu clean runs checkpointed\n",
                      static_cast<unsigned long long>(s.runs));
        s.verdict = "interrupted";
    } else {
        std::snprintf(line, sizeof(line),
                      "fuzzing done: %llu runs, no divergence\n",
                      static_cast<unsigned long long>(s.runs));
        s.verdict =
            cam.quarantined().empty() ? "no divergence" : "quarantined";
    }
    emit(line);
    return s;
}

void
addFuzzExtras(ManifestWriter &manifest, const FuzzParams &p,
              const FuzzSummary &s, const campaign::Campaign &cam)
{
    manifest.addExtra("iterations", static_cast<double>(p.iterations));
    manifest.addExtra("base_seed", static_cast<double>(p.baseSeed));
    manifest.addExtra("faults_mode", p.faults ? 1.0 : 0.0);
    manifest.addExtra("oracle_mode", p.oracle ? 1.0 : 0.0);
    manifest.addExtra("runs", static_cast<double>(s.runs));
    manifest.addExtra("result", s.verdict);
    manifest.addExtraJson("quarantine", cam.quarantineJson());
}

} // namespace nvmr
