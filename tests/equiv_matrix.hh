/**
 * @file
 * The execution-core equivalence matrix and its run digest
 * (docs/performance.md, "The execution core").
 *
 * Every case runs one program on one architecture under one backup
 * policy and one crash schedule. A run's digest is a 64-bit hash
 * over everything it produced: every RunResult field (energy
 * doubles by bit pattern), the CPU's registers, PC and halt flag, the
 * full final NVM image, and the complete traced event stream. The
 * committed table tests/data/engine_equiv_digests.txt pins these
 * digests as the retired reference interpreter produced them; the
 * engine-equivalence test checks the simulator against it.
 */

#ifndef NVMR_TESTS_EQUIV_MATRIX_HH
#define NVMR_TESTS_EQUIV_MATRIX_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "obs/trace.hh"
#include "power/policy.hh"
#include "sim/randprog.hh"
#include "sim/simulator.hh"
#include "snapshot/snapshot.hh"
#include "workloads/workloads.hh"

namespace nvmr::equiv
{

/** Streaming 64-bit hash: FNV-1a's multiply applied to one 64-bit
 *  word per step (the NVM image alone is half a million words). */
class Digest
{
  public:
    void
    u64(uint64_t v)
    {
        h ^= v;
        h *= 0x100000001b3ull;
        h ^= h >> 29;
    }

    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const uint8_t *>(p);
        for (size_t i = 0; i < n; ++i)
            u64(b[i]);
    }

    void
    f64(double d)
    {
        uint64_t u;
        std::memcpy(&u, &d, sizeof(u));
        u64(u);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ull;
};

/** Folds every traced event into a digest as it is recorded (no
 *  ring buffer, so nothing is ever dropped). */
class DigestSink : public TraceSink
{
  public:
    Digest d;
    uint64_t events = 0;

    void
    consume(const TraceEvent &ev) override
    {
        d.u64(ev.cycle);
        d.u64(ev.active);
        d.u64(static_cast<uint64_t>(ev.kind));
        d.u64(ev.a0);
        d.u64(ev.a1);
        ++events;
    }
};

inline void
digestResult(Digest &d, const RunResult &r)
{
    d.str(r.program);
    d.str(r.arch);
    d.str(r.policy);
    d.str(r.trace);
    d.u64(r.completed);
    d.u64(r.validated);
    d.u64(r.validationChecked);
    d.u64(r.activeCycles);
    d.u64(r.totalCycles);
    d.u64(r.instructions);
    for (double e : r.energy)
        d.f64(e);
    d.f64(r.totalEnergyNj);
    d.u64(r.backups);
    for (uint64_t n : r.backupsByReason)
        d.u64(n);
    for (uint64_t v :
         {r.violations, r.renames, r.reclaims, r.restores,
          r.powerFailures, r.nvmReads, r.nvmWrites, r.maxWear,
          r.cacheHits, r.cacheMisses, r.tornBackups, r.injectedCrashes,
          r.eccCorrected, r.eccUncorrectable})
        d.u64(v);
}

/** What one digested run produced (the result is kept so tests can
 *  make extra assertions, e.g. that an armed crash fired). */
struct RunDigest
{
    RunResult result;
    uint64_t digest = 0;
};

/** Run one case and digest everything it produced. */
inline RunDigest
digestRun(const Program &prog, ArchKind arch, BackupPolicy &policy,
          const HarvestTrace &trace, const RunOptions &opts)
{
    policy.reset();
    // The architecture keeps a reference to the config, so it must
    // outlive the inspection below.
    SystemConfig cfg;
    Simulator sim(prog, arch, cfg, policy, trace, opts);
    DigestSink events;
    sim.attachTrace(&events);

    RunDigest out;
    out.result = sim.run();
    Digest d;
    digestResult(d, out.result);
    for (unsigned r = 0; r < kNumRegs; ++r)
        d.u64(sim.cpuRef().reg(r));
    d.u64(sim.cpuRef().pc());
    d.u64(sim.cpuRef().halted());
    // The final NVM image word by word, read straight from the page
    // table of an end-of-run snapshot (a bounds-checked peekWord() per
    // word would dominate the whole matrix). Most pages are all zero:
    // one memcmp settles that, and their words then hash without
    // being loaded one by one -- the same digest, several times faster
    // under the sanitizers, which instrument every load.
    static const CowStore::Page kZeroPage{};
    const MachineSnapshot snap = sim.captureSnapshot();
    const uint32_t size = sim.nvmRef().sizeBytes();
    for (Addr base = 0; base < size; base += CowStore::kPageBytes) {
        const uint8_t *page =
            snap.nvmPages[base / CowStore::kPageBytes]->data.data();
        const uint32_t bytes =
            std::min<uint32_t>(CowStore::kPageBytes, size - base);
        const bool zero =
            std::memcmp(page, kZeroPage.data.data(), bytes) == 0;
        for (const uint8_t *p = page; p < page + bytes; p += kWordBytes)
            d.u64(zero ? 0
                       : static_cast<Word>(p[0]) |
                             static_cast<Word>(p[1]) << 8 |
                             static_cast<Word>(p[2]) << 16 |
                             static_cast<Word>(p[3]) << 24);
    }
    d.u64(events.events);
    d.u64(events.d.value());
    out.digest = d.value();
    return out;
}

/**
 * A deliberately stateful policy: shouldBackup() counts its calls and
 * fires on internal state, so fastPath() stays Generic and the engine
 * polls it after every instruction with fusion off.
 */
class CountingPolicy : public BackupPolicy
{
  public:
    const char *name() const override { return "counting"; }

    bool
    shouldBackup(const PolicyContext &ctx) override
    {
        ++calls;
        return ctx.cyclesSinceBackup >= 6000 && calls % 3 == 0;
    }

    void reset() override { calls = 0; }

    uint64_t calls = 0;
};

/**
 * Forwards every decision to another policy but keeps the default
 * (Generic) fastPath(): running a simulation with it forces the
 * engine's reference mode -- a virtual maybePolicyBackup() after every
 * instruction and no superblock fusion -- while producing the wrapped
 * policy's exact decisions.
 */
class ReferencePolicy : public BackupPolicy
{
  public:
    explicit ReferencePolicy(BackupPolicy &inner_) : inner(inner_) {}

    const char *name() const override { return inner.name(); }

    bool
    shouldBackup(const PolicyContext &ctx) override
    {
        return inner.shouldBackup(ctx);
    }

    bool
    hibernateAfterBackup() const override
    {
        return inner.hibernateAfterBackup();
    }

    void reset() override { inner.reset(); }
    uint64_t saveState() const override { return inner.saveState(); }
    void restoreState(uint64_t s) override { inner.restoreState(s); }

  private:
    BackupPolicy &inner;
};

const std::vector<ArchKind> kAllArchs = {
    ArchKind::Ideal, ArchKind::Clank, ArchKind::ClankOriginal,
    ArchKind::Task,  ArchKind::Nvmr,  ArchKind::Hoop};

/** JIT and watchdog run the engine's threshold fast paths, none its
 *  policy-free fast path (backups come only from the architecture,
 *  e.g. the task scheme's boundaries), counting the Generic path. */
const std::vector<std::string> kPolicies = {"jit", "watchdog",
                                            "counting", "none"};

inline std::unique_ptr<BackupPolicy>
makeMatrixPolicy(const std::string &name)
{
    if (name == "jit")
        return std::make_unique<JitPolicy>();
    if (name == "watchdog")
        return std::make_unique<WatchdogPolicy>(8000);
    if (name == "none")
        return std::make_unique<NonePolicy>();
    return std::make_unique<CountingPolicy>();
}

/** The crash schedules every case is replayed under. */
struct CrashSchedule
{
    std::string name;
    FaultConfig faults;
};

inline std::vector<CrashSchedule>
crashSchedules()
{
    std::vector<CrashSchedule> out(3);
    out[0].name = "nocrash";
    out[1].name = "persist3";
    out[1].faults.enabled = true;
    out[1].faults.crashAtPersist = 3;
    out[2].name = "cycle120000";
    out[2].faults.enabled = true;
    out[2].faults.crashAtCycle = 120000;
    return out;
}

/** One program of the matrix with the harvest trace it runs on. */
struct MatrixProgram
{
    std::string id; ///< "wl/<name>", "solar/<name>" or "rp/<seed>"
    Program prog;
    HarvestTrace trace;
};

inline std::vector<MatrixProgram>
matrixPrograms()
{
    std::vector<MatrixProgram> out;
    for (const WorkloadInfo &w : allWorkloads())
        out.push_back({"wl/" + w.name, assembleWorkload(w.name),
                       HarvestTrace(TraceKind::Rf, 7, 8.0)});
    // One workload on the slowly varying solar trace: long on-periods
    // and cloud dips instead of the RF trace's frequent brown-outs.
    out.push_back({"solar/hist", assembleWorkload("hist"),
                   HarvestTrace(TraceKind::Solar, 11, 8.0)});
    // The fuzzer's program family and trace family: enough brown-outs
    // to exercise restore paths without starving the run.
    for (uint64_t seed = 1; seed <= 200; ++seed)
        out.push_back({"rp/" + std::to_string(seed),
                       assemble("rp" + std::to_string(seed),
                                makeRandomProgram(seed)),
                       HarvestTrace(TraceKind::Rf, 40000 + seed, 7.0)});
    return out;
}

/** One case of the matrix. */
struct MatrixCase
{
    std::string id; ///< "<program>/<arch>/<policy>/<crash schedule>"
    const MatrixProgram *mp = nullptr;
    ArchKind arch = ArchKind::Nvmr;
    std::string policy;
    RunOptions opts;
};

/** Every case, in table order. Runs validate against the golden
 *  model, so the verdict is part of every digest. */
inline std::vector<MatrixCase>
matrixCases(const std::vector<MatrixProgram> &progs)
{
    std::vector<MatrixCase> out;
    const std::vector<CrashSchedule> crashes = crashSchedules();
    for (const MatrixProgram &mp : progs)
        for (ArchKind arch : kAllArchs)
            for (const std::string &pol : kPolicies)
                for (const CrashSchedule &cs : crashes) {
                    MatrixCase c;
                    c.id = mp.id + "/" + archKindName(arch) + "/" + pol +
                           "/" + cs.name;
                    c.mp = &mp;
                    c.arch = arch;
                    c.policy = pol;
                    c.opts.faults = cs.faults;
                    // Without backups a few runs never finish (each
                    // power failure loses all progress). A 100M-cycle
                    // cap still spans dozens of failures, and every
                    // none run that does finish takes under 46M.
                    if (pol == "none")
                        c.opts.maxCycles = 100000000ull;
                    out.push_back(std::move(c));
                }
    return out;
}

/** Run one case; `reference` forces the engine's reference mode. */
inline RunDigest
runCase(const MatrixCase &c, bool reference)
{
    std::unique_ptr<BackupPolicy> policy = makeMatrixPolicy(c.policy);
    if (!reference)
        return digestRun(c.mp->prog, c.arch, *policy, c.mp->trace,
                         c.opts);
    ReferencePolicy ref(*policy);
    return digestRun(c.mp->prog, c.arch, ref, c.mp->trace, c.opts);
}

} // namespace nvmr::equiv

#endif // NVMR_TESTS_EQUIV_MATRIX_HH
