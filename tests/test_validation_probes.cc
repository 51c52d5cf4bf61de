/**
 * @file
 * The validation probes (DataCache::peek, MapTableCache::peek) search
 * one set; the validation path used to walk every cache line and every
 * map-table-cache entry. This test checks that the two agree: every
 * workload on Clank, NvMR and HOOP under JIT, probed at every Nth safe
 * point and at the end of the run, plus crash-at-persist replays so
 * the probes are also checked after a power failure and a restore.
 * At each check, for every application data word, the probes must
 * find exactly the line/entry the exhaustive scans find, and the
 * architecture's inspectWord must equal a reference value computed
 * here from those scans. No valid block or tag may be resident twice.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "arch/hoop.hh"
#include "core/nvmr_arch.hh"
#include "power/policy.hh"
#include "sim/simulator.hh"
#include "snapshot/snapshot.hh"
#include "workloads/workloads.hh"

using namespace nvmr;

namespace
{

/** The line holding a block, by walking every line (the old scan). */
const CacheLine *
scanCache(const DataCache &cache, Addr block)
{
    const CacheLine *found = nullptr;
    cache.forEachLine([&](const CacheLine &line) {
        if (line.valid && line.blockAddr == block)
            found = &line;
    });
    return found;
}

/** The entry for a tag, by walking every entry (the old scan). */
const MtcEntry *
scanMtc(const MapTableCache &mtc, Addr tag)
{
    const MtcEntry *found = nullptr;
    mtc.forEach([&](const MtcEntry &e) {
        if (e.valid && e.tag == tag)
            found = &e;
    });
    return found;
}

/** Check every data word of the program against the scans. */
void
checkProbes(Simulator &sim, const Program &prog, const std::string &what)
{
    const IntermittentArch &arch = sim.archRef();
    const DataCache &cache = arch.dataCache();
    const auto *nvmr = dynamic_cast<const NvmrArch *>(&arch);
    const bool hoop = dynamic_cast<const HoopArch *>(&arch) != nullptr;

    std::set<Addr> blocks;
    cache.forEachLine([&](const CacheLine &line) {
        EXPECT_TRUE(!line.valid || blocks.insert(line.blockAddr).second)
            << what << ": block " << line.blockAddr << " cached twice";
    });
    if (nvmr) {
        std::set<Addr> tags;
        nvmr->mtCacheRef().forEach([&](const MtcEntry &e) {
            EXPECT_TRUE(!e.valid || tags.insert(e.tag).second)
                << what << ": map-table-cache tag " << e.tag
                << " valid twice";
        });
    }

    const Addr block_bytes = cache.config().blockBytes;
    for (Addr addr = 0; addr + kWordBytes <= prog.data.size();
         addr += kWordBytes) {
        Addr block = addr & ~(block_bytes - 1);
        const CacheLine *line = scanCache(cache, block);
        ASSERT_EQ(cache.peek(block), line) << what << ": block " << block;

        Word expect;
        if (line) {
            expect = line->data[(addr - block) / kWordBytes];
        } else if (nvmr) {
            const MtcEntry *e = scanMtc(nvmr->mtCacheRef(), block);
            ASSERT_EQ(nvmr->mtCacheRef().peek(block), e)
                << what << ": tag " << block;
            Addr mapped = block;
            if (e)
                mapped = e->newMap;
            else if (auto m = nvmr->mapTableRef().peek(block))
                mapped = *m;
            expect = sim.nvmRef().inspectWord(mapped + (addr - block));
        } else if (hoop) {
            // HOOP's uncached path (OOP buffer, committed log, NVM) is
            // unchanged code behind the cache search checked above.
            continue;
        } else {
            expect = sim.nvmRef().inspectWord(addr);
        }
        ASSERT_EQ(arch.inspectWord(addr), expect)
            << what << ": word " << addr;
    }
}

/** Checks at every Nth safe point. */
class ProbeSink : public SnapshotSink
{
  public:
    ProbeSink(const Program &prog_, std::string what_, uint64_t stride_)
        : prog(prog_), what(std::move(what_)), stride(stride_)
    {}

    void
    onSnapshotPoint(Simulator &sim) override
    {
        if (seen++ % stride == 0) {
            checkProbes(sim, prog, what + " @" + std::to_string(seen));
            ++checks;
        }
    }

    uint64_t checks = 0;

  private:
    const Program &prog;
    std::string what;
    uint64_t stride;
    uint64_t seen = 0;
};

/** Run one program, probing at safe points and at the end. */
RunResult
probeRun(const Program &prog, ArchKind kind, RunOptions opts,
         const std::string &what)
{
    SystemConfig cfg;
    JitPolicy jit;
    HarvestTrace trace(TraceKind::Rf, 7, 8.0);
    ProbeSink sink(prog, what, /*stride=*/4);
    opts.snapshots = &sink;
    Simulator sim(prog, kind, cfg, jit, trace, opts);
    RunResult r = sim.run();
    EXPECT_TRUE(r.completed) << what;
    EXPECT_GT(sink.checks, 0u) << what << ": no safe point probed";
    checkProbes(sim, prog, what + " @end");
    return r;
}

const ArchKind kArchs[] = {ArchKind::Clank, ArchKind::Nvmr,
                           ArchKind::Hoop};

} // namespace

TEST(ValidationProbes, AgreeWithFullScansOnEveryWorkload)
{
    for (const WorkloadInfo &w : allWorkloads()) {
        Program prog = assembleWorkload(w.name);
        for (ArchKind kind : kArchs)
            probeRun(prog, kind, RunOptions{},
                     w.name + "/" + archKindName(kind));
    }
}

TEST(ValidationProbes, AgreeAfterCrashAndRestore)
{
    // Persist 3 tears NvMR's first backup (recovery restarts from
    // reset) but lands after Clank's and HOOP's first commit; persist
    // 60 lands after a committed backup on all three, so each one
    // restores before the later probes.
    Program prog = assembleWorkload("hist");
    for (uint64_t persist : {3u, 60u}) {
        for (ArchKind kind : kArchs) {
            RunOptions opts;
            opts.faults.enabled = true;
            opts.faults.crashAtPersist = persist;
            std::string what = "crash-at-persist-" +
                               std::to_string(persist) + "/" +
                               archKindName(kind);
            RunResult r = probeRun(prog, kind, opts, what);
            EXPECT_EQ(r.injectedCrashes, 1u) << what;
            EXPECT_GE(r.powerFailures, 1u) << what;
            EXPECT_TRUE(persist == 3 || r.restores >= 1) << what;
        }
    }
}
