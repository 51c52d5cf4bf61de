/**
 * @file
 * Engine-equivalence test (docs/performance.md, "The execution
 * core"). Every case of the equivalence matrix (tests/equiv_matrix.hh:
 * every workload on an RF trace, hist on a solar trace and 200 seeded
 * random programs, on all six architectures, under JIT, watchdog,
 * none and a Generic-path policy, each with and without a crash
 * replay) runs twice: in fast mode, and in reference mode, forced by
 * wrapping the policy in a forwarder whose fastPath() stays Generic.
 * Both digests -- final NVM image, registers, every RunResult
 * statistic (energy doubles bit for bit) and the full event stream --
 * must equal the committed table, which pins what the retired
 * Cpu::step() interpreter produced. Only a deliberate change of
 * simulated behaviour may replace that table, and the change must say
 * why.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "equiv_matrix.hh"
#include "par/par.hh"

using namespace nvmr;
using namespace nvmr::equiv;

namespace
{

/** The committed table as (case id, digest) pairs, in file order. */
std::vector<std::pair<std::string, uint64_t>>
loadTable()
{
    std::vector<std::pair<std::string, uint64_t>> rows;
    std::ifstream in(NVMR_EQUIV_TABLE);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string id, hex;
        ls >> id >> hex;
        rows.emplace_back(id, std::stoull(hex, nullptr, 16));
    }
    return rows;
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct ModeDigests
{
    RunDigest fast;
    RunDigest reference;
};

} // namespace

TEST(EngineEquiv, BothModesReproduceThePinnedTable)
{
    const auto table = loadTable();
    const std::vector<MatrixProgram> progs = matrixPrograms();
    const std::vector<MatrixCase> cases = matrixCases(progs);

    // The matrix may not drift from the table: same cases, same order.
    ASSERT_EQ(table.size(), cases.size())
        << "cannot read " << NVMR_EQUIV_TABLE
        << " or the matrix changed shape";
    for (size_t i = 0; i < cases.size(); ++i)
        ASSERT_EQ(table[i].first, cases[i].id) << "table row " << i;

    const unsigned jobs = std::min(4u, par::hardwareJobs());
    const std::vector<ModeDigests> runs = par::parallelMap<ModeDigests>(
        cases.size(),
        [&](size_t i) {
            ModeDigests m;
            m.fast = runCase(cases[i], false);
            // A Generic policy runs in reference mode already.
            const bool generic = makeMatrixPolicy(cases[i].policy)
                                     ->fastPath()
                                     .mode ==
                                 PolicyFastPath::Mode::Generic;
            m.reference = generic ? m.fast : runCase(cases[i], true);
            return m;
        },
        jobs);

    size_t reported = 0;
    for (size_t i = 0; i < cases.size() && reported < 20; ++i) {
        const uint64_t want = table[i].second;
        const uint64_t fast = runs[i].fast.digest;
        const uint64_t ref = runs[i].reference.digest;
        if (fast == want && ref == want)
            continue;
        ++reported;
        ADD_FAILURE() << cases[i].id << ": table " << hex(want)
                      << ", fast " << hex(fast) << ", reference "
                      << hex(ref);
    }

    // The matrix must exercise what it claims to: every workload
    // completes and validates under JIT, and on the task scheme under
    // no policy at all (its boundaries are the only backups), and
    // every armed crash replay of the hist workload fires exactly once.
    for (size_t i = 0; i < cases.size(); ++i) {
        const MatrixCase &c = cases[i];
        const RunResult &r = runs[i].fast.result;
        const bool wl = c.id.rfind("wl/", 0) == 0;
        if (wl && !c.opts.faults.enabled &&
            (c.policy == "jit" ||
             (c.policy == "none" && c.arch == ArchKind::Task))) {
            EXPECT_TRUE(r.completed && r.validated) << c.id;
        }
        if (c.id.rfind("wl/hist/", 0) == 0 && c.policy == "jit" &&
            c.opts.faults.enabled && c.arch != ArchKind::Ideal) {
            EXPECT_EQ(r.injectedCrashes, 1u) << c.id;
        }
    }
}

TEST(EngineEquiv, ReferenceModePollsThePolicyEveryInstruction)
{
    // Fast mode inlines JIT's threshold and never calls shouldBackup();
    // the forwarding wrapper must turn every retired instruction
    // (except HALT, which backs up unconditionally) into one poll.
    class Counting : public JitPolicy
    {
      public:
        bool
        shouldBackup(const PolicyContext &ctx) override
        {
            ++calls;
            return JitPolicy::shouldBackup(ctx);
        }
        uint64_t calls = 0;
    };

    Program prog = assembleWorkload("hist");
    HarvestTrace trace(TraceKind::Rf, 7, 8.0);
    RunOptions opts;
    opts.validate = false;

    Counting fast;
    RunDigest f = digestRun(prog, ArchKind::Nvmr, fast, trace, opts);
    EXPECT_EQ(fast.calls, 0u);

    Counting inner;
    ReferencePolicy ref(inner);
    RunDigest r = digestRun(prog, ArchKind::Nvmr, ref, trace, opts);
    EXPECT_EQ(f.digest, r.digest);
    ASSERT_TRUE(r.result.completed);
    EXPECT_GE(inner.calls, r.result.instructions / 2);
    EXPECT_LE(inner.calls, r.result.instructions);
}
