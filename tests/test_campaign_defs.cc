/**
 * @file
 * Tests for the shared campaign definitions (campaign/sweep.hh,
 * check/fuzzcases.hh) that nvmr_sweep, nvmr_fuzz and nvmr_serve's
 * sweep/fuzz jobs all run: the config-spec strings are pinned
 * literally (their hash keys every journal, so a changed byte would
 * refuse every existing `--resume`), the grid rules reject what they
 * must, and a fuzz job's advertised cell count is the number of cells
 * its campaign really runs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "campaign/campaign.hh"
#include "campaign/sweep.hh"
#include "check/fuzzcases.hh"
#include "common/log.hh"
#include "serve/job.hh"

namespace nvmr
{
namespace
{

TEST(CampaignDefs, SweepConfigSpecIsPinned)
{
    campaign::SweepParams p;
    ASSERT_EQ(campaign::validateSweep(p), "");
    EXPECT_EQ(campaign::sweepConfigSpec(p, campaign::Options{}),
              "sweep|traces=5|archs=clank,nvmr,hoop|policies=jit,"
              "watchdog|caps=0.10000000000000001|workloads=adpcm_encode,"
              "basicmath,blowfish,dijkstra,picojpeg,qsort,stringsearch,"
              "2dconv,dwt,hist|watchdog_cycles=0|watchdog_retries=2");
    EXPECT_EQ(campaign::sweepCellCount(p), 60u);

    campaign::SweepParams q;
    q.workloads = {"hist", "qsort"};
    q.archs = {"nvmr", "task"};
    q.policies = {"none", "jit"};
    q.caps = {0.1, 0.005};
    q.traces = 3;
    ASSERT_EQ(campaign::validateSweep(q), "");
    campaign::Options watchdog;
    watchdog.watchdogCycles = 100000000;
    watchdog.watchdogRetries = 1;
    EXPECT_EQ(campaign::sweepConfigSpec(q, watchdog),
              "sweep|traces=3|archs=nvmr,task|policies=none,jit|caps="
              "0.10000000000000001,0.0050000000000000001|workloads=hist,"
              "qsort|watchdog_cycles=100000000|watchdog_retries=1");
    EXPECT_EQ(campaign::sweepCellCount(q), 16u);
    EXPECT_EQ(campaign::sweepCellLabel(q, 0), "hist/nvmr/none");
    EXPECT_EQ(campaign::sweepCellLabel(q, 7), "hist/task/jit");
    EXPECT_EQ(campaign::sweepCellLabel(q, 10), "qsort/nvmr/jit");
}

TEST(CampaignDefs, FuzzConfigSpecIsPinned)
{
    FuzzParams p;
    ASSERT_EQ(validateFuzz(p), "");
    EXPECT_EQ(fuzzConfigSpec(p, campaign::Options{}),
              "fuzz|iterations=100|base_seed=1|faults=0|oracle=0|"
              "watchdog_cycles=0|watchdog_retries=2");

    FuzzParams q;
    q.iterations = 7;
    q.baseSeed = 42;
    q.faults = true;
    q.oracle = true;
    campaign::Options watchdog;
    watchdog.watchdogCycles = 50000000;
    watchdog.watchdogRetries = 3;
    EXPECT_EQ(fuzzConfigSpec(q, watchdog),
              "fuzz|iterations=7|base_seed=42|faults=1|oracle=1|"
              "watchdog_cycles=50000000|watchdog_retries=3");
}

TEST(CampaignDefs, JobSpecUsesTheSharedConfigSpec)
{
    serve::JobSpec spec;
    std::string error;
    ASSERT_TRUE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v1\",\"type\":\"sweep\","
        "\"workloads\":[\"hist\",\"qsort\"],\"archs\":[\"nvmr\","
        "\"task\"],\"policies\":[\"none\",\"jit\"],\"caps\":[0.1,"
        "0.005],\"traces\":3,\"watchdog_cycles\":100000000,"
        "\"watchdog_retries\":1}",
        "j", spec, error))
        << error;
    EXPECT_EQ(spec.configSpec(),
              "sweep|traces=3|archs=nvmr,task|policies=none,jit|caps="
              "0.10000000000000001,0.0050000000000000001|workloads=hist,"
              "qsort|watchdog_cycles=100000000|watchdog_retries=1");
}

TEST(CampaignDefs, ValidateSweepRejectsBadGrids)
{
    auto problem = [](void (*edit)(campaign::SweepParams &)) {
        campaign::SweepParams p;
        edit(p);
        return campaign::validateSweep(p);
    };
    EXPECT_NE(problem([](auto &p) { p.traces = 0; }), "");
    EXPECT_NE(problem([](auto &p) { p.traces = 11; }), "");
    EXPECT_EQ(problem([](auto &p) { p.traces = 10; }), "");
    EXPECT_NE(problem([](auto &p) { p.archs.clear(); }), "");
    EXPECT_NE(problem([](auto &p) { p.policies.clear(); }), "");
    EXPECT_NE(problem([](auto &p) { p.caps.clear(); }), "");
    EXPECT_NE(problem([](auto &p) { p.caps = {0.0}; }), "");
    EXPECT_NE(problem([](auto &p) { p.caps = {-0.1}; }), "");
    EXPECT_NE(problem([](auto &p) { p.caps = {std::nan("")}; }), "");
    EXPECT_NE(problem([](auto &p) {
                  p.caps = {std::numeric_limits<double>::infinity()};
              }),
              "");
    EXPECT_NE(problem([](auto &p) { p.archs = {"nvmrr"}; }), "");
    EXPECT_NE(problem([](auto &p) { p.policies = {"spendthrift"}; }),
              "");
    EXPECT_NE(problem([](auto &p) { p.workloads = {"nope"}; }), "");
    // The hidden non-terminating workload stays runnable: it is how
    // the watchdog and deadline paths are exercised.
    EXPECT_EQ(problem([](auto &p) { p.workloads = {"spin"}; }), "");
}

TEST(CampaignDefs, ValidateFuzzBoundsIterations)
{
    FuzzParams p;
    p.iterations = 0;
    EXPECT_NE(validateFuzz(p), "");
    p.iterations = kMaxFuzzIterations;
    EXPECT_EQ(validateFuzz(p), "");
    p.iterations = kMaxFuzzIterations + 1;
    EXPECT_NE(validateFuzz(p), "");
}

/** Run a one-program fuzz job's campaign and count its clean cells. */
uint64_t
cellsRun(const serve::JobSpec &spec)
{
    campaign::Campaign cam("nvmr_test", spec.configSpec(),
                           campaign::Options{});
    std::string log;
    FuzzSummary s = runFuzz(
        cam, spec.fuzz, [&](const std::string &l) { log += l; },
        nullptr);
    EXPECT_FALSE(s.diverged) << log;
    EXPECT_EQ(s.verdict, "no divergence");
    return s.runs;
}

TEST(CampaignDefs, FuzzJobCellCountMatchesTheCellsRun)
{
    setQuiet(true);
    serve::JobSpec faults;
    std::string error;
    ASSERT_TRUE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v1\",\"type\":\"fuzz\","
        "\"iterations\":1,\"base_seed\":3,\"faults\":true}",
        "f", faults, error))
        << error;
    // Faults mode skips the ideal case: 11 cells per program, not 12.
    EXPECT_EQ(faults.cellCount(), fuzzCaseCount() - 1);
    EXPECT_EQ(cellsRun(faults), faults.cellCount());

    serve::JobSpec plain;
    ASSERT_TRUE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v1\",\"type\":\"fuzz\","
        "\"iterations\":1,\"base_seed\":3}",
        "p", plain, error))
        << error;
    EXPECT_EQ(plain.cellCount(), fuzzCaseCount());
    EXPECT_EQ(cellsRun(plain), plain.cellCount());
}

} // namespace
} // namespace nvmr
