/**
 * @file
 * Simulator-throughput record: simulated-instructions/sec on one
 * worker for both modes of the execution core -- reference mode (the
 * JIT policy behind a forwarder whose fastPath() stays Generic: a
 * virtual policy poll per instruction, no fusion) and fast mode --
 * plus cells/sec for a fixed campaign grid, exported as
 * BENCH_sim_throughput.json through the BenchRecorder. This is the
 * trajectory the execution core, the parallel engine and the
 * hot-path work are regressed against (docs/performance.md).
 *
 * The parallel pass (and its speedup metric) only runs when the host
 * actually has more than one core AND more than one worker is in
 * play; on a single-core host a "parallel speedup" of ~1.0x is noise
 * dressed up as data, so the metrics are omitted and the record says
 * why.
 *
 *     bench_sim_throughput                 # writes BENCH_sim_throughput.json
 *     bench_sim_throughput --jobs 8
 *     bench_sim_throughput --stats-json out.json
 */

#include <chrono>

#include "bench_common.hh"
#include "equiv_matrix.hh"
#include "par/par.hh"

using namespace nvmr;

namespace
{

struct Cell
{
    const Program *prog;
    ArchKind arch;
    const HarvestTrace *trace;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    using namespace std::chrono;
    return duration_cast<duration<double>>(steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    applyJobsFlag(argc, argv);
    BenchRecorder rec("sim_throughput", argc, argv,
                      "BENCH_sim_throughput.json");
    unsigned jobs = par::defaultJobs();
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--jobs") == 0)
            jobs = par::parseJobsValue(argv[i + 1]);

    SystemConfig cfg;
    PolicySpec jit;
    auto traces = HarvestTrace::standardSet(4);
    const std::vector<std::string> names = {"hist", "qsort",
                                            "dijkstra"};
    const std::vector<ArchKind> archs = {
        ArchKind::Clank, ArchKind::Nvmr, ArchKind::Hoop};

    std::vector<Program> progs;
    for (const std::string &name : names)
        progs.push_back(assembleWorkload(name));

    std::vector<Cell> cells;
    for (const Program &prog : progs)
        for (ArchKind arch : archs)
            for (const HarvestTrace &trace : traces)
                cells.push_back({&prog, arch, &trace});

    auto runPass = [&](unsigned pass_jobs, bool reference,
                       std::vector<uint64_t> &instret) {
        instret.assign(cells.size(), 0);
        auto t0 = std::chrono::steady_clock::now();
        par::parallelFor(
            cells.size(),
            [&](size_t i) {
                const Cell &cell = cells[i];
                auto pol = makePolicy(jit);
                equiv::ReferencePolicy ref(*pol);
                BackupPolicy &policy =
                    reference ? static_cast<BackupPolicy &>(ref) : *pol;
                RunOptions opts;
                opts.validate = false;
                Simulator sim(*cell.prog, cell.arch, cfg, policy,
                              *cell.trace, opts);
                RunResult r = sim.run();
                fatal_if(!r.completed, "throughput cell ", i,
                         " did not complete");
                instret[i] = r.instructions;
            },
            pass_jobs);
        return secondsSince(t0);
    };

    // One serial timed pass per mode, after an untimed warm pass
    // (caches, allocators, the shared decoded-op images).
    std::vector<uint64_t> warm, reference, fast;
    runPass(1, false, warm);
    double reference_s = runPass(1, true, reference);
    double fast_s = runPass(1, false, fast);
    fatal_if(reference != fast,
             "fast-mode pass diverged from the reference-mode pass");

    double instructions = 0;
    for (uint64_t n : reference)
        instructions += static_cast<double>(n);
    double n_cells = static_cast<double>(cells.size());
    double reference_ips = instructions / reference_s;
    double fast_ips = instructions / fast_s;
    double serial_cps = n_cells / fast_s;

    rec.add("jobs", static_cast<double>(jobs));
    rec.add("host_hw_concurrency",
            static_cast<double>(par::hardwareJobs()));
    rec.add("cells", n_cells);
    rec.add("simulated_instructions", instructions);
    rec.add("reference_instructions_per_sec", reference_ips,
            "instr/s");
    rec.add("fast_instructions_per_sec", fast_ips, "instr/s");
    rec.add("fast_mode_speedup", fast_ips / reference_ips, "x");
    // The headline single-thread trajectory metric follows fast mode,
    // the mode every JIT/watchdog run takes; the per-mode metrics
    // above keep both visible.
    rec.add("single_thread_instructions_per_sec", fast_ips,
            "instr/s");
    rec.add("single_thread_cells_per_sec", serial_cps, "cells/s");

    // Parallel pass: only meaningful with >1 worker on >1 core.
    bool parallel_meaningful = jobs > 1 && par::hardwareJobs() > 1;
    double par_cps = 0;
    if (parallel_meaningful) {
        std::vector<uint64_t> parallel;
        double parallel_s = runPass(jobs, false, parallel);
        fatal_if(fast != parallel,
                 "parallel pass diverged from the serial pass");
        par_cps = n_cells / parallel_s;
        rec.add("parallel_cells_per_sec", par_cps, "cells/s");
        rec.add("parallel_speedup", par_cps / serial_cps, "x");
    } else {
        rec.add("parallel_pass_skipped", 1);
    }
    rec.write();

    std::printf("sim throughput: %.0f instr/s reference mode, "
                "%.0f instr/s fast mode (%.2fx), "
                "%.2f cells/s serial, %zu cells, host has %u cores\n",
                reference_ips, fast_ips, fast_ips / reference_ips,
                serial_cps, cells.size(), par::hardwareJobs());
    if (parallel_meaningful)
        std::printf("parallel: %.2f cells/s at --jobs %u (%.2fx)\n",
                    par_cps, jobs, par_cps / serial_cps);
    else
        std::printf("parallel pass skipped (jobs=%u, %u core(s)): "
                    "speedup would be meaningless\n",
                    jobs, par::hardwareJobs());
    return 0;
}
