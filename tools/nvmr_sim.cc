/**
 * @file
 * Command-line simulator driver: run any workload on any
 * architecture / policy / capacitor combination and print a full
 * report, optionally tracing intermittence events as they happen.
 *
 *     nvmr_sim --list
 *     nvmr_sim -w hist -a nvmr -p jit
 *     nvmr_sim -w qsort -a clank -p watchdog --period 4000 \
 *              --cap 7.5e-3 --seed 42 --events
 *     nvmr_sim -w dijkstra -a nvmr --reclaim --map-table 512
 *     nvmr_sim -w hist -a nvmr --stats-json run.json \
 *              --trace-json trace.json
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "cli.hh"
#include "common/log.hh"
#include "obs/manifest.hh"
#include "obs/trace.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace nvmr;

namespace
{

void
usage()
{
    std::puts(
        "nvmr_sim: intermittent-computing simulator driver\n"
        "\n"
        "  --list                list the available workloads\n"
        "  -w, --workload NAME   workload to run (required)\n"
        "  -a, --arch NAME       ideal | clank | clank_original | task | nvmr | hoop "
        "(default nvmr)\n"
        "  -p, --policy NAME     jit | watchdog | spendthrift "
        "(default jit)\n"
        "  --model FILE          spendthrift model (see nvmr_train)\n"
        "  --period N            watchdog period in cycles "
        "(default 8000)\n"
        "  --cap F               capacitor label in farads "
        "(default 0.1)\n"
        "  --trace KIND          rf | solar | wind (default rf)\n"
        "  --seed N              trace seed (default 7)\n"
        "  --mean MW             trace mean power in mW (default 8)\n"
        "  --map-table N         NvMR map table entries "
        "(default 4096)\n"
        "  --mt-cache N          NvMR map table cache entries "
        "(default 512)\n"
        "  --reclaim             enable map-table reclamation\n"
        "  --strict-atomic       treat a brown-out inside an atomic\n"
        "                        backup as fatal (pre-fault-model "
        "behavior)\n"
        "  --crash-at-persist N  inject a power failure at the Nth\n"
        "                        NVM persist (1-based)\n"
        "  --crash-at-cycle N    inject a power failure at cycle N\n"
        "  --ber RATE            transient NVM bit-error rate per "
        "word read\n"
        "  --no-validate         skip the continuous-run comparison\n"
        "  --events              print intermittence events live\n"
        "  --events-verbose      print every traced event, not just\n"
        "                        the intermittence narrative\n"
        "  --stats-json FILE     write the run manifest (config,\n"
        "                        results, stat histograms) as JSON\n"
        "  --trace-json FILE     write a Chrome/Perfetto trace\n"
        "  --trace-bin FILE      write the compact binary trace\n"
        "  --metrics FILE        host heartbeat snapshots "
        "(docs/observability.md)\n"
        "  --prof-json FILE      Perfetto host-span trace\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    ArchKind arch = ArchKind::Nvmr;
    PolicyKind policy_kind = PolicyKind::Jit;
    TraceKind kind = TraceKind::Rf;
    std::string model_path;
    std::string stats_json_path;
    std::string trace_json_path;
    std::string trace_bin_path;
    Cycles period = 8000;
    double cap = 0.1;
    uint64_t seed = 7;
    double mean = 8.0;
    SystemConfig cfg;
    RunOptions opts;
    obs::TelemetryOptions topts;
    bool events = false;
    bool events_verbose = false;

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("missing value for ", argv[i]);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        if (cli::handleTelemetryArg(argc, argv, i, topts))
            continue;
        std::string a = argv[i];
        if (a == "--list") {
            for (const WorkloadInfo &w : allWorkloads())
                std::printf("%s\n", w.name.c_str());
            return 0;
        } else if (a == "-w" || a == "--workload") {
            workload = need(i);
        } else if (a == "-a" || a == "--arch") {
            arch = cli::parseArchKind(need(i));
        } else if (a == "-p" || a == "--policy") {
            policy_kind = cli::parsePolicyKind(need(i));
        } else if (a == "--period") {
            period = cli::parseU64(need(i), a);
        } else if (a == "--cap") {
            cap = cli::parseDouble(need(i), a);
        } else if (a == "--trace") {
            kind = cli::parseTraceKind(need(i));
        } else if (a == "--seed") {
            seed = cli::parseU64(need(i), a);
        } else if (a == "--mean") {
            mean = cli::parseDouble(need(i), a);
        } else if (a == "--map-table") {
            cfg.mapTableEntries = cli::parseU32(need(i), a);
        } else if (a == "--mt-cache") {
            cfg.mtCacheEntries = cli::parseU32(need(i), a);
        } else if (a == "--reclaim") {
            cfg.reclaimEnabled = true;
        } else if (a == "--strict-atomic") {
            cfg.strictAtomic = true;
        } else if (a == "--crash-at-persist") {
            opts.faults.enabled = true;
            opts.faults.crashAtPersist = cli::parseU64(need(i), a);
        } else if (a == "--crash-at-cycle") {
            opts.faults.enabled = true;
            opts.faults.crashAtCycle = cli::parseU64(need(i), a);
        } else if (a == "--ber") {
            opts.faults.enabled = true;
            opts.faults.transientBitErrorRate =
                cli::parseDouble(need(i), a);
        } else if (a == "--model") {
            model_path = need(i);
        } else if (a == "--no-validate") {
            opts.validate = false;
        } else if (a == "--events") {
            events = true;
        } else if (a == "--events-verbose") {
            events = true;
            events_verbose = true;
        } else if (a == "--stats-json") {
            stats_json_path = need(i);
        } else if (a == "--trace-json") {
            trace_json_path = need(i);
        } else if (a == "--trace-bin") {
            trace_bin_path = need(i);
        } else if (a == "-h" || a == "--help") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown argument '", a, "'");
        }
    }

    if (workload.empty()) {
        usage();
        fatal("--workload is required (try --list)");
    }

    cfg.capacitorFarads = cap;

    PolicySpec spec;
    SpendthriftModel model;
    spec.kind = policy_kind;
    if (policy_kind == PolicyKind::Watchdog) {
        spec.watchdogPeriod = period;
    } else if (policy_kind == PolicyKind::Spendthrift) {
        fatal_if(model_path.empty(),
                 "spendthrift needs --model FILE (train one with "
                 "nvmr_train)");
        model = SpendthriftModel::loadFromFile(model_path);
        spec.model = &model;
    }

    Program prog = assembleWorkload(workload);
    HarvestTrace trace(kind, seed, mean);
    auto policy = makePolicy(spec);

    // Host telemetry (no campaign layer here, so no interrupt hook).
    obs::Telemetry telemetry("nvmr_sim", topts, nullptr);

    Simulator sim(prog, arch, cfg, *policy, trace, opts);

    // Assemble the sink stack: --events is just a TextSink over the
    // same event stream the exporters buffer.
    TextSink text(stdout, events_verbose);
    TraceBuffer buffer;
    TeeSink tee;
    bool want_buffer =
        !trace_json_path.empty() || !trace_bin_path.empty();
    TraceSink *sink = nullptr;
    if (events && want_buffer) {
        tee.addSink(&text);
        tee.addSink(&buffer);
        sink = &tee;
    } else if (events) {
        sink = &text;
    } else if (want_buffer) {
        sink = &buffer;
    }
    if (sink)
        sim.attachTrace(sink);

    RunResult result = sim.run();
    std::fputs(formatRunReport(result).c_str(), stdout);

    if (!trace_json_path.empty()) {
        std::ofstream os(trace_json_path);
        fatal_if(!os, "cannot write ", trace_json_path);
        os << buffer.toChromeJson();
    }
    if (!trace_bin_path.empty()) {
        std::ofstream os(trace_bin_path, std::ios::binary);
        fatal_if(!os, "cannot write ", trace_bin_path);
        buffer.writeBinary(os);
    }
    if (!stats_json_path.empty()) {
        ManifestWriter manifest("nvmr_sim");
        manifest.setConfig(cfg);
        manifest.addRun(result);
        manifest.addStatGroup(workload + "/" +
                                  std::string(archKindName(arch)),
                              sim.archRef().statGroup());
        if (want_buffer)
            manifest.addExtra("trace_events_recorded",
                              static_cast<double>(
                                  buffer.totalRecorded()));
        manifest.writeFile(stats_json_path);
    }

    return result.completed && (!opts.validate || result.validated)
               ? 0
               : 1;
}
