/**
 * @file
 * Layer probe for the perfbench benchmark. It drives the nvmr library
 * through its public API on the same inputs as one benchmark workload
 * and times each layer from the outside: the probe's own code wraps
 * every layer call in a span, so nothing inside the library is
 * instrumented.
 *
 *     layer_probe sweep --traces K --workloads a,b --spans FILE
 *     layer_probe crashtest --workloads a,b --archs nvmr,clank --spans FILE
 *     layer_probe serve --job-dir DIR --traces K --spans FILE
 *
 * The last line of stdout is one JSON object: "metrics" (per-layer
 * values), "totals" (exact event counts summed over every simulated
 * run) and "checks" (self-check failures; empty when the replayed
 * structures agree with the simulator's own counters).
 *
 * Spans (name, start, end, parent, cell id) are kept in memory and
 * written to the --spans file at exit together with each span name's
 * total self time.
 */

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/arch.hh"
#include "core/freelist.hh"
#include "core/maptable.hh"
#include "core/mtcache.hh"
#include "mem/cache.hh"
#include "obs/trace.hh"
#include "power/policy.hh"
#include "power/trace.hh"
#include "serve/job.hh"
#include "sim/simulator.hh"
#include "snapshot/snapshot.hh"
#include "workloads/workloads.hh"

using namespace nvmr;

namespace
{

using Clock = std::chrono::steady_clock;

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/** Keeps the optimizer from discarding timed calls. */
volatile double g_sinkValue = 0;

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "layer_probe: %s\n", msg.c_str());
    std::exit(2);
}

std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    std::stringstream ss(value);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

// ----------------------------------------------------------------------
// Spans
// ----------------------------------------------------------------------

struct Span
{
    std::string name;
    std::string id; ///< cell / job identifier, "" at the top level
    uint64_t start = 0;
    uint64_t end = 0;
    int parent = -1;
};

/** In-memory span log; spans nest through an open-span stack. */
class SpanLog
{
  public:
    int
    open(const std::string &name, const std::string &id)
    {
        Span s;
        s.name = name;
        s.id = id;
        s.parent = stack.empty() ? -1 : stack.back();
        spans.push_back(std::move(s));
        stack.push_back(static_cast<int>(spans.size()) - 1);
        spans.back().start = nowNs();
        return stack.back();
    }

    /** Close the innermost span; returns its duration in ns. */
    uint64_t
    close()
    {
        uint64_t t = nowNs();
        Span &s = spans[static_cast<size_t>(stack.back())];
        stack.pop_back();
        s.end = t;
        return s.end - s.start;
    }

    /** Per-name total self time: duration minus child durations. */
    std::map<std::string, uint64_t>
    selfTimes() const
    {
        std::vector<uint64_t> child(spans.size(), 0);
        for (const Span &s : spans)
            if (s.parent >= 0)
                child[static_cast<size_t>(s.parent)] += s.end - s.start;
        std::map<std::string, uint64_t> out;
        for (size_t i = 0; i < spans.size(); ++i) {
            uint64_t dur = spans[i].end - spans[i].start;
            out[spans[i].name] += dur > child[i] ? dur - child[i] : 0;
        }
        return out;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream f(path);
        if (!f)
            die("cannot write " + path);
        uint64_t base = spans.empty() ? 0 : spans.front().start;
        f << "{\"schema\": \"perfbench-spans-v1\", \"spans\": [";
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            f << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
              << "\", \"id\": \"" << jsonEscape(s.id)
              << "\", \"start_ns\": " << s.start - base
              << ", \"end_ns\": " << s.end - base
              << ", \"parent\": " << s.parent << "}";
        }
        f << "\n], \"self_ns\": {";
        bool first = true;
        for (const auto &[name, ns] : selfTimes()) {
            f << (first ? "" : ", ") << "\"" << name << "\": " << ns;
            first = false;
        }
        f << "}}\n";
    }

  private:
    std::vector<Span> spans;
    std::vector<int> stack;
};

SpanLog g_spans;

/** RAII span around one layer call. */
class Scope
{
  public:
    Scope(const std::string &name, const std::string &id = "")
    {
        g_spans.open(name, id);
    }
    ~Scope()
    {
        if (open)
            g_spans.close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    uint64_t
    close()
    {
        open = false;
        return g_spans.close();
    }

  private:
    bool open = true;
};

// ----------------------------------------------------------------------
// Accumulators
// ----------------------------------------------------------------------

/** Exact counts, summed over runs. */
struct Totals
{
    uint64_t runs = 0;
    uint64_t instructions = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t nvmReads = 0;
    uint64_t nvmWrites = 0;
    uint64_t violations = 0;
    uint64_t renames = 0;
    uint64_t reclaims = 0;
    uint64_t backups = 0;
    uint64_t powerFailures = 0;
    uint64_t restores = 0;

    void
    add(const RunResult &r)
    {
        ++runs;
        instructions += r.instructions;
        cacheHits += r.cacheHits;
        cacheMisses += r.cacheMisses;
        nvmReads += r.nvmReads;
        nvmWrites += r.nvmWrites;
        violations += r.violations;
        renames += r.renames;
        reclaims += r.reclaims;
        backups += r.backups;
        powerFailures += r.powerFailures;
        restores += r.restores;
    }
};

/** Sum of host time and work, for a per-unit ratio. */
struct Rate
{
    double ns = 0;
    double units = 0;

    void
    add(double ns_, double units_)
    {
        ns += ns_;
        units += units_;
    }

    double per() const { return units > 0 ? ns / units : 0; }
};

struct Report
{
    std::map<std::string, double> metrics;
    Totals totals;
    std::vector<std::string> checks;

    void
    fail(const std::string &what)
    {
        checks.push_back(what);
    }

    void
    print() const
    {
        std::printf("{\"metrics\": {");
        bool first = true;
        for (const auto &[name, v] : metrics) {
            std::printf("%s\"%s\": %.17g", first ? "" : ", ",
                        name.c_str(), v);
            first = false;
        }
        const Totals &t = totals;
        std::printf(
            "}, \"totals\": {\"runs\": %llu, \"instructions\": %llu, "
            "\"cache_hits\": %llu, \"cache_misses\": %llu, "
            "\"nvm_reads\": %llu, \"nvm_writes\": %llu, "
            "\"violations\": %llu, \"renames\": %llu, "
            "\"reclaims\": %llu, \"backups\": %llu, "
            "\"power_failures\": %llu, \"restores\": %llu}, "
            "\"checks\": [",
            (unsigned long long)t.runs,
            (unsigned long long)t.instructions,
            (unsigned long long)t.cacheHits,
            (unsigned long long)t.cacheMisses,
            (unsigned long long)t.nvmReads,
            (unsigned long long)t.nvmWrites,
            (unsigned long long)t.violations,
            (unsigned long long)t.renames,
            (unsigned long long)t.reclaims,
            (unsigned long long)t.backups,
            (unsigned long long)t.powerFailures,
            (unsigned long long)t.restores);
        for (size_t i = 0; i < checks.size(); ++i)
            std::printf("%s\"%s\"", i ? ", " : "",
                        jsonEscape(checks[i]).c_str());
        std::printf("]}\n");
    }
};

// ----------------------------------------------------------------------
// Layer helpers
// ----------------------------------------------------------------------

/** Energy sink for structures replayed outside a simulator. */
class NullEnergy : public EnergySink
{
  public:
    void consume(NanoJoules nj) override { g_sinkValue = nj; }
    void consumeOverhead(NanoJoules nj) override { g_sinkValue = nj; }
    void addCycles(Cycles) override {}
};

/** Records the event kinds the replay probes need. */
class StreamRecorder : public TraceSink
{
  public:
    void
    consume(const TraceEvent &ev) override
    {
        switch (ev.kind) {
          case EventKind::MemAccess:
          case EventKind::CacheMiss:
          case EventKind::PowerFail:
          case EventKind::MtcHit:
          case EventKind::MtcMiss:
          case EventKind::Rename:
          case EventKind::Reclaim:
            events.push_back(ev);
            break;
          default:
            break;
        }
    }

    std::vector<TraceEvent> events;
};

/**
 * At every Nth safe point: time a snapshot capture and the arch's
 * backupCostNowNj() on the live mid-run state, and keep the snapshot
 * for fork timing.
 */
class TimingSnapshotSink : public SnapshotSink
{
  public:
    explicit TimingSnapshotSink(uint64_t stride_) : stride(stride_) {}

    void
    onSnapshotPoint(Simulator &sim) override
    {
        if (seen++ % stride != 0)
            return;
        {
            Scope s("arch.backup_cost");
            uint64_t t0 = nowNs();
            double acc = 0;
            for (unsigned i = 0; i < kCostCalls; ++i)
                acc += sim.archRef().backupCostNowNj();
            g_sinkValue = acc;
            backupCost.add(static_cast<double>(nowNs() - t0),
                           kCostCalls);
        }
        Scope s("snapshot.capture");
        uint64_t t0 = nowNs();
        auto snap =
            std::make_shared<MachineSnapshot>(sim.captureSnapshot());
        capture.add(static_cast<double>(nowNs() - t0), 1);
        pages.add(static_cast<double>(snap->nvmPages.size()), 1);
        snapshots.push_back(std::move(snap));
    }

    static constexpr unsigned kCostCalls = 64;
    Rate backupCost;
    Rate capture;
    Rate pages; ///< "ns" holds the page count
    std::vector<SnapshotPtr> snapshots;

  private:
    uint64_t stride;
    uint64_t seen = 0;
};

ArchKind
archByName(const std::string &name)
{
    for (ArchKind k : {ArchKind::Clank, ArchKind::Nvmr, ArchKind::Hoop,
                       ArchKind::Task, ArchKind::ClankOriginal})
        if (name == archKindName(k))
            return k;
    die("unknown arch " + name);
}

PolicyKind
policyByName(const std::string &name)
{
    for (PolicyKind k : {PolicyKind::Jit, PolicyKind::Watchdog})
        if (name == policyKindName(k))
            return k;
    die("unknown policy " + name);
}

std::map<std::string, Program>
assembleAll(const std::vector<std::string> &names, Report &rep)
{
    std::map<std::string, Program> progs;
    Scope all("isa.assemble_all");
    for (const std::string &w : names) {
        Scope s("isa.assemble", w);
        progs.emplace(w, assembleWorkload(w));
    }
    rep.metrics["isa.assemble_ms"] = static_cast<double>(all.close()) / 1e6;
    return progs;
}

std::vector<HarvestTrace>
standardTraces(int k, Report &rep)
{
    Scope s("power.trace_gen");
    auto traces = HarvestTrace::standardSet(k);
    rep.metrics["power.trace_gen_ms"] = static_cast<double>(s.close()) / 1e6;
    return traces;
}

/** Golden run timing: mean ms of runContinuous per program. */
double
timeGolden(const std::map<std::string, Program> &progs,
           std::map<std::string, double> &per_program_ns)
{
    double sum = 0;
    for (const auto &[name, prog] : progs) {
        Scope s("cpu.golden", name);
        GoldenResult g = runContinuous(prog);
        g_sinkValue = static_cast<double>(g.instructions);
        double ns = static_cast<double>(s.close());
        per_program_ns[name] = ns;
        sum += ns;
    }
    return progs.empty() ? 0 : sum / 1e6 / static_cast<double>(progs.size());
}

/**
 * Replay the recorded access stream into a fresh DataCache. An access
 * cut short by a power failure recorded its CacheMiss but never its
 * MemAccess; it is replayed as a bare lookup before the invalidation.
 */
void
replayCache(const std::vector<TraceEvent> &ev, const SystemConfig &cfg,
            const RunResult &r, const std::string &id, Rate &rate,
            Report &rep)
{
    NullEnergy energy;
    DataCache cache(cfg.cache, cfg.tech, energy);
    std::vector<Word> zero(cfg.cache.wordsPerBlock(), 0);
    uint64_t accesses = 0;
    Addr pending = kNoAddr;
    Scope s("mem.cache_replay", id);
    uint64_t t0 = nowNs();
    for (const TraceEvent &e : ev) {
        if (e.kind == EventKind::MemAccess) {
            Addr block = cache.blockAlign(static_cast<Addr>(e.a0));
            if (!cache.lookupUncharged(block)) {
                CacheLine &v = cache.victim(block);
                cache.invalidate(v);
                cache.fill(v, block, zero);
            }
            pending = kNoAddr;
            ++accesses;
        } else if (e.kind == EventKind::CacheMiss) {
            pending = static_cast<Addr>(e.a0);
        } else if (e.kind == EventKind::PowerFail) {
            if (pending != kNoAddr) {
                g_sinkValue = cache.lookupUncharged(pending) ? 1 : 0;
                ++accesses;
            }
            pending = kNoAddr;
            cache.invalidateAll();
        }
    }
    rate.add(static_cast<double>(nowNs() - t0),
             static_cast<double>(accesses));
    if (cache.hits() != r.cacheHits || cache.misses() != r.cacheMisses)
        rep.fail("cache replay of " + id + " counted " +
                 std::to_string(cache.hits()) + "/" +
                 std::to_string(cache.misses()) +
                 " hits/misses, the run counted " +
                 std::to_string(r.cacheHits) + "/" +
                 std::to_string(r.cacheMisses));
}

/** Replay the renaming streams into MTC, map table and free list. */
void
replayRenaming(const std::vector<TraceEvent> &ev,
               const SystemConfig &cfg, const std::string &id,
               Rate &mtc_rate, Rate &mt_rate, Rate &fl_rate)
{
    NullEnergy energy;
    {
        MapTableCache mtc(cfg.mtCacheEntries, cfg.mtCacheWays, cfg.tech,
                          energy);
        uint64_t lookups = 0;
        Scope s("core.mtc_replay", id);
        uint64_t t0 = nowNs();
        for (const TraceEvent &e : ev) {
            if (e.kind == EventKind::MtcHit ||
                e.kind == EventKind::MtcMiss) {
                Addr tag = static_cast<Addr>(e.a0);
                ++lookups;
                if (!mtc.lookup(tag)) {
                    MtcEntry &slot = mtc.victim(tag);
                    if (slot.valid && slot.dirty)
                        mtc.markClean(slot);
                    mtc.install(slot, tag, kNoAddr, kNoAddr, false, true);
                }
            } else if (e.kind == EventKind::PowerFail) {
                mtc.invalidateAll();
            }
        }
        mtc_rate.add(static_cast<double>(nowNs() - t0),
                     static_cast<double>(lookups));
    }
    {
        MapTable table(cfg.mapTableEntries, cfg.tech, energy);
        uint64_t ops = 0;
        Scope s("core.maptable_replay", id);
        uint64_t t0 = nowNs();
        for (const TraceEvent &e : ev) {
            Addr tag = static_cast<Addr>(e.a0);
            if (e.kind == EventKind::MtcMiss) {
                auto m = table.lookup(tag);
                g_sinkValue = m ? static_cast<double>(*m) : 0;
                ++ops;
            } else if (e.kind == EventKind::Rename) {
                if (!table.hasRoomFor(tag))
                    if (auto lru = table.lruEntry())
                        table.erase(lru->first);
                table.set(tag, static_cast<Addr>(e.a1));
                ++ops;
            } else if (e.kind == EventKind::Reclaim) {
                table.erase(tag);
                ++ops;
            }
        }
        mt_rate.add(static_cast<double>(nowNs() - t0),
                    static_cast<double>(ops));
    }
    {
        uint32_t n = cfg.effectiveFreeListEntries();
        FreeList list(n, cfg.tech, energy);
        list.initFill(cfg.nvmBytes / 2, cfg.cache.blockBytes, n);
        uint64_t ops = 0;
        Scope s("core.freelist_replay", id);
        uint64_t t0 = nowNs();
        for (const TraceEvent &e : ev) {
            if (e.kind == EventKind::Rename) {
                if (list.empty())
                    list.push(static_cast<Addr>(e.a1));
                g_sinkValue = static_cast<double>(list.pop());
                ++ops;
            } else if (e.kind == EventKind::Reclaim) {
                if (!list.full())
                    list.push(static_cast<Addr>(e.a1));
                ++ops;
            }
        }
        fl_rate.add(static_cast<double>(nowNs() - t0),
                    static_cast<double>(ops));
    }
}

void
putCounts(Report &rep)
{
    const Totals &t = rep.totals;
    rep.metrics["mem.cache_hits"] = static_cast<double>(t.cacheHits);
    rep.metrics["mem.cache_misses"] = static_cast<double>(t.cacheMisses);
    rep.metrics["mem.nvm_reads"] = static_cast<double>(t.nvmReads);
    rep.metrics["mem.nvm_writes"] = static_cast<double>(t.nvmWrites);
    rep.metrics["arch.violations"] = static_cast<double>(t.violations);
    rep.metrics["core.renames"] = static_cast<double>(t.renames);
    rep.metrics["core.reclaims"] = static_cast<double>(t.reclaims);
    rep.metrics["power.backups"] = static_cast<double>(t.backups);
    rep.metrics["power.power_failures"] =
        static_cast<double>(t.powerFailures);
    rep.metrics["power.restores"] = static_cast<double>(t.restores);
}

/** Run one Simulator with span-timed construction and run(). */
RunResult
timedRun(const Program &prog, ArchKind arch, const SystemConfig &cfg,
         const PolicySpec &spec, const HarvestTrace &trace,
         RunOptions opts, const std::string &id, Rate &ctor,
         double &run_ns, TraceSink *sink = nullptr)
{
    auto policy = makePolicy(spec);
    Scope s_ctor("sim.ctor", id);
    uint64_t t0 = nowNs();
    Simulator sim(prog, arch, cfg, *policy, trace, opts);
    ctor.add(static_cast<double>(nowNs() - t0), 1);
    s_ctor.close();
    if (sink)
        sim.attachTrace(sink);
    Scope s_run(opts.validate ? "sim.run_validated" : "sim.run", id);
    RunResult r = sim.run();
    run_ns = static_cast<double>(s_run.close());
    return r;
}

// ----------------------------------------------------------------------
// Workloads
// ----------------------------------------------------------------------

/** The nvmr_sweep grid: every run validated, timed, counted, then
 *  re-run unvalidated for per-instruction host cost and once more
 *  with a recorder for the replay probes. */
void
probeSweep(const std::vector<std::string> &workloads, int k, Report &rep)
{
    const std::vector<std::string> archs = {"clank", "nvmr", "hoop"};
    const std::vector<std::string> policies = {"jit", "watchdog"};
    auto traces = standardTraces(k, rep);
    auto progs = assembleAll(workloads, rep);
    std::map<std::string, double> golden_ns;
    rep.metrics["cpu.golden_ms"] = timeGolden(progs, golden_ns);

    Rate ctor, run_plain, cache_rate, mtc_rate, mt_rate, fl_rate;
    std::map<std::string, Rate> by_arch, by_policy, cost_by_arch;
    double validated_ns = 0, golden_total_ns = 0;
    for (const std::string &w : workloads) {
        for (const std::string &a : archs) {
            for (const std::string &p : policies) {
                SystemConfig cfg;
                cfg.capacitorFarads = 0.1;
                PolicySpec spec;
                spec.kind = policyByName(p);
                ArchKind arch = archByName(a);
                for (size_t t = 0; t < traces.size(); ++t) {
                    std::string id = w + "/" + a + "/" + p + "/" +
                                     std::to_string(t);
                    Scope cell("cell", id);
                    double ns = 0;
                    RunOptions vopts;
                    RunResult rv = timedRun(progs.at(w), arch, cfg, spec,
                                            traces[t], vopts, id, ctor,
                                            ns);
                    rep.totals.add(rv);
                    validated_ns += ns;
                    golden_total_ns += golden_ns.at(w);
                    if (!rv.completed || !rv.validated)
                        rep.fail(id + " did not complete and validate");

                    RunOptions nopts;
                    nopts.validate = false;
                    RunResult rn = timedRun(progs.at(w), arch, cfg, spec,
                                            traces[t], nopts, id, ctor,
                                            ns);
                    double instr = static_cast<double>(rn.instructions);
                    run_plain.add(ns, instr);
                    by_arch[a].add(ns, instr);
                    by_policy[p].add(ns, instr);
                    if (rn.instructions != rv.instructions)
                        rep.fail(id + " executed a different "
                                      "instruction count unvalidated");
                    if (t != 0)
                        continue;

                    StreamRecorder rec;
                    TimingSnapshotSink snaps(16);
                    RunOptions ropts;
                    ropts.validate = false;
                    ropts.snapshots = &snaps;
                    RunResult rr = timedRun(progs.at(w), arch, cfg, spec,
                                            traces[t], ropts, id, ctor,
                                            ns, &rec);
                    if (rr.cacheHits != rv.cacheHits ||
                        rr.instructions != rv.instructions)
                        rep.fail(id + " changed its counts with a "
                                      "trace sink attached");
                    cost_by_arch[a].add(snaps.backupCost.ns,
                                        snaps.backupCost.units);
                    replayCache(rec.events, cfg, rr, id, cache_rate, rep);
                    replayRenaming(rec.events, cfg, id, mtc_rate, mt_rate,
                                   fl_rate);
                }
            }
        }
    }
    rep.metrics["cpu.golden_share"] =
        validated_ns > 0 ? golden_total_ns / validated_ns : 0;
    rep.metrics["sim.ctor_us"] = ctor.per() / 1e3;
    rep.metrics["sim.run_ns_per_instr"] = run_plain.per();
    for (const std::string &a : archs) {
        rep.metrics["arch." + a + ".ns_per_instr"] = by_arch[a].per();
        rep.metrics["arch." + a + ".backup_cost_ns"] =
            cost_by_arch[a].per();
    }
    for (const std::string &p : policies)
        rep.metrics["policy." + p + ".ns_per_instr"] = by_policy[p].per();
    rep.metrics["mem.cache_ns_per_access"] = cache_rate.per();
    rep.metrics["core.mtc_ns_per_lookup"] = mtc_rate.per();
    rep.metrics["core.maptable_ns_per_op"] = mt_rate.per();
    rep.metrics["core.freelist_ns_per_op"] = fl_rate.per();
    putCounts(rep);
}

/** The platform nvmr_crashtest runs every crash point on (kept in
 *  step with crashConfig() in tools/nvmr_crashtest.cc). */
SystemConfig
crashConfig()
{
    SystemConfig cfg;
    cfg.mapTableEntries = 64;
    cfg.mtCacheEntries = 16;
    cfg.mtCacheWays = 4;
    cfg.reclaimEnabled = true;
    return cfg;
}

/** nvmr_crashtest's default --snap-stride: a snapshot at every 4th
 *  safe point of the census run. */
constexpr uint64_t kCrashSnapStride = 4;

/** Per workload x arch: golden run, census run with snapshot capture,
 *  and forks from the captured snapshots. */
void
probeCrashtest(const std::vector<std::string> &workloads,
               const std::vector<std::string> &archs, Report &rep)
{
    std::vector<HarvestTrace> traces;
    {
        Scope s("power.trace_gen");
        traces.emplace_back(TraceKind::Rf, 7, 8.0);
        rep.metrics["power.trace_gen_ms"] =
            static_cast<double>(s.close()) / 1e6;
    }
    auto progs = assembleAll(workloads, rep);
    std::map<std::string, double> golden_ns;
    rep.metrics["cpu.golden_ms"] = timeGolden(progs, golden_ns);

    Rate ctor, fork, capture, pages, census;
    std::map<std::string, Rate> cost_by_arch;
    double golden_total_ns = 0;
    SystemConfig cfg = crashConfig();
    PolicySpec spec;
    spec.kind = PolicyKind::Watchdog;
    spec.watchdogPeriod = 4000;
    for (const std::string &w : workloads) {
        for (const std::string &a : archs) {
            std::string id = w + "/" + a;
            Scope combo("combo", id);
            ArchKind arch = archByName(a);
            TimingSnapshotSink snaps(kCrashSnapStride);
            RunOptions opts;
            opts.validate = false;
            opts.faults.enabled = true;
            opts.snapshots = &snaps;
            double ns = 0;
            RunResult r = timedRun(progs.at(w), arch, cfg, spec, traces[0],
                                   opts, id, ctor, ns);
            rep.totals.add(r);
            census.add(ns, static_cast<double>(r.instructions));
            golden_total_ns += golden_ns.at(w);
            if (!r.completed)
                rep.fail(id + " census run did not complete");
            cost_by_arch[a].add(snaps.backupCost.ns, snaps.backupCost.units);
            capture.add(snaps.capture.ns, snaps.capture.units);
            pages.add(snaps.pages.ns, snaps.pages.units);

            // Fork: construct from the snapshot and stop right after
            // the restore (one cycle past the capture point).
            size_t step = std::max<size_t>(1, snaps.snapshots.size() / 16);
            for (size_t i = 0; i < snaps.snapshots.size(); i += step) {
                const MachineSnapshot &snap = *snaps.snapshots[i];
                RunOptions fopts;
                fopts.validate = false;
                fopts.faults.enabled = true;
                fopts.resumeFrom = &snap;
                fopts.maxCycles = snap.totalCycles + 1;
                auto policy = makePolicy(spec);
                Scope s("snapshot.fork", id);
                uint64_t t0 = nowNs();
                Simulator sim(progs.at(w), arch, cfg, *policy, traces[0],
                              fopts);
                RunResult fr = sim.run();
                fork.add(static_cast<double>(nowNs() - t0), 1);
                g_sinkValue = static_cast<double>(fr.totalCycles);
            }
        }
    }
    rep.metrics["cpu.golden_share"] =
        census.ns > 0 ? golden_total_ns / (golden_total_ns + census.ns) : 0;
    rep.metrics["sim.ctor_us"] = ctor.per() / 1e3;
    rep.metrics["sim.run_ns_per_instr"] = census.per();
    rep.metrics["snapshot.capture_us"] = capture.per() / 1e3;
    rep.metrics["snapshot.fork_us"] = fork.per() / 1e3;
    rep.metrics["snapshot.pages"] = pages.per();
    for (const std::string &a : archs)
        rep.metrics["arch." + a + ".backup_cost_ns"] = cost_by_arch[a].per();
    putCounts(rep);
}

/** Strict job parsing of every spooled job, plus the one-cell runs
 *  the jobs describe (construction cost and exact counts). */
void
probeServe(const std::string &job_dir, int k, Report &rep)
{
    std::vector<std::pair<std::string, std::string>> texts;
    DIR *dir = ::opendir(job_dir.c_str());
    if (!dir)
        die("cannot open " + job_dir);
    while (struct dirent *ent = ::readdir(dir)) {
        std::string f = ent->d_name;
        if (f.size() <= 4 || f.compare(f.size() - 4, 4, ".job") != 0)
            continue;
        std::ifstream in(job_dir + "/" + f);
        std::stringstream ss;
        ss << in.rdbuf();
        texts.emplace_back(f.substr(0, f.size() - 4), ss.str());
    }
    ::closedir(dir);
    std::sort(texts.begin(), texts.end());
    if (texts.empty())
        die("no .job files in " + job_dir);

    std::vector<serve::JobSpec> specs(texts.size());
    Rate parse;
    constexpr int kParseReps = 20;
    for (int rep_i = 0; rep_i < kParseReps; ++rep_i) {
        for (size_t i = 0; i < texts.size(); ++i) {
            std::string err;
            Scope s("serve.parse", texts[i].first);
            uint64_t t0 = nowNs();
            bool ok = serve::parseJobText(texts[i].second, texts[i].first,
                                          specs[i], err);
            parse.add(static_cast<double>(nowNs() - t0), 1);
            if (!ok)
                rep.fail("job " + texts[i].first + " did not parse: " + err);
        }
    }
    rep.metrics["serve.parse_us"] = parse.per() / 1e3;

    std::vector<std::string> names;
    for (const serve::JobSpec &j : specs)
        for (const std::string &w : j.sweep.workloads)
            if (std::find(names.begin(), names.end(), w) == names.end())
                names.push_back(w);
    auto traces = standardTraces(k, rep);
    auto progs = assembleAll(names, rep);
    Rate ctor, run;
    for (const serve::JobSpec &j : specs) {
        SystemConfig cfg;
        cfg.capacitorFarads = j.sweep.caps.at(0);
        PolicySpec spec;
        spec.kind = policyByName(j.sweep.policies.at(0));
        Scope job("job", j.name);
        for (const HarvestTrace &t : traces) {
            double ns = 0;
            RunResult r = timedRun(progs.at(j.sweep.workloads.at(0)),
                                   archByName(j.sweep.archs.at(0)), cfg,
                                   spec, t, RunOptions{}, j.name, ctor, ns);
            run.add(ns, static_cast<double>(r.instructions));
            rep.totals.add(r);
            if (!r.completed || !r.validated)
                rep.fail(j.name + " did not complete and validate");
        }
    }
    rep.metrics["sim.ctor_us"] = ctor.per() / 1e3;
    rep.metrics["sim.run_ns_per_instr"] = run.per();
    putCounts(rep);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        die("usage: layer_probe sweep|crashtest|serve [options]");
    std::string mode = argv[1];
    std::vector<std::string> workloads, archs = {"nvmr", "clank", "hoop"};
    std::string spans_path, job_dir;
    int traces = 1;
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + a);
        std::string v = argv[++i];
        if (a == "--workloads")
            workloads = splitList(v);
        else if (a == "--archs")
            archs = splitList(v);
        else if (a == "--traces")
            traces = std::atoi(v.c_str());
        else if (a == "--spans")
            spans_path = v;
        else if (a == "--job-dir")
            job_dir = v;
        else
            die("unknown argument " + a);
    }
    if (workloads.empty())
        for (const WorkloadInfo &w : allWorkloads())
            workloads.push_back(w.name);

    Report rep;
    if (mode == "sweep")
        probeSweep(workloads, traces, rep);
    else if (mode == "crashtest")
        probeCrashtest(workloads, archs, rep);
    else if (mode == "serve")
        probeServe(job_dir, traces, rep);
    else
        die("unknown mode " + mode);
    if (!spans_path.empty())
        g_spans.write(spans_path);
    rep.print();
    return rep.checks.empty() ? 0 : 1;
}
