/**
 * @file
 * The intermittent-execution simulator: couples the CPU, an
 * intermittent architecture, the supercapacitor + harvest trace, and
 * a backup policy; runs the program across power failures with
 * restore and re-execution; accounts energy by category; and
 * validates the final NVM state against a continuously-powered run.
 */

#ifndef NVMR_SIM_SIMULATOR_HH
#define NVMR_SIM_SIMULATOR_HH

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "arch/arch.hh"
#include "cpu/cpu.hh"
#include "obs/trace.hh"
#include "power/capacitor.hh"
#include "power/energy.hh"
#include "power/policy.hh"
#include "power/trace.hh"
#include "sim/config.hh"
#include "sim/engine.hh"
#include "snapshot/snapshot.hh"

namespace nvmr
{

/** Everything a run produces. */
struct RunResult
{
    std::string program;
    std::string arch;
    std::string policy;
    std::string trace;

    bool completed = false;  ///< program halted within maxCycles
    bool validated = false;  ///< final NVM state matched golden run
    bool validationChecked = false; ///< golden comparison was run

    uint64_t activeCycles = 0;  ///< cycles spent powered on
    uint64_t totalCycles = 0;   ///< including off/recharge time
    uint64_t instructions = 0;  ///< executed, including re-execution

    std::array<NanoJoules, kNumECats> energy{};
    NanoJoules totalEnergyNj = 0;

    uint64_t backups = 0;
    std::array<uint64_t, kNumBackupReasons> backupsByReason{};
    uint64_t violations = 0;
    uint64_t renames = 0;
    uint64_t reclaims = 0;
    uint64_t restores = 0;
    uint64_t powerFailures = 0;

    uint64_t nvmReads = 0;
    uint64_t nvmWrites = 0;
    uint64_t maxWear = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;

    uint64_t tornBackups = 0;      ///< backups cut mid-persist
    uint64_t injectedCrashes = 0;  ///< fault-injector power cuts
    uint64_t eccCorrected = 0;     ///< single-bit NVM errors fixed
    uint64_t eccUncorrectable = 0; ///< corrupt NVM reads handed up

    NanoJoules energyOf(ECat cat) const
    {
        return energy[static_cast<size_t>(cat)];
    }
};

/**
 * Observer of intermittent-execution events. Attach one through
 * Simulator::attachObserver to trace a run (the CLI driver's
 * --trace, tests, custom tooling). Callbacks fire synchronously.
 */
class SimObserver
{
  public:
    virtual ~SimObserver() = default;

    /** A backup persisted. */
    virtual void
    onBackup(BackupReason reason, Cycles active_cycles)
    {
        (void)reason;
        (void)active_cycles;
    }

    /** The supply browned out. */
    virtual void onPowerFailure(Cycles active_cycles)
    {
        (void)active_cycles;
    }

    /** State was restored after a brown-out. */
    virtual void onRestore(Cycles active_cycles)
    {
        (void)active_cycles;
    }

    /** A JIT-style policy put the core to sleep. */
    virtual void onHibernate(Cycles active_cycles)
    {
        (void)active_cycles;
    }

    /** The supply recovered and execution resumed without loss. */
    virtual void onWake(Cycles active_cycles)
    {
        (void)active_cycles;
    }
};

/** Per-run knobs that are not part of the system configuration. */
struct RunOptions
{
    uint64_t maxCycles = 400000000ull; ///< safety cap (active+off)
    bool validate = true;              ///< compare against golden run

    /** Capacitor voltage at boot; 0 selects the turn-on voltage
     *  (devices wake as soon as the harvester charges past vOn, so
     *  they rarely start with a full capacitor). */
    double initialVoltage = 0;

    /** Crash and bit-error injection (off by default; when off the
     *  run is bit-identical to a fault-free build). */
    FaultConfig faults;

    /**
     * Cooperative cancellation: when non-null and the pointed-to flag
     * becomes true, the run gives up at the next low-cadence check and
     * reports completed=false, exactly as if maxCycles had been
     * exhausted. nvmr_serve uses this to enforce host wall-clock
     * deadlines and drain-grace aborts without wall time ever entering
     * the simulation itself (a cancelled run's result is discarded and
     * never journaled, so determinism is untouched).
     */
    const std::atomic<bool> *cancel = nullptr;

    /**
     * When non-null, the engine calls the sink at every safe point
     * (the first instruction boundary after a committed backup); the
     * sink decides whether to Simulator::captureSnapshot(). Capturing
     * never charges energy or cycles, so an attached sink cannot
     * change simulation results.
     */
    SnapshotSink *snapshots = nullptr;

    /**
     * When non-null, the run resumes from this snapshot instead of
     * booting from reset: the forked run is byte-identical to the run
     * that captured the snapshot continuing past the capture point.
     * The snapshot must come from a simulator built with the same
     * program, architecture, configuration, policy kind, and harvest
     * trace; fault *schedules* may differ (forks re-derive their
     * schedule cursors), which is exactly what crash-point
     * exploration needs. The PowerOn trace event and the Initial
     * backup are skipped -- they already happened in the parent run.
     */
    const MachineSnapshot *resumeFrom = nullptr;
};

/** Result of a continuously-powered (golden) execution. */
struct GoldenResult
{
    std::vector<uint8_t> data; ///< final data-segment bytes
    uint64_t instructions = 0;
    bool halted = false;
};

/**
 * Run a program to completion on a continuously-powered core with a
 * flat memory (no cache, no energy accounting). Used as the
 * correctness oracle and by workload golden-model tests.
 */
GoldenResult runContinuous(const Program &prog,
                           uint64_t max_instructions = 200000000ull);

/** The final data-segment bytes of a program's continuous run: the
 *  part of the golden run that validation reads. */
using GoldenImage = std::vector<uint8_t>;

/**
 * The golden image of `prog`, computed by runContinuous() on first
 * use and memoized in the Program, so every validated run of one
 * program shares a single golden run. Thread-safe; concurrent first
 * callers may each compute the image, and the first to install it
 * wins (like decodedProgram()). A Program copy starts without the
 * memo. Panics when the continuous run does not halt.
 */
std::shared_ptr<const GoldenImage> goldenFor(const Program &prog);

/** Build an architecture instance. */
std::unique_ptr<IntermittentArch> makeArch(ArchKind kind,
                                           const SystemConfig &cfg,
                                           Nvm &nvm, EnergySink &sink);

/**
 * One intermittent simulation. The simulator is single-use: build,
 * run(), read the result.
 */
class Simulator : public EnergySink, public BackupHost
{
  public:
    Simulator(const Program &prog, ArchKind arch_kind,
              const SystemConfig &cfg, BackupPolicy &policy,
              const HarvestTrace &trace, RunOptions opts = {});

    /** Execute the program intermittently and collect the result. */
    RunResult run();

    // ------------------------------------------------------------------
    // EnergySink (components charge through here)
    // ------------------------------------------------------------------
    void consume(NanoJoules nj) override;
    void consumeOverhead(NanoJoules nj) override;
    void addCycles(Cycles n) override;

    // ------------------------------------------------------------------
    // BackupHost (architectures trigger backups through here)
    // ------------------------------------------------------------------
    void requestBackup(BackupReason reason) override;

    /** The architecture under simulation (tests introspect it). */
    IntermittentArch &archRef() { return *arch; }
    const Capacitor &capacitorRef() const { return cap; }

    /** The simulated core (the differential checker diffs its final
     *  register file against the oracle's, check/oracle.hh). */
    const Cpu &cpuRef() const { return cpu; }

    /** Attach an event observer (optional; call before run()). */
    void attachObserver(SimObserver *obs) { observer = obs; }

    /**
     * Attach a trace sink (optional; call before run()). The sink's
     * clocks are bound to this simulator's cycle counters and the
     * sink is forwarded to the architecture, the CPU and the fault
     * injector. Tracing never charges energy or cycles, so an
     * attached sink cannot change simulation results.
     */
    void attachTrace(TraceSink *sink_);

    /** The run's fault injector (crashtest reads the backup-window
     *  census and fault counters out of it). */
    const FaultInjector &faultInjector() const { return injector; }

    /** The NVM model (tests inspect COW page sharing). */
    const Nvm &nvmRef() const { return nvm; }

    /**
     * Capture the full device + simulator state. Only legal at a safe
     * point (instruction boundary, outside atomic sections) -- in
     * practice, from a SnapshotSink callback. O(small state + NVM
     * page-table copy); the NVM page *contents* are shared
     * copy-on-write with this run until either side writes.
     */
    MachineSnapshot captureSnapshot();

    /**
     * Compare the architecture's final application image against a
     * golden image (goldenFor(), through the deterministic fault
     * view). Public so crash-point explorers can validate recovery
     * even when the crashy run itself skipped validation.
     */
    bool validateAgainstGolden(const GoldenImage &golden) const;

  private:
    /** The execution core (sim/engine.cc): a predecoded main loop
     *  that drives this simulator's state machine directly. */
    friend class ThreadedEngine;

    const Program &program;
    const SystemConfig &cfg;
    BackupPolicy &policy;
    const HarvestTrace &trace;
    RunOptions opts;

    Capacitor cap;
    Nvm nvm;
    std::unique_ptr<IntermittentArch> arch;
    Cpu cpu;
    EnergyAccount account;
    FaultInjector injector;

    EMode mode = EMode::Execute;
    bool inAtomic = false;
    bool chargesMtLeak = false;

    /** A backup committed with a snapshot sink attached: fire the
     *  sink at the next instruction boundary (the engine checks this
     *  at its loop top). Never set without opts.snapshots. */
    bool snapPending = false;
    SimObserver *observer = nullptr;
    TraceSink *tracer = nullptr;

    /** Orchestration-level histograms, registered into the
     *  architecture's StatGroup alongside its counters. */
    Histogram backupIntervalHist{
        "backup_interval_cycles",
        "active cycles between committed backups"};
    Histogram onPeriodHist{
        "on_period_cycles",
        "active cycles per powered-on period"};
    Histogram nvmWearHist{
        "nvm_wear_per_word",
        "accounted writes per worn NVM word (end of run)"};

    uint64_t activeCycles = 0;
    uint64_t totalCycles = 0;
    uint64_t lastBackupActive = 0;
    uint64_t resumeActive = 0;

    /** Harvest-trace sample under the current cycle, cached so the
     *  per-instruction path avoids the trace's div/mod lookup. The
     *  cache holds until totalCycles reaches harvestSampleEnd (the
     *  next 1 kHz sample boundary); hibernation and recharge waits
     *  advance past it, which simply forces a refresh. */
    double harvestMwCached = 0;
    uint64_t harvestSampleEnd = 0;

    void refreshHarvestCache();
    double harvestMwNow();

    /**
     * One energy charge, inline in every sink entry point: drain the
     * capacitor, book the energy (in Execute mode straight into the
     * Forward/ForwardOverhead pending slot, in the other modes through
     * categoryFor()), then brown out if the supply died. Keep the
     * operations and their order: the equivalence digest table pins
     * every energy double bit for bit.
     */
    void
    charge(NanoJoules nj, bool overhead)
    {
        cap.drainNj(nj);
        if (mode == EMode::Execute)
            account.spendPending(
                overhead ? ECat::ForwardOverhead : ECat::Forward, nj);
        else
            account.spendCommitted(categoryFor(overhead), nj);
        if (cap.dead())
            brownOut();
    }

    /** The supply died: throw PowerFailure (or panic under
     *  --strict-atomic inside an atomic section). Cold and out of
     *  line so charge() stays a few instructions. */
    [[noreturn, gnu::cold, gnu::noinline]] void brownOut();

    ECat categoryFor(bool overhead) const;

    /** Clear snapPending and invoke the sink (out of line so the
     *  engine's hot loop only pays a predictable not-taken branch). */
    void fireSnapshotPoint();

    /** Overwrite all dynamic state from a snapshot (resumeFrom). */
    void restoreSnapshot(const MachineSnapshot &snap);

    void maybePolicyBackup();
    void hibernate();
    void handlePowerFailure();
    void rebootFromReset();
    void waitForRecharge(NanoJoules need_nj);

    RunResult makeResult(bool completed, bool validated) const;
};

} // namespace nvmr

#endif // NVMR_SIM_SIMULATOR_HH
