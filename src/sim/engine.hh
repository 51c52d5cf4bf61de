/**
 * @file
 * The simulator's execution core (docs/performance.md, "The execution
 * core").
 *
 * ThreadedEngine executes the shared predecoded op image
 * (cpu/decoded.hh) with computed-goto dispatch and an inlined copy of
 * the per-instruction accounting. It runs in one of two modes, chosen
 * by the backup policy's PolicyFastPath:
 *
 *  - reference mode (a Generic policy): a virtual maybePolicyBackup()
 *    after every instruction and no superblock fusion -- step for
 *    step the retired Cpu::step() interpreter loop;
 *  - fast mode (JIT, watchdog, none): a cached backup-policy
 *    threshold checked inline and superblock fusion of straight-line
 *    ALU runs. Anything the fast path cannot prove safe -- memory
 *    ops, control flow, harvest-sample boundaries, armed crash
 *    points -- takes the exact per-instruction path.
 *
 * Both modes reproduce the committed equivalence digest table
 * (tests/data/engine_equiv_digests.txt) bit for bit. Cpu::step()
 * remains the instruction-semantics oracle behind the continuous
 * golden run and the differential checker.
 */

#ifndef NVMR_SIM_ENGINE_HH
#define NVMR_SIM_ENGINE_HH

#include <cstdint>
#include <memory>

#include "common/types.hh"
#include "cpu/decoded.hh"

namespace nvmr
{

class Simulator;

/**
 * The execution engine. One instance drives the main loop of one
 * Simulator::run(); everything outside the per-instruction loop
 * (initial backup, power-failure handling, backups, hibernation,
 * validation) stays in the Simulator, which the engine calls straight
 * back into.
 */
class ThreadedEngine
{
  public:
    explicit ThreadedEngine(Simulator &sim) : s(sim) {}

    /** Run the main loop to completion; returns `completed` (the
     *  program halted and its final backup committed). */
    bool run();

  private:
    Simulator &s;
    std::shared_ptr<const DecodedProgram> image;

    // Policy fast path (classified once per run from the policy).
    double margin = 0;
    double slackNj = 0;
    uint64_t period = 0;
    bool policyHibernates = false;

    /** Cached JIT fire threshold: backupCostNowNj()*margin + slackNj.
     *  Valid only while nothing that can change the backup cost has
     *  happened since it was computed: no cache miss, clean-to-dirty
     *  store, task boundary, backup, restore or power failure (load
     *  hits and stores to dirty lines keep it). */
    double rhs = 0;
    bool costValid = false;

    // Per-cycle energy constants (identical expressions to
    // Simulator::addCycles, hoisted out of the loop).
    double fwdNjPerCycle = 0;
    double mtNjPerCycle = 0;

    template <int M> bool mainLoop();
    template <int M> int session(unsigned &cancel_check);
    template <int M> void policyAfterStep();
    void firePolicyBackup();
};

} // namespace nvmr

#endif // NVMR_SIM_ENGINE_HH
