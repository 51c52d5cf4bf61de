/**
 * @file
 * Self-contained reproduction cases for the differential checker. A
 * CheckCase bundles everything one checked run needs -- architecture,
 * policy, platform sizing, harvest trace, fault schedule, and the
 * program source itself -- and round-trips through a small text
 * format (`# nvmr-repro-v1`) so a failure found by a fuzzing or
 * adversarial-schedule campaign can be shrunk, saved as a `.repro`
 * file and replayed anywhere with `nvmr_diff --replay`.
 */

#ifndef NVMR_CHECK_REPRO_HH
#define NVMR_CHECK_REPRO_HH

#include <atomic>
#include <iosfwd>
#include <string>

#include "fault/fault.hh"
#include "power/policy.hh"
#include "power/trace.hh"
#include "sim/config.hh"

namespace nvmr
{

/** One fully described checked run. */
struct CheckCase
{
    std::string name = "case";

    ArchKind arch = ArchKind::Nvmr;
    PolicyKind policy = PolicyKind::Jit;
    double farads = 0.1;
    bool byteLbf = false;

    /** Deliberately seeded bug (mutation hook) to prove the checker
     *  catches it; None in every production case. */
    InjectedBug injectedBug = InjectedBug::None;

    TraceKind traceKind = TraceKind::Rf;
    uint64_t traceSeed = 40000;
    double traceMeanMw = 7.0;

    uint64_t maxCycles = 400000000ull;

    /** Crash / bit-error schedule (enabled flag included). */
    FaultConfig faults;

    /** Cooperative cancel flag threaded into RunOptions::cancel;
     *  runtime-only (never serialized into the repro format). */
    const std::atomic<bool> *cancel = nullptr;

    /** iisa source, embedded verbatim. */
    std::string programText;

    /** Generator seed the program came from (0 once shrunk). */
    uint64_t programSeed = 0;
};

/** Serialize to the `# nvmr-repro-v1` text format. */
std::string formatRepro(const CheckCase &c);

/**
 * Parse a `.repro` back. Returns false (and fills `error`) on
 * malformed input; unknown keys are rejected so typos fail loudly.
 */
bool parseRepro(std::istream &is, CheckCase &out, std::string &error);

/** File conveniences (false on I/O or parse failure). */
bool saveRepro(const std::string &path, const CheckCase &c);
bool loadRepro(const std::string &path, CheckCase &out,
               std::string &error);

/** Name <-> enum helpers (false on unknown name). */
bool archKindFromName(const std::string &name, ArchKind &out);
bool policyKindFromName(const std::string &name, PolicyKind &out);
bool traceKindFromName(const std::string &name, TraceKind &out);
const char *traceKindName(TraceKind kind);

} // namespace nvmr

#endif // NVMR_CHECK_REPRO_HH
