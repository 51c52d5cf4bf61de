/**
 * @file
 * Shared command-line parsing for the tool drivers: enum-valued
 * arguments are validated the moment they are read, and a bad value
 * dies with the full list of valid choices instead of a bare
 * "unknown" complaint deep into the run.
 */

#ifndef NVMR_TOOLS_CLI_HH
#define NVMR_TOOLS_CLI_HH

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "check/repro.hh"
#include "common/log.hh"
#include "obs/heartbeat.hh"
#include "par/par.hh"
#include "power/policy.hh"
#include "power/trace.hh"
#include "sim/config.hh"

namespace nvmr::cli
{

/** Parse a whole decimal number; a value with anything else in it
 *  (sign, trailing garbage, overflow) dies naming `what`. */
inline uint64_t
parseU64(const char *v, const std::string &what)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long out = std::strtoull(v, &end, 10);
    fatal_if(*v < '0' || *v > '9' || *end != '\0' || errno == ERANGE,
             "bad value '", v, "' for ", what,
             " (need a whole number)");
    return out;
}

/** Parse a number; trailing garbage dies naming `what`. */
inline double
parseDouble(const char *v, const std::string &what)
{
    char *end = nullptr;
    double out = std::strtod(v, &end);
    fatal_if(end == v || *end != '\0', "bad value '", v, "' for ",
             what, " (need a number)");
    return out;
}

/** Split a comma list, dropping empty items ("a,,b," -> a, b). */
inline std::vector<std::string>
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

/** `--help` lines for the flags handleJobsArg, handleCampaignArg and
 *  handleTelemetryArg take, ending in a blank line. */
constexpr const char *kCampaignFlagsHelp =
    "  --jobs N              worker count (or NVMR_JOBS)\n"
    "  --journal FILE        checkpoint finished cells to FILE\n"
    "  --resume FILE         skip cells already finished in FILE\n"
    "  --watchdog-cycles N   per-cell simulated-cycle budget\n"
    "  --watchdog-retries N  budget-doubling retries before quarantine\n"
    "  --metrics FILE        host heartbeat snapshots\n"
    "  --metrics-interval S  heartbeat period in seconds (default 5)\n"
    "  --prof-json FILE      Perfetto host-span trace\n";

/**
 * Handle a `--jobs N` argument pair inside a tool's arg loop: when
 * argv[i] is `--jobs`, consume its value, wire it into the parallel
 * engine (par::setGlobalJobs) and return true. The NVMR_JOBS
 * environment variable provides the same control without a flag;
 * results are bit-identical for every worker count
 * (docs/performance.md).
 */
inline bool
handleJobsArg(int argc, char **argv, int &i)
{
    if (std::strcmp(argv[i], "--jobs") != 0)
        return false;
    if (i + 1 >= argc)
        fatal("missing value for --jobs");
    par::setGlobalJobs(par::parseJobsValue(argv[++i]));
    return true;
}

/**
 * Handle the shared crash-safety flags inside a tool's arg loop
 * (docs/operations.md):
 *
 *     --journal FILE          checkpoint completed cells to FILE
 *     --resume FILE           skip cells already completed in FILE
 *     --watchdog-cycles N     per-cell simulated-cycle budget
 *     --watchdog-retries N    budget-doubling retries before quarantine
 *
 * Returns true when argv[i] was one of them (consuming its value).
 */
inline bool
handleCampaignArg(int argc, char **argv, int &i,
                  campaign::Options &opts)
{
    auto need = [&]() -> const char * {
        if (i + 1 >= argc)
            fatal("missing value for ", argv[i]);
        return argv[++i];
    };
    std::string a = argv[i];
    if (a == "--journal") {
        opts.journalPath = need();
        return true;
    }
    if (a == "--resume") {
        opts.journalPath = need();
        opts.resume = true;
        return true;
    }
    if (a == "--watchdog-cycles") {
        opts.watchdogCycles = parseU64(need(), a);
        return true;
    }
    if (a == "--watchdog-retries") {
        opts.watchdogRetries =
            static_cast<unsigned>(parseU64(need(), a));
        return true;
    }
    return false;
}

/**
 * Handle the shared host-telemetry flags inside a tool's arg loop
 * (docs/observability.md):
 *
 *     --metrics FILE            live heartbeat snapshots (atomic
 *                               nvmr-metrics-v1 JSON; final snapshot
 *                               on exit and on SIGINT/SIGTERM)
 *     --metrics-interval SECS   heartbeat period (default 5)
 *     --prof-json FILE          Perfetto host-span trace (ph:"X")
 *
 * Returns true when argv[i] was one of them (consuming its value).
 * Host-time telemetry never touches stdout/CSV/manifest output, so
 * enabling it preserves byte-identity of all deterministic outputs.
 */
inline bool
handleTelemetryArg(int argc, char **argv, int &i,
                   obs::TelemetryOptions &topts)
{
    auto need = [&]() -> const char * {
        if (i + 1 >= argc)
            fatal("missing value for ", argv[i]);
        return argv[++i];
    };
    std::string a = argv[i];
    if (a == "--metrics") {
        topts.metricsPath = need();
        return true;
    }
    if (a == "--metrics-interval") {
        const char *v = need();
        char *end = nullptr;
        topts.intervalSecs = std::strtod(v, &end);
        fatal_if(!end || *end != '\0' || topts.intervalSecs <= 0,
                 "bad --metrics-interval '", v,
                 "' (need a positive number of seconds)");
        return true;
    }
    if (a == "--prof-json") {
        topts.profJsonPath = need();
        return true;
    }
    return false;
}

inline ArchKind
parseArchKind(const std::string &name)
{
    ArchKind kind = ArchKind::Nvmr;
    fatal_if(!archKindFromName(name, kind), "unknown architecture '",
             name,
             "' (valid: ideal, clank, clank_original, task, nvmr, "
             "hoop)");
    return kind;
}

inline PolicyKind
parsePolicyKind(const std::string &name)
{
    PolicyKind kind = PolicyKind::Jit;
    fatal_if(!policyKindFromName(name, kind), "unknown policy '", name,
             "' (valid: jit, watchdog, spendthrift, none)");
    return kind;
}

inline TraceKind
parseTraceKind(const std::string &name)
{
    TraceKind kind = TraceKind::Rf;
    fatal_if(!traceKindFromName(name, kind), "unknown trace kind '",
             name, "' (valid: rf, solar, wind)");
    return kind;
}

} // namespace nvmr::cli

#endif // NVMR_TOOLS_CLI_HH
