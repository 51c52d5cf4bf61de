#include "campaign/sig.hh"

#include <atomic>
#include <csignal>
#include <cstdlib>

#include "common/exitcodes.hh"

namespace nvmr::campaign
{

namespace
{

// Written by the handler, read by worker and monitor threads: a
// lock-free atomic is both async-signal-safe and race-free, which a
// volatile sig_atomic_t is not across threads.
std::atomic<int> gSignal{0};
static_assert(std::atomic<int>::is_always_lock_free);

extern "C" void
campaignSignalHandler(int signo)
{
    // Second interrupt: the user really means it. _Exit is
    // async-signal-safe; the journal holds every completed cell.
    if (gSignal != 0)
        std::_Exit(nvmr::kExitSignalBase + signo);
    gSignal = signo;
}

} // namespace

void
installSignalHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = campaignSignalHandler;
    sigemptyset(&sa.sa_mask);
    // SA_RESTART keeps in-flight journal/manifest writes whole.
    sa.sa_flags = SA_RESTART;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

bool
interruptRequested()
{
    return gSignal != 0;
}

int
pendingSignal()
{
    return static_cast<int>(gSignal);
}

int
interruptExitCode()
{
    int s = pendingSignal();
    return s ? kExitSignalBase + s : kExitOk;
}

void
setInterruptForTest(int signo)
{
    gSignal = signo;
}

} // namespace nvmr::campaign
