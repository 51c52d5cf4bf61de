/**
 * @file
 * Crash-resume self-test harness (docs/operations.md): repeatedly
 * SIGKILLs a journaled campaign at randomized points, resumes it,
 * and asserts the finally-merged output is bit-identical to an
 * uninterrupted run. Between one of the kills it also tears the
 * journal tail mid-record -- a frame header promising more payload
 * than was written -- to prove torn-write recovery, and it repeats
 * the whole scenario at two worker counts.
 *
 *     nvmr_killer [--seed N] [--min-kills N] [--max-restarts N]
 *                 -- TOOL [ARGS...]
 *     nvmr_killer --serve [...] -- nvmr_serve --spool DIR
 *
 * TOOL must accept --journal/--resume/--stats-json/--jobs (any of
 * the five campaign drivers). Everything after `--` is the victim
 * command; nvmr_killer appends the campaign flags itself. Exit 0
 * when every scenario converged byte-identically, 1 otherwise.
 *
 * With `--serve` the victim is an nvmr_serve invocation (the caller
 * supplies `--spool`; the killer owns `--state`): the service is
 * SIGKILL'd mid-campaign and restarted with `--resume` until the
 * spool drains, then every per-job output under <state>/out/ must be
 * byte-identical to an uninterrupted service run -- proving the
 * per-job journals, the service journal, and the output writers are
 * all crash-consistent together.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <dirent.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hh"
#include "common/xorshift.hh"

using nvmr::XorShift;

namespace
{

/** Run the victim with extra flags, stdout to `out_path`; when
 *  `kill_after_ms` is nonzero, SIGKILL it after that delay. Returns
 *  the wait status, or -1 on spawn failure. Whether the kill landed
 *  must be judged from WIFSIGNALED -- kill(2) "succeeds" even when
 *  the child already exited and is a zombie awaiting waitpid. */
int
runVictim(const std::vector<std::string> &base,
          const std::vector<std::string> &extra,
          const std::string &out_path, unsigned kill_after_ms)
{
    std::vector<const char *> argv;
    for (const std::string &a : base)
        argv.push_back(a.c_str());
    for (const std::string &a : extra)
        argv.push_back(a.c_str());
    argv.push_back(nullptr);

    pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        return -1;
    }
    if (pid == 0) {
        int fd = ::open(out_path.c_str(),
                        O_CREAT | O_WRONLY | O_TRUNC, 0644);
        if (fd < 0)
            _exit(127);
        dup2(fd, STDOUT_FILENO);
        ::close(fd);
        int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            dup2(devnull, STDERR_FILENO);
            ::close(devnull);
        }
        execv(argv[0], const_cast<char *const *>(argv.data()));
        _exit(127);
    }

    if (kill_after_ms) {
        struct timespec ts;
        ts.tv_sec = kill_after_ms / 1000;
        ts.tv_nsec =
            static_cast<long>(kill_after_ms % 1000) * 1000000L;
        nanosleep(&ts, nullptr);
        // The child may have finished already; a stray ESRCH (or a
        // "successful" kill of its zombie) is fine.
        ::kill(pid, SIGKILL);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
}

bool
filesIdentical(const std::string &a, const std::string &b)
{
    std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
    if (!fa || !fb)
        return false;
    std::stringstream sa, sb;
    sa << fa.rdbuf();
    sb << fb.rdbuf();
    return sa.str() == sb.str();
}

uint64_t
fileSize(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<uint64_t>(st.st_size)
               : 0;
}

/** Append a torn record to the journal: a frame header promising a
 *  large payload, followed by only a few payload bytes. The loader
 *  must drop it as a truncated tail and the resume must truncate it
 *  away. */
bool
tearJournalTail(const std::string &path)
{
    std::ofstream os(path, std::ios::binary | std::ios::app);
    if (!os)
        return false;
    uint32_t len = 100000; // promised payload, never delivered
    uint8_t type = 1;      // Cell
    uint64_t key = 0xdeadbeefdeadbeefull;
    os.write(reinterpret_cast<const char *>(&len), 4);
    os.write(reinterpret_cast<const char *>(&type), 1);
    os.write(reinterpret_cast<const char *>(&key), 8);
    os.write("torn", 4);
    return os.good();
}

/**
 * One full scenario: kill the campaign at random points until it
 * completes, then compare against the clean reference. Returns the
 * number of kills landed, or -1 on harness/compare failure.
 */
int
runScenario(const std::vector<std::string> &victim,
            const std::string &dir, const std::string &jobs,
            unsigned max_delay_ms, XorShift &rng,
            const std::string &clean_out,
            const std::string &clean_json)
{
    std::string journal = dir + "/killer_j" + jobs + ".jrn";
    std::string out = dir + "/killer_j" + jobs + ".out";
    std::string json = dir + "/killer_j" + jobs + ".json";
    std::remove(journal.c_str());

    int kills = 0;
    bool tore_tail = false;
    bool first = true;
    // The kill window adapts: when a kill lands without the journal
    // having grown, the window was shorter than one cell's compute
    // time (plus startup), so it widens until resumes make progress.
    unsigned delay_cap = max_delay_ms;
    uint64_t last_size = 0;
    for (int attempt = 0; attempt < 1000; ++attempt) {
        std::vector<std::string> extra = {
            first ? "--journal" : "--resume", journal,
            "--stats-json",      json,
            "--jobs",            jobs,
        };
        first = false;
        unsigned delay = 40 + rng.next() % (delay_cap - 39);
        int status = runVictim(victim, extra, out, delay);
        if (status < 0)
            return -1;
        if (WIFSIGNALED(status)) {
            ++kills;
            uint64_t size = fileSize(journal);
            if (size <= last_size && delay_cap < 10000)
                delay_cap *= 2;
            last_size = size;
            // Tear the tail once, mid-scenario, to exercise the
            // torn-write recovery path on the next resume.
            if (!tore_tail && kills >= 2) {
                if (!tearJournalTail(journal)) {
                    std::fprintf(stderr,
                                 "killer: cannot tear %s\n",
                                 journal.c_str());
                    return -1;
                }
                tore_tail = true;
            }
            continue;
        }
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            std::fprintf(stderr,
                         "killer: victim exited with status %d "
                         "after %d kill(s)\n",
                         WEXITSTATUS(status), kills);
            return -1;
        }
        // Completed: the merged output must match the clean run.
        if (!filesIdentical(out, clean_out)) {
            std::fprintf(stderr,
                         "killer: stdout differs from clean run "
                         "(--jobs %s, %d kills)\n",
                         jobs.c_str(), kills);
            return -1;
        }
        if (!filesIdentical(json, clean_json)) {
            std::fprintf(stderr,
                         "killer: stats JSON differs from clean run "
                         "(--jobs %s, %d kills)\n",
                         jobs.c_str(), kills);
            return -1;
        }
        return kills;
    }
    std::fprintf(stderr, "killer: campaign never completed\n");
    return -1;
}

std::vector<std::string>
listDir(const std::string &path)
{
    std::vector<std::string> names;
    DIR *dir = ::opendir(path.c_str());
    if (!dir)
        return names;
    while (struct dirent *ent = ::readdir(dir)) {
        std::string name = ent->d_name;
        if (name != "." && name != "..")
            names.push_back(name);
    }
    ::closedir(dir);
    std::sort(names.begin(), names.end());
    return names;
}

/** Best-effort recursive delete of a killer-owned state tree. */
void
removeTree(const std::string &path)
{
    for (const std::string &name : listDir(path)) {
        std::string child = path + "/" + name;
        if (::unlink(child.c_str()) == 0)
            continue;
        removeTree(child);
    }
    ::rmdir(path.c_str());
}

/** Crash-progress metric for a service state dir: total bytes in
 *  the service journal plus every per-job journal. A kill that did
 *  not grow this means the window closed before a cell finished. */
uint64_t
serveJournalBytes(const std::string &state)
{
    uint64_t total = fileSize(state + "/serve.jrn");
    for (const std::string &name : listDir(state + "/jrn"))
        total += fileSize(state + "/jrn/" + name);
    return total;
}

bool
hasSuffix(const std::string &s, const char *suffix)
{
    size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** Compare the durable per-job outputs of two service state dirs:
 *  same file set, byte-identical contents. Heartbeat metrics and
 *  tmp files are transient by contract and excluded. */
bool
serveOutputsIdentical(const std::string &state_a,
                      const std::string &state_b)
{
    auto durable = [](const std::string &state) {
        std::vector<std::string> names;
        for (const std::string &n : listDir(state + "/out"))
            if (hasSuffix(n, ".csv") || hasSuffix(n, ".out") ||
                hasSuffix(n, ".stats.json"))
                names.push_back(n);
        return names;
    };
    std::vector<std::string> a = durable(state_a);
    std::vector<std::string> b = durable(state_b);
    if (a != b) {
        std::fprintf(stderr,
                     "killer: output sets differ (%zu vs %zu "
                     "durable files)\n",
                     a.size(), b.size());
        return false;
    }
    for (const std::string &name : a) {
        if (!filesIdentical(state_a + "/out/" + name,
                            state_b + "/out/" + name)) {
            std::fprintf(stderr, "killer: %s differs from clean "
                         "service run\n", name.c_str());
            return false;
        }
    }
    return true;
}

/**
 * One --serve scenario: SIGKILL the service at random points,
 * restart it with --resume, and once the spool drains compare every
 * durable output against the clean service run. Returns kills
 * landed, or -1 on failure.
 */
int
runServeScenario(const std::vector<std::string> &victim,
                 const std::string &dir, const std::string &jobs,
                 unsigned max_delay_ms, XorShift &rng,
                 const std::string &clean_state)
{
    std::string state = dir + "/killer_serve_j" + jobs;
    std::string out = state + ".log";
    removeTree(state);

    int kills = 0;
    bool tore_tail = false;
    bool first = true;
    unsigned delay_cap = max_delay_ms;
    uint64_t last_size = 0;
    for (int attempt = 0; attempt < 1000; ++attempt) {
        std::vector<std::string> extra = {
            "--state", state,           "--once",
            "--jobs",  jobs,            "--no-job-metrics",
        };
        if (!first)
            extra.push_back("--resume");
        first = false;
        unsigned delay = 40 + rng.next() % (delay_cap - 39);
        int status = runVictim(victim, extra, out, delay);
        if (status < 0)
            return -1;
        if (WIFSIGNALED(status)) {
            ++kills;
            uint64_t size = serveJournalBytes(state);
            if (size <= last_size && delay_cap < 10000)
                delay_cap *= 2;
            last_size = size;
            // Tear the service journal's tail once to exercise
            // torn-write recovery on the service-level records too
            // (the per-job journals already get torn tails from the
            // plain campaign scenarios).
            if (!tore_tail && kills >= 2) {
                if (!tearJournalTail(state + "/serve.jrn")) {
                    std::fprintf(stderr,
                                 "killer: cannot tear %s/serve.jrn\n",
                                 state.c_str());
                    return -1;
                }
                tore_tail = true;
            }
            continue;
        }
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            std::fprintf(stderr,
                         "killer: service exited with status %d "
                         "after %d kill(s)\n",
                         WEXITSTATUS(status), kills);
            return -1;
        }
        if (!serveOutputsIdentical(state, clean_state)) {
            std::fprintf(stderr,
                         "killer: serve outputs differ from clean "
                         "run (--jobs %s, %d kills)\n",
                         jobs.c_str(), kills);
            return -1;
        }
        return kills;
    }
    std::fprintf(stderr, "killer: service never drained\n");
    return -1;
}

void
usage(FILE *out)
{
    std::fputs(
        "nvmr_killer: crash-resume self-test -- SIGKILL a journaled\n"
        "campaign at random points, resume it, and require output\n"
        "byte-identical to an uninterrupted run\n"
        "\n"
        "usage: nvmr_killer [options] -- TOOL ARGS...\n"
        "       nvmr_killer --serve [options] -- nvmr_serve --spool "
        "DIR\n"
        "\n"
        "  --seed N              kill-point seed (default 1)\n"
        "  --min-kills N         kills required per scenario "
        "(default 5)\n"
        "  --max-restarts N      restart limit per scenario "
        "(default 25)\n"
        "  --serve               the victim is nvmr_serve\n"
        "\n"
        "NVMR_KILLER_DIR sets the scratch directory (default .).\n",
        out);
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seed = 1;
    int min_kills = 5;
    int max_restarts = 25;
    bool serve_mode = false;
    std::vector<std::string> victim;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--" && i + 1 < argc) {
            for (int k = i + 1; k < argc; ++k)
                victim.push_back(argv[k]);
            break;
        }
        auto need = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             argv[i]);
                exit(2);
            }
            return argv[++i];
        };
        // Counts past INT_MAX mean "unbounded"; clamp them.
        auto count = [&]() {
            return static_cast<int>(std::min<uint64_t>(
                nvmr::cli::parseU64(need(), a), INT_MAX));
        };
        if (a == "--seed") {
            seed = nvmr::cli::parseU64(need(), a);
        } else if (a == "--min-kills") {
            min_kills = count();
        } else if (a == "--max-restarts") {
            max_restarts = count();
        } else if (a == "--serve") {
            serve_mode = true;
        } else if (a == "-h" || a == "--help") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument %s\n", a.c_str());
            usage(stderr);
            return 2;
        }
    }
    if (victim.empty()) {
        usage(stderr);
        return 2;
    }

    const char *dir_env = std::getenv("NVMR_KILLER_DIR");
    std::string dir = dir_env ? dir_env : ".";
    ::mkdir(dir.c_str(), 0755); // best-effort; may already exist

    if (serve_mode) {
        // Clean reference: drain the spool once, uninterrupted.
        std::string clean_state = dir + "/killer_serve_clean";
        removeTree(clean_state);
        std::string clean_log = clean_state + ".log";
        int status = runVictim(victim,
                               {"--state", clean_state, "--once",
                                "--no-job-metrics"},
                               clean_log, 0);
        if (status < 0 || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0) {
            std::fprintf(stderr,
                         "killer: clean service run failed\n");
            return 1;
        }

        XorShift rng(seed * 2654435761ull + 1);
        for (const char *jobs : {"1", "4"}) {
            unsigned max_delay_ms = 400;
            int kills = -1;
            for (int restart = 0; restart < max_restarts;
                 ++restart) {
                kills = runServeScenario(victim, dir, jobs,
                                         max_delay_ms, rng,
                                         clean_state);
                if (kills < 0)
                    return 1;
                if (kills >= min_kills)
                    break;
                max_delay_ms = max_delay_ms > 80
                                   ? max_delay_ms / 2
                                   : 80;
                std::printf("killer: serve --jobs %s drained after "
                            "only %d kill(s); retrying with <=%u ms "
                            "delays\n",
                            jobs, kills, max_delay_ms);
            }
            if (kills < min_kills) {
                std::fprintf(stderr,
                             "killer: could not land %d kills at "
                             "serve --jobs %s (spool too small?)\n",
                             min_kills, jobs);
                return 1;
            }
            std::printf("killer: serve --jobs %s survived %d "
                        "SIGKILLs (1 torn tail) with byte-identical "
                        "outputs\n",
                        jobs, kills);
        }
        std::puts("killer: all serve scenarios byte-identical");
        return 0;
    }

    // Clean reference run (no journal, default worker count).
    std::string clean_out = dir + "/killer_clean.out";
    std::string clean_json = dir + "/killer_clean.json";
    int status = runVictim(victim,
                           {"--stats-json", clean_json}, clean_out,
                           0);
    if (status < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "killer: clean run failed\n");
        return 1;
    }

    XorShift rng(seed * 2654435761ull + 1);
    for (const char *jobs : {"1", "4"}) {
        // The kill delays shrink on every restart until enough kills
        // land before the campaign finishes.
        unsigned max_delay_ms = 400;
        int kills = -1;
        for (int restart = 0; restart < max_restarts; ++restart) {
            kills = runScenario(victim, dir, jobs, max_delay_ms, rng,
                                clean_out, clean_json);
            if (kills < 0)
                return 1;
            if (kills >= min_kills)
                break;
            max_delay_ms = max_delay_ms > 80
                               ? max_delay_ms / 2
                               : 80;
            std::printf("killer: --jobs %s converged after only %d "
                        "kill(s); retrying with <=%u ms delays\n",
                        jobs, kills, max_delay_ms);
        }
        if (kills < min_kills) {
            std::fprintf(stderr,
                         "killer: could not land %d kills at "
                         "--jobs %s (campaign too short?)\n",
                         min_kills, jobs);
            return 1;
        }
        std::printf("killer: --jobs %s survived %d SIGKILLs "
                    "(1 torn tail) with byte-identical output\n",
                    jobs, kills);
    }
    std::puts("killer: all scenarios byte-identical");
    return 0;
}
