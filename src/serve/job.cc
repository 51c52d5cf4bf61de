#include "serve/job.hh"

#include <cmath>
#include <cstdio>

#include "campaign/journal.hh"
#include "obs/json.hh"

namespace nvmr::serve
{

namespace
{

bool
wholeNumber(const JsonValue &v, uint64_t max, uint64_t &out,
            std::string &error, const std::string &key)
{
    if (v.kind != JsonValue::Kind::Number || v.num < 0 ||
        v.num != std::floor(v.num) ||
        v.num > static_cast<double>(max)) {
        error = "key '" + key + "' must be a whole number in [0, " +
                std::to_string(max) + "]";
        return false;
    }
    out = static_cast<uint64_t>(v.num);
    return true;
}

bool
stringList(const JsonValue &v, std::vector<std::string> &out,
           std::string &error, const std::string &key)
{
    if (!v.isArray()) {
        error = "key '" + key + "' must be an array of strings";
        return false;
    }
    out.clear();
    for (const JsonValue &e : v.arr) {
        if (e.kind != JsonValue::Kind::String) {
            error = "key '" + key + "' must be an array of strings";
            return false;
        }
        out.push_back(e.str);
    }
    return true;
}

} // namespace

std::string
JobSpec::configSpec() const
{
    campaign::Options watchdog;
    watchdog.watchdogCycles = watchdogCycles;
    watchdog.watchdogRetries = watchdogRetries;
    return type == JobType::Fuzz ? fuzzConfigSpec(fuzz, watchdog)
                                 : campaign::sweepConfigSpec(sweep, watchdog);
}

uint64_t
JobSpec::cellCount() const
{
    return type == JobType::Fuzz ? fuzzCellCount(fuzz)
                                 : campaign::sweepCellCount(sweep);
}

bool
parseJobText(const std::string &text, const std::string &name,
             JobSpec &out, std::string &error)
{
    out = JobSpec{};
    out.name = name;
    out.contentHash = campaign::fnv1a(text);

    JsonValue doc;
    if (!jsonParse(text, doc, &error))
        return false;
    if (!doc.isObject()) {
        error = "job document must be a JSON object";
        return false;
    }
    if (doc.stringAt("schema") != kJobSchema) {
        error = "schema must be \"" + std::string(kJobSchema) + "\"";
        return false;
    }
    std::string type = doc.stringAt("type");
    if (type == "sweep") {
        out.type = JobType::Sweep;
    } else if (type == "fuzz") {
        out.type = JobType::Fuzz;
    } else {
        error = "type must be \"sweep\" or \"fuzz\"";
        return false;
    }

    uint64_t u = 0;
    for (const auto &[key, v] : doc.obj) {
        if (key == "schema" || key == "type")
            continue;
        if (key == "deadline_ms") {
            if (!wholeNumber(v, 1ull << 40, out.deadlineMs, error,
                             key))
                return false;
        } else if (key == "retries") {
            if (!wholeNumber(v, 100, u, error, key))
                return false;
            out.retries = static_cast<unsigned>(u);
        } else if (key == "watchdog_cycles") {
            if (!wholeNumber(v, 1ull << 50, out.watchdogCycles,
                             error, key))
                return false;
        } else if (key == "watchdog_retries") {
            if (!wholeNumber(v, 100, u, error, key))
                return false;
            out.watchdogRetries = static_cast<unsigned>(u);
        } else if (key == "engine") {
            // Accepted and ignored: the simulator has one execution
            // engine. Job files written when the key chose between
            // two engines keep parsing (and keep their content hash,
            // so --resume still skips them).
        } else if (key == "workloads" && out.type == JobType::Sweep) {
            if (!stringList(v, out.sweep.workloads, error, key))
                return false;
        } else if (key == "archs" && out.type == JobType::Sweep) {
            if (!stringList(v, out.sweep.archs, error, key))
                return false;
        } else if (key == "policies" && out.type == JobType::Sweep) {
            if (!stringList(v, out.sweep.policies, error, key))
                return false;
        } else if (key == "caps" && out.type == JobType::Sweep) {
            if (!v.isArray()) {
                error = "key 'caps' must be an array of numbers";
                return false;
            }
            out.sweep.caps.clear();
            for (const JsonValue &e : v.arr) {
                if (e.kind != JsonValue::Kind::Number) {
                    error = "key 'caps' must be an array of numbers";
                    return false;
                }
                out.sweep.caps.push_back(e.num);
            }
        } else if (key == "traces" && out.type == JobType::Sweep) {
            if (!wholeNumber(v, 1u << 30, u, error, key))
                return false;
            out.sweep.traces = static_cast<int>(u);
        } else if (key == "iterations" && out.type == JobType::Fuzz) {
            if (!wholeNumber(v, ~0ull >> 1, out.fuzz.iterations,
                             error, key))
                return false;
        } else if (key == "base_seed" && out.type == JobType::Fuzz) {
            if (!wholeNumber(v, ~0ull >> 1, out.fuzz.baseSeed,
                             error, key))
                return false;
        } else if (key == "faults" && out.type == JobType::Fuzz) {
            if (v.kind != JsonValue::Kind::Bool) {
                error = "key 'faults' must be a boolean";
                return false;
            }
            out.fuzz.faults = v.boolean;
        } else if (key == "oracle" && out.type == JobType::Fuzz) {
            if (v.kind != JsonValue::Kind::Bool) {
                error = "key 'oracle' must be a boolean";
                return false;
            }
            out.fuzz.oracle = v.boolean;
        } else {
            error = "unknown key '" + key + "' for a " + type +
                    " job";
            return false;
        }
    }

    error = out.type == JobType::Sweep ? campaign::validateSweep(out.sweep)
                                       : validateFuzz(out.fuzz);
    return error.empty();
}

bool
parseJobFile(const std::string &path, const std::string &name,
             JobSpec &out, std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        error = "cannot open " + path;
        return false;
    }
    std::string text;
    char buf[1 << 14];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, got);
    bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad) {
        error = "read error on " + path;
        return false;
    }
    return parseJobText(text, name, out, error);
}

} // namespace nvmr::serve
