// perfbench: the end-to-end in situ benchmark of SmartBlock.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//
// Runs one workload (see workloads.cpp) for about `seconds` of timed work and
// prints, as the last line of stdout, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes a Chrome trace of the benchmark's spans under the workdir).
// Exits 1 after printing when any step failed or threw; exits 2 without a
// result on bad arguments, an SB_* variable in the environment, or a build
// that is not optimized.
#include <sys/vfs.h>

#include <cpuid.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "core/registry.hpp"
#include "obs/json.hpp"
#include "runner.hpp"

extern char** environ;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || !defined(__OPTIMIZE__)
constexpr bool kMeasurableBuild = false;
#else
constexpr bool kMeasurableBuild = true;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

/// Timed work is split into this many saturated + paced phase pairs.
constexpr int kEpisodes = 5;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".bench_build/work";
};

[[noreturn]] void usage_error(const std::string& msg) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>]\nworkloads:",
                 msg.c_str());
    for (const perfbench::Workload& w : perfbench::workloads()) {
        std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) usage_error("missing value for " + k);
        const std::string v = argv[++i];
        try {
            if (k == "--workload") {
                a.workload = v;
            } else if (k == "--seed") {
                a.seed = std::stoull(v);
            } else if (k == "--seconds") {
                a.seconds = std::stod(v);
            } else if (k == "--trace") {
                if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
                a.trace = v == "1";
            } else if (k == "--workdir") {
                a.workdir = v;
            } else {
                usage_error("unknown option " + k);
            }
        } catch (const std::logic_error&) {
            usage_error("bad value for " + k + ": " + v);
        }
    }
    if (a.workload.empty()) usage_error("--workload is required");
    if (!(a.seconds > 0.0)) usage_error("--seconds must be positive");
    return a;
}

std::string cpu_model() {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
        if (!__get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                         &regs[i * 4 + 2], &regs[i * 4 + 3])) {
            return "unknown";
        }
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    while (!s.empty() && s.back() == ' ') s.pop_back();
    return s;
}

bool on_tmpfs(const std::string& dir) {
    struct statfs st {};
    return statfs(dir.c_str(), &st) == 0 && st.f_type == 0x01021994;  // TMPFS_MAGIC
}

std::string host_json(const std::string& workdir) {
    namespace obs = sb::obs;
    return std::string("{\"nproc\":") + std::to_string(std::thread::hardware_concurrency()) +
           ",\"cpu\":\"" + obs::json_escape(cpu_model()) + "\"" +
           ",\"l2_bytes\":" + std::to_string(sysconf(_SC_LEVEL2_CACHE_SIZE)) +
           ",\"l3_bytes\":" + std::to_string(sysconf(_SC_LEVEL3_CACHE_SIZE)) +
           ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"" +
           ",\"compiler\":\"" + obs::json_escape(__VERSION__) + "\"" +
           ",\"workdir_tmpfs\":" + (on_tmpfs(workdir) ? "true" : "false") + "}";
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
    if (!kMeasurableBuild) {
        std::fprintf(stderr, "perfbench: refusing to measure a sanitizer or "
                             "unoptimized build\n");
        return 2;
    }
    // The SB_* knobs select alternate code paths; a benchmark run must
    // measure the default program, whatever the caller's environment.
    std::string knobs;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "SB_", 3) == 0) knobs += std::string(" ") + *e;
    }
    if (!knobs.empty()) {
        std::fprintf(stderr, "perfbench: refusing to run with SB_* set:%s\n", knobs.c_str());
        return 2;
    }
    const perfbench::Workload* w = perfbench::find_workload(args.workload);
    if (w == nullptr) usage_error("unknown workload '" + args.workload + "'");

    perfbench::Outcome o;
    try {
        std::filesystem::create_directories(args.workdir);
        sb::core::register_builtin_components();
        std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", w->name.c_str(),
                    static_cast<unsigned long long>(args.seed), args.seconds,
                    args.trace ? 1 : 0);
        std::printf("host %s\n", host_json(args.workdir).c_str());
        if (w->durable) {
            std::printf("note: the durable log lives under %s with fsync=never; disk and "
                        "fsync timing are not measured\n",
                        args.workdir.c_str());
        }
        std::fflush(stdout);
        const perfbench::Inputs in = perfbench::make_inputs(*w, args.seed);
        if (args.trace) {
            const std::string trace = args.workdir + "/" + w->name + ".trace.json";
            o = perfbench::measure_layers(in, args.seconds, kEpisodes, args.workdir, trace);
        } else {
            o = perfbench::measure_end_to_end(in, args.seconds, kEpisodes, args.workdir);
        }
    } catch (const std::exception& e) {
        o.errors.push_back(e.what());
    }

    for (const std::string& n : o.notes) std::printf("note: %s\n", n.c_str());
    for (const std::string& e : o.errors) std::printf("error: %s\n", e.c_str());
    for (const auto& [name, m] : o.metrics) {
        std::printf("%-36s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    }
    const double error_rate =
        o.attempted > 0 ? static_cast<double>(o.failed) / static_cast<double>(o.attempted)
                        : 1.0;
    std::printf("error_rate %.6g (%llu of %llu steps failed)\n", error_rate,
                static_cast<unsigned long long>(o.failed),
                static_cast<unsigned long long>(o.attempted));

    const bool correct = o.failed == 0 && o.errors.empty() && o.attempted > 0;
    // A run that published nothing reports one attempted, failed step.
    const std::uint64_t attempted = std::max<std::uint64_t>(o.attempted, 1);
    const std::uint64_t failed = o.attempted > 0 ? o.failed : 1;
    std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : o.metrics) {
        json += (first ? "" : ", ") + std::string("\"") + sb::obs::json_escape(name) +
                "\": {\"value\": " + sb::obs::json_number(m.value) + ", \"unit\": \"" +
                sb::obs::json_escape(m.unit) + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
