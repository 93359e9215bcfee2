#ifndef ORION_BENCH_BENCH_UTIL_H_
#define ORION_BENCH_BENCH_UTIL_H_

/**
 * @file
 * Shared helpers for the per-table/figure benchmark binaries. Each binary
 * regenerates one table or figure of the paper (see DESIGN.md's
 * per-experiment index) and prints it in a comparable layout.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/core/orion.h"
#include "src/core/telemetry.h"

namespace orion::bench {

/** Parsed command-line / environment options shared by every bench. */
struct BenchOptions {
    /**
     * Smoke mode: each experiment runs one tiny iteration so CI can verify
     * every binary end to end without multi-minute runtimes. Enabled by
     * `--smoke` or a nonempty $ORION_BENCH_SMOKE.
     */
    bool smoke = false;
    /** `--threads N`: the global kernel pool's size (0 = all cores). */
    int num_threads = -1;  // -1 = leave the global pool as it is
    /**
     * `--json <path>`: write a machine-readable report of every metric
     * recorded via json_metric() on exit. This is the repo's perf
     * trajectory: CI uploads one BENCH_<name>.json per benchmark run.
     */
    std::string json_path;
};

inline BenchOptions&
options()
{
    static BenchOptions opts;
    return opts;
}

namespace detail {

/** Accumulated state of the JSON report (metrics in recording order). */
struct JsonReport {
    std::string bench_name;
    std::vector<std::pair<std::string, double>> metrics;
    std::chrono::steady_clock::time_point start;
};

inline JsonReport&
json_report()
{
    static JsonReport report;
    return report;
}

/** Minimal JSON string escape (quotes, backslashes, control chars). */
inline std::string
json_escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out.push_back(' ');
        } else {
            out.push_back(c);
        }
    }
    return out;
}

#ifndef ORION_CONFIGURED_GIT_SHA
#define ORION_CONFIGURED_GIT_SHA ""
#endif

/**
 * Best-effort commit id: $ORION_GIT_SHA, then $GITHUB_SHA, then the HEAD
 * CMake saw at configure time, else unknown.
 */
inline std::string
git_sha()
{
    for (const char* var : {"ORION_GIT_SHA", "GITHUB_SHA"}) {
        if (const char* env = std::getenv(var)) {
            if (env[0] != '\0') return env;
        }
    }
    const std::string configured = ORION_CONFIGURED_GIT_SHA;
    return configured.empty() ? "unknown" : configured;
}

inline void
write_json_report()
{
    const BenchOptions& opts = options();
    if (opts.json_path.empty()) return;
    const JsonReport& report = json_report();
    std::FILE* f = std::fopen(opts.json_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "warning: cannot write %s\n",
                     opts.json_path.c_str());
        return;
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      report.start)
            .count();
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"%s\",\n",
                 json_escape(report.bench_name).c_str());
    std::fprintf(f, "  \"git_sha\": \"%s\",\n",
                 json_escape(git_sha()).c_str());
    std::fprintf(f, "  \"threads\": %d,\n", core::ThreadPool::global_threads());
    std::fprintf(f, "  \"smoke\": %s,\n", opts.smoke ? "true" : "false");
    std::fprintf(f, "  \"wall_time_s\": %.6f,\n", wall);
    std::fprintf(f, "  \"metrics\": {");
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        std::fprintf(f, "%s\n    \"%s\": %.9g", i == 0 ? "" : ",",
                     json_escape(report.metrics[i].first).c_str(),
                     report.metrics[i].second);
    }
    // The process registry's snapshot rides along, so BENCH_*.json and a
    // live server's metrics_text() share one schema (op counters, arena,
    // stage histograms, and the bench.* mirrors of the rows above).
    std::fprintf(f, "\n  },\n  \"telemetry\": {");
    const std::map<std::string, double> snap =
        telemetry::Registry::global().snapshot();
    std::size_t t = 0;
    for (const auto& [name, value] : snap) {
        std::fprintf(f, "%s\n    \"%s\": %.9g", t++ == 0 ? "" : ",",
                     json_escape(name).c_str(), value);
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("[json report: %s]\n", opts.json_path.c_str());
}

}  // namespace detail

/**
 * Records one named metric (typically a latency in ms) for the JSON
 * report. No-op unless `--json <path>` was passed; later records with the
 * same name overwrite the earlier value.
 */
inline void
json_metric(const std::string& name, double value)
{
    // Mirror every bench metric into the process registry under bench.*:
    // the registry is the shared schema, the JSON report a view of it.
    telemetry::Registry::global().gauge("bench." + name).set(value);
    if (options().json_path.empty()) return;
    for (auto& [k, v] : detail::json_report().metrics) {
        if (k == name) {
            v = value;
            return;
        }
    }
    detail::json_report().metrics.emplace_back(name, value);
}

/**
 * Parses --smoke / --threads N / --json PATH (and $ORION_BENCH_SMOKE),
 * resizes the global kernel pool to N (core::set_num_threads; a count
 * that is not a non-negative integer exits with status 2), and registers
 * the exit-time JSON report writer. Call first thing in every main().
 */
inline void
init(int argc, char** argv)
{
    BenchOptions& opts = options();
    if (const char* env = std::getenv("ORION_BENCH_SMOKE")) {
        if (env[0] != '\0' && std::strcmp(env, "0") != 0) opts.smoke = true;
    }
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            opts.smoke = true;
        } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            try {
                opts.num_threads =
                    core::parse_thread_count(argv[++i], "--threads");
            } catch (const Error& e) {
                std::fprintf(stderr, "%s\n", e.what());
                std::exit(2);
            }
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            opts.json_path = argv[++i];
        }
        // Unrecognized arguments are left for the binary's own flags.
    }
    if (opts.num_threads >= 0) core::set_num_threads(opts.num_threads);
    if (opts.smoke) std::printf("[smoke mode: tiny single iterations]\n");
    if (!opts.json_path.empty()) {
        detail::JsonReport& report = detail::json_report();
        report.start = std::chrono::steady_clock::now();
        const char* slash = (argc > 0) ? std::strrchr(argv[0], '/') : nullptr;
        report.bench_name =
            (argc > 0) ? (slash ? slash + 1 : argv[0]) : "unknown";
        std::atexit(detail::write_json_report);
    }
}

inline bool
smoke()
{
    return options().smoke;
}

/** Repetition count: `full` normally, 1 in smoke mode. */
inline int
reps(int full)
{
    return smoke() ? 1 : full;
}

inline std::vector<double>
random_vector(std::size_t n, double range = 1.0, u64 seed = 42)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-range, range);
    std::vector<double> out(n);
    for (double& x : out) x = dist(rng);
    return out;
}

/** Wall-clock seconds of one call. */
template <typename F>
double
time_once(F&& f)
{
    const auto t0 = std::chrono::steady_clock::now();
    f();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Median wall-clock seconds over `reps` calls. */
template <typename F>
double
time_median(int reps, F&& f)
{
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) times.push_back(time_once(f));
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

/** Max |a - b| over the common prefix. */
inline double
max_abs_diff(const std::vector<double>& a, const std::vector<double>& b)
{
    double m = 0.0;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        m = std::max(m, std::abs(a[i] - b[i]));
    }
    return m;
}

/** Table 2's precision metric: -log2(mean absolute difference). */
inline double
precision_bits(const std::vector<double>& got,
               const std::vector<double>& want)
{
    double sum = 0.0;
    const std::size_t n = std::min(got.size(), want.size());
    for (std::size_t i = 0; i < n; ++i) sum += std::abs(got[i] - want[i]);
    const double mean = sum / static_cast<double>(std::max<std::size_t>(n, 1));
    return -std::log2(std::max(mean, 1e-300));
}

/** Fraction of runs where both vectors share the argmax (top-1 agreement). */
inline bool
same_argmax(const std::vector<double>& a, const std::vector<double>& b)
{
    std::size_t ia = 0, ib = 0;
    for (std::size_t i = 1; i < a.size(); ++i) {
        if (a[i] > a[ia]) ia = i;
    }
    for (std::size_t i = 1; i < b.size(); ++i) {
        if (b[i] > b[ib]) ib = i;
    }
    return ia == ib;
}

inline void
print_header(const std::string& title)
{
    std::printf("\n================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("================================================================\n");
}

}  // namespace orion::bench

#endif  // ORION_BENCH_BENCH_UTIL_H_
