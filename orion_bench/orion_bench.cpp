/**
 * @file
 * orion_bench: the repository's benchmark. One process runs one workload
 * end to end, checks every output against cleartext, and prints its
 * metrics by name with their units. The last stdout line is one JSON
 * object:
 *
 *   {"correct": true, "attempted": N, "failed": 0,
 *    "metrics": {"latency_p50_ms": {"value": 412.7, "unit": "ms"}, ...}}
 *
 * Usage:
 *   orion_bench --workload NAME --seed N --seconds S --trace 0|1
 *               [--trace-file PATH] [--smoke]
 *
 * Workloads (README.md explains why each exists):
 *   lola-boot         LoLA at CkksParams::bootstrap_toy(2): three
 *                     bootstraps per request, one client, one request at
 *                     a time on 4 kernel threads.
 *   lola-n13          LoLA at CkksParams::network(2^13, 14): rotation and
 *                     key-switch bound, two clients, two requests in
 *                     flight on one kernel thread each.
 *   micro-net         The micro MLP behind a net::Router and two TCP
 *                     shards; key-bundle re-registrations run beside
 *                     inference.
 *   resnet20-compile  Compile + simulate ResNet-20: compiler, placement
 *                     and the cleartext backend, no CKKS.
 *
 * Every workload is a closed loop (each client waits for its reply)
 * that runs for --seconds after set-up and warm-up. --seed derives the
 * inputs, client key seeds and session tokens; the models are fixed.
 * --trace 0 prints the end-to-end metrics. --trace 1 prints the
 * per-layer metrics instead; it also traces one extra set-up and a few
 * requests sent one at a time, alternating with untraced ones, writes the
 * chrome://tracing JSON to --trace-file, prints self time per span name
 * and reports trace.overhead_ratio (traced over untraced median latency).
 * --smoke replaces the timed loop with two requests and one set-up.
 *
 * Layers are measured from outside the library: wall time around public
 * calls, RequestStats, and deltas of the process registry (ckks.op.*,
 * boot.*.seconds, net.bytes.*). The exit code is 0 only when every
 * request succeeded and every self-check held.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/core/orion.h"
#include "src/core/telemetry.h"
#include "src/net/net.h"
#include "src/serve/serve.h"

using namespace orion;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ metric tables

struct MetricDef {
    const char* name;
    const char* unit;
};

// BENCHMARK.json declares exactly these names and units.
constexpr MetricDef kEndToEnd[] = {
    {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"},
    {"throughput_rps", "req/s"}, {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},  {"precision_bits", "bits"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.compile.wall_s", "s"},
    {"core.compile.placement_ms", "ms"},
    {"core.compile.bootstraps", "count"},
    {"core.compile.rotations", "count"},
    {"core.compile.modeled_s", "s"},
    {"core.prepare.wall_s", "s"},
    {"core.simulate.wall_ms", "ms"},
    {"linalg.linear_ms", "ms"},
    {"approx.activation_ms", "ms"},
    {"ckks.boot.total_ms", "ms"},
    {"core.exec.other_ms", "ms"},
    {"core.exec.accounted_ratio", "ratio"},
    {"core.model.linear_ratio", "ratio"},
    {"core.model.activation_ratio", "ratio"},
    {"core.model.boot_ratio", "ratio"},
    {"ckks.keyswitch_per_req", "count"},
    {"ckks.ntt_per_req", "count"},
    {"ckks.decompose_per_req", "count"},
    {"ckks.rot_per_req", "count"},
    {"ckks.rot_hoisted_per_req", "count"},
    {"ckks.pmult_per_req", "count"},
    {"ckks.hmult_per_req", "count"},
    {"ckks.rescale_per_req", "count"},
    {"ckks.arena_hit_ratio", "ratio"},
    {"ckks.boot.per_req", "count"},
    {"ckks.boot.mod_raise_ms", "ms"},
    {"ckks.boot.cts_ms", "ms"},
    {"ckks.boot.eval_mod_ms", "ms"},
    {"ckks.boot.stc_ms", "ms"},
    {"serve.client.keygen_s", "s"},
    {"serve.client.bundle_mib", "MiB"},
    {"serve.client.encrypt_ms", "ms"},
    {"serve.client.decrypt_ms", "ms"},
    {"serve.client.request_kib", "KiB"},
    {"serve.client.response_kib", "KiB"},
    {"serve.register_p50_ms", "ms"},
    {"serve.server.queue_p50_ms", "ms"},
    {"serve.server.execute_p50_ms", "ms"},
    {"serve.keys.hit_ratio", "ratio"},
    {"net.router.forward_p50_ms", "ms"},
    {"net.transport_ms", "ms"},
    {"net.bytes_per_req_kib", "KiB"},
    {"net.shard_share_max", "ratio"},
    {"net.client_retries", "count"},
    {"trace.overhead_ratio", "ratio"},
};

/**
 * Registry counters whose per-request deltas must repeat exactly: every
 * request runs the same program, so any drift is a benchmark or program
 * fault, not noise.
 */
constexpr std::pair<const char*, const char*> kOpCounts[] = {
    {"ckks.keyswitch_per_req", "ckks.op.keyswitch"},
    {"ckks.ntt_per_req", "ckks.op.ntt"},
    {"ckks.decompose_per_req", "ckks.op.decompose"},
    {"ckks.rot_per_req", "ckks.op.hrot"},
    {"ckks.rot_hoisted_per_req", "ckks.op.hrot_hoisted"},
    {"ckks.pmult_per_req", "ckks.op.pmult"},
    {"ckks.hmult_per_req", "ckks.op.hmult"},
    {"ckks.rescale_per_req", "ckks.op.rescale"},
};
constexpr std::size_t kNumOpCounts = std::size(kOpCounts);

constexpr const char* kBootStages[] = {"mod_raise", "cts", "eval_mod",
                                       "stc"};

/** A CKKS request below this many bits of agreement has failed. */
constexpr double kPrecisionFloorBits = 8.0;
/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 5;
/** One warm-up request per client, and at least two to compare. */
constexpr int kMinWarmups = 2;
/** Untraced + traced request pairs in the traced phase of --trace 1. */
constexpr int kTracedPairs = 5;
constexpr int kSmokeRequests = 2;

/** Independent seed streams, one per kind of generated input. */
enum Stream : u64 {
    kInputStream = 1,
    kClientKeyStream,
    kTokenStream,
    kSideCallStream,
};

// ------------------------------------------------------------ small helpers

struct Args {
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_file = "orion_bench_trace.json";
    bool smoke = false;
};

/** Linear interpolation between closest ranks; p in [0, 1]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double>& v)
{
    return percentile(v, 0.5);
}

/** Element `index` of seed stream `stream` of the run seed. */
u64
derive(u64 seed, Stream stream, u64 index)
{
    return ckks::splitmix64(
        ckks::splitmix64(ckks::splitmix64(seed) ^ stream) ^ index);
}

std::vector<double>
seeded_input(std::size_t n, u64 stream)
{
    std::mt19937_64 rng(stream);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> x(n);
    for (double& v : x) v = dist(rng);
    return x;
}

/** -log2(max |got - want| / max |want|): bits of agreement. */
double
precision_bits(const std::vector<double>& got,
               const std::vector<double>& want)
{
    ORION_CHECK(got.size() == want.size(),
                "output has " << got.size() << " values, cleartext "
                              << want.size());
    double err = 0.0, mag = 0.0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (!std::isfinite(got[i])) return 0.0;
        err = std::max(err, std::abs(got[i] - want[i]));
        mag = std::max(mag, std::abs(want[i]));
    }
    // An exact match reads as 52 bits, a double's mantissa.
    return std::min(52.0, -std::log2(std::max(err, 1e-300) /
                                     std::max(mag, 1e-300)));
}

std::size_t
argmax(const std::vector<double>& v)
{
    return static_cast<std::size_t>(
        std::max_element(v.begin(), v.end()) - v.begin());
}

/** Peak resident set (VmHWM) of this process in MiB. */
double
peak_rss_mib()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double mib = 0.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        long kb = 0;
        if (std::sscanf(line, "VmHWM: %ld", &kb) == 1) {
            mib = static_cast<double>(kb) / 1024.0;
            break;
        }
    }
    std::fclose(f);
    return mib;
}

using Snapshot = std::map<std::string, double>;

Snapshot
registry_snapshot()
{
    return telemetry::Registry::global().snapshot();
}

double
get(const Snapshot& s, const std::string& key)
{
    const auto it = s.find(key);
    return it == s.end() ? 0.0 : it->second;
}

std::vector<double>
op_delta(const Snapshot& before, const Snapshot& after)
{
    std::vector<double> d;
    for (const auto& [metric, counter] : kOpCounts) {
        d.push_back(get(after, counter) - get(before, counter));
    }
    return d;
}

// ------------------------------------------------------------ results

/** One workload run: its metrics, request ledger and self-check results. */
struct Outcome {
    std::map<std::string, double> metrics;
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> violations;

    void
    require(bool ok, const std::string& what)
    {
        if (ok) return;
        std::fprintf(stderr, "self-check failed: %s\n", what.c_str());
        violations.push_back(what);
    }
};

/** One request (or one compile+simulate iteration) as a client saw it. */
struct Record {
    bool ok = false;
    double latency_ms = 0.0;
    double encrypt_ms = 0.0;
    double decrypt_ms = 0.0;
    double queue_ms = 0.0;
    double execute_ms = 0.0;
    double bits = 0.0;
    double request_kib = 0.0;
    double response_kib = 0.0;
    std::vector<core::LayerTiming> layers;
};

std::vector<double>
column(const std::vector<Record>& recs, double Record::*field)
{
    std::vector<double> out;
    for (const Record& r : recs) {
        if (r.ok) out.push_back(r.*field);
    }
    return out;
}

/**
 * Closed loop: `clients` threads, each issuing its next request only
 * after the previous one returned, until the deadline (or, in smoke mode,
 * until kSmokeRequests are spread over the clients). Returns every record
 * and the wall time from the first send to the last reply.
 */
std::vector<Record>
closed_loop(int clients, const Args& args,
            const std::function<Record(int, u64)>& request, double* wall_s)
{
    const int smoke_per_client = (kSmokeRequests + clients - 1) / clients;
    std::vector<std::vector<Record>> per(static_cast<std::size_t>(clients));
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(args.seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            auto& out = per[static_cast<std::size_t>(c)];
            for (u64 i = 0;; ++i) {
                if (args.smoke ? i >= static_cast<u64>(smoke_per_client)
                               : Clock::now() >= deadline) {
                    break;
                }
                out.push_back(request(c, i));
            }
        });
    }
    for (std::thread& t : threads) t.join();
    *wall_s = seconds_since(t0);
    std::vector<Record> all;
    for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
    return all;
}

/** Runs `request` with the error boundary every workload shares. */
Record
guarded(const std::function<Record()>& request)
{
    try {
        return request();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "request failed: %s\n", e.what());
        return Record{};
    }
}

/** A CKKS request succeeds when it meets the precision floor. */
void
grade_ckks_output(const std::vector<double>& got,
                  const std::vector<double>& want, Record& r)
{
    r.bits = precision_bits(got, want);
    r.ok = r.bits >= kPrecisionFloorBits;
    if (!r.ok) {
        std::fprintf(stderr, "request below the %.0f-bit floor: %.2f bits\n",
                     kPrecisionFloorBits, r.bits);
    }
}

/** Latency, throughput, precision and the request ledger. */
void
summarize_requests(const std::vector<Record>& recs, double wall_s,
                   Outcome& out)
{
    out.attempted = recs.size();
    for (const Record& r : recs) out.failed += r.ok ? 0 : 1;
    const std::vector<double> lat = column(recs, &Record::latency_ms);
    const std::vector<double> bits = column(recs, &Record::bits);
    out.metrics["latency_p50_ms"] = median(lat);
    out.metrics["latency_p90_ms"] = percentile(lat, 0.9);
    out.metrics["throughput_rps"] =
        static_cast<double>(lat.size()) / std::max(wall_s, 1e-9);
    // The median, not the minimum: the minimum falls as a faster machine
    // fits more requests into a run. The floor check covers the worst.
    out.metrics["precision_bits"] = median(bits);
    std::printf("measured %zu requests in %.2f s: %zu ok, p50 %.2f ms, "
                "p90 %.2f ms, %.2f req/s, precision median %.1f min %.1f "
                "bits\n",
                recs.size(), wall_s, lat.size(),
                out.metrics["latency_p50_ms"], out.metrics["latency_p90_ms"],
                out.metrics["throughput_rps"], median(bits),
                percentile(bits, 0.0));
}

/** Client and server halves of each request, from Records. */
void
summarize_serving(const std::vector<Record>& recs, Outcome& out)
{
    out.metrics["serve.client.decrypt_ms"] =
        median(column(recs, &Record::decrypt_ms));
    out.metrics["serve.server.queue_p50_ms"] =
        median(column(recs, &Record::queue_ms));
    out.metrics["serve.server.execute_p50_ms"] =
        median(column(recs, &Record::execute_ms));
    out.metrics["serve.client.response_kib"] =
        median(column(recs, &Record::response_kib));
}

/**
 * Runs `count` warm-up requests one at a time and returns the CKKS op
 * counts of one request; every warm-up request must show the same counts.
 */
std::vector<double>
warm_up(int count, const std::function<Record(int)>& request, Outcome& out)
{
    std::vector<double> first;
    for (int i = 0; i < count; ++i) {
        const Snapshot before = registry_snapshot();
        out.require(request(i).ok, "warm-up request failed");
        const std::vector<double> d = op_delta(before, registry_snapshot());
        if (i == 0) first = d;
        out.require(d == first, "warm-up request " + std::to_string(i) +
                                    " differs in CKKS op counts from the "
                                    "first");
    }
    return first;
}

/**
 * Per-request CKKS op counts: `reference` is one request measured alone
 * in warm-up; the timed loop's registry delta must equal n times it
 * (plus `extra`, work outside requests such as re-registrations).
 */
void
summarize_op_counts(const std::vector<double>& reference,
                    const Snapshot& before, const Snapshot& after,
                    u64 requests, const std::vector<double>& extra,
                    Outcome& out)
{
    const std::vector<double> measured = op_delta(before, after);
    for (std::size_t k = 0; k < kNumOpCounts; ++k) {
        out.metrics[kOpCounts[k].first] = reference[k];
        const double want =
            reference[k] * static_cast<double>(requests) + extra[k];
        out.require(measured[k] == want,
                    std::string(kOpCounts[k].second) + " moved by " +
                        std::to_string(measured[k]) + " over " +
                        std::to_string(requests) + " requests, expected " +
                        std::to_string(want) +
                        " (per-request counts differ)");
    }
    const double allocs = get(after, "ckks.op.poly_alloc") -
                          get(before, "ckks.op.poly_alloc");
    const double hits = get(after, "ckks.op.poly_arena_hit") -
                        get(before, "ckks.op.poly_arena_hit");
    out.metrics["ckks.arena_hit_ratio"] = allocs > 0.0 ? hits / allocs : 0.0;
}

// ------------------------------------------------------------ tracing

struct SpanStat {
    u64 count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};

/**
 * Self time per span name: a span's duration minus the part its direct
 * children on the same thread cover.
 */
std::map<std::string, SpanStat>
self_times(std::vector<telemetry::TraceRecord> recs)
{
    std::sort(recs.begin(), recs.end(),
              [](const telemetry::TraceRecord& a,
                 const telemetry::TraceRecord& b) {
                  if (a.tid != b.tid) return a.tid < b.tid;
                  if (a.event.t0_ns != b.event.t0_ns) {
                      return a.event.t0_ns < b.event.t0_ns;
                  }
                  return a.event.dur_ns > b.event.dur_ns;  // parent first
              });
    std::vector<double> child_ns(recs.size(), 0.0);
    std::vector<std::size_t> open;  // indices of enclosing spans
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const telemetry::TraceEvent& e = recs[i].event;
        while (!open.empty()) {
            const telemetry::TraceRecord& p = recs[open.back()];
            if (p.tid == recs[i].tid &&
                p.event.t0_ns + p.event.dur_ns > e.t0_ns) {
                break;
            }
            open.pop_back();
        }
        if (!open.empty()) {
            const telemetry::TraceEvent& p = recs[open.back()].event;
            const u64 end = std::min(e.t0_ns + e.dur_ns, p.t0_ns + p.dur_ns);
            child_ns[open.back()] += static_cast<double>(end - e.t0_ns);
        }
        open.push_back(i);
    }
    std::map<std::string, SpanStat> stats;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        SpanStat& s = stats[recs[i].event.name];
        const double dur = static_cast<double>(recs[i].event.dur_ns);
        s.count += 1;
        s.total_ms += dur * 1e-6;
        s.self_ms += std::max(0.0, dur - child_ns[i]) * 1e-6;
    }
    return stats;
}

void
print_self_times(const std::map<std::string, SpanStat>& stats)
{
    std::vector<std::pair<std::string, SpanStat>> rows(stats.begin(),
                                                       stats.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.second.self_ms > b.second.self_ms;
    });
    double all_self = 0.0;
    for (const auto& [name, s] : rows) all_self += s.self_ms;
    std::printf("\n%-34s %8s %12s %12s %7s\n", "span (self time)", "count",
                "total ms", "self ms", "self %");
    for (const auto& [name, s] : rows) {
        std::printf("%-34s %8llu %12.3f %12.3f %6.1f%%\n", name.c_str(),
                    static_cast<unsigned long long>(s.count), s.total_ms,
                    s.self_ms,
                    all_self > 0.0 ? 100.0 * s.self_ms / all_self : 0.0);
    }
}

/**
 * The traced phase of a --trace 1 run: 2 * `pairs` requests sent one at a
 * time from one client, alternating untraced and traced in ABBA order, so
 * both halves see the same traffic and the same host speed.
 * trace.overhead_ratio is the ratio of their median latencies. The trace
 * is then checked, written and summarized.
 */
void
traced_phase(const Args& args, int pairs,
             const std::function<Record(u64)>& request, Outcome& out)
{
    std::vector<double> plain, traced;
    for (int i = 0; i < 2 * pairs; ++i) {
        const bool on = i % 4 == 1 || i % 4 == 2;
        telemetry::set_tracing(on);
        const Record r = request(static_cast<u64>(i));
        telemetry::set_tracing(false);
        out.require(r.ok, "traced-phase request " + std::to_string(i) +
                              " failed");
        if (r.ok) (on ? traced : plain).push_back(r.latency_ms);
    }
    out.require(telemetry::trace_dropped() == 0,
                std::to_string(telemetry::trace_dropped()) +
                    " spans dropped; raise the trace ring capacity");
    out.require(telemetry::write_trace(args.trace_file),
                "cannot write " + args.trace_file);
    std::printf("trace: %s\n", args.trace_file.c_str());
    print_self_times(self_times(telemetry::collect_trace_events()));
    out.metrics["trace.overhead_ratio"] =
        median(traced) / std::max(median(plain), 1e-9);
    std::printf("trace overhead: median %.3f ms traced, %.3f ms untraced "
                "over %d requests each\n",
                median(traced), median(plain), pairs);
}

// ------------------------------------------------------------ per-layer

/**
 * How each RequestStats::layer_times entry maps onto the program: the
 * executor merges consecutive instructions with the same layer id, so
 * one pass over the program reproduces the entries. A kBootstrap shares
 * its layer id with the instruction after it; `boot_cts` counts those
 * bootstraps so their time can be taken back out.
 */
struct LayerGroup {
    enum Kind { kLinear, kActivation, kOther };
    Kind kind = kOther;
    u64 boot_cts = 0;
};

std::vector<LayerGroup>
layer_groups(const core::CompiledNetwork& cn)
{
    using Op = core::Instruction::Op;
    std::vector<LayerGroup> groups;
    std::optional<int> current;
    bool kind_set = false;
    for (const core::Instruction& ins : cn.program) {
        if (!current.has_value() || *current != ins.layer_id) {
            groups.emplace_back();
            current = ins.layer_id;
            kind_set = false;
        }
        LayerGroup& g = groups.back();
        if (ins.op == Op::kBootstrap) {
            g.boot_cts += ins.cts;
            continue;
        }
        if (kind_set) continue;
        kind_set = true;
        if (ins.op == Op::kLinear) {
            g.kind = LayerGroup::kLinear;
        } else if (ins.op == Op::kActivation || ins.op == Op::kMul) {
            g.kind = LayerGroup::kActivation;
        }
    }
    return groups;
}

/** The cost model's price of one request, split like layer_groups. */
struct ModeledCost {
    double linear_s = 0.0;
    double activation_s = 0.0;
    double boot_s = 0.0;
    u64 boot_cts = 0;
};

ModeledCost
modeled_cost(const core::CompiledNetwork& cn)
{
    using Op = core::Instruction::Op;
    const core::CostModel& cost = cn.cost_model;
    ModeledCost m;
    for (const core::Instruction& ins : cn.program) {
        const double cts = static_cast<double>(ins.cts);
        if (ins.op == Op::kLinear) {
            m.linear_s += cost.linear_layer(
                cn.linears[static_cast<std::size_t>(ins.payload)].stats,
                ins.level);
        } else if (ins.op == Op::kActivation) {
            m.activation_s += cost.activation(
                cn.activations[static_cast<std::size_t>(ins.payload)]
                    .stage_degrees,
                ins.level, ins.cts, false);
        } else if (ins.op == Op::kMul) {
            m.activation_s +=
                cts * (cost.hmult(ins.level) + cost.rescale(ins.level));
        } else if (ins.op == Op::kBootstrap) {
            m.boot_s += cts * cost.bootstrap(cn.l_eff);
            m.boot_cts += ins.cts;
        }
    }
    return m;
}

/**
 * Splits measured execute time into linear / activation / bootstrap /
 * other per request, prices it with the cost model, and records the
 * bootstrap stage times from the boot.*.seconds registry deltas.
 */
void
summarize_execution(const core::CompiledNetwork& cn,
                    const std::vector<Record>& recs, const Snapshot& before,
                    const Snapshot& after, Outcome& out)
{
    const std::vector<LayerGroup> groups = layer_groups(cn);
    double linear_s = 0.0, act_s = 0.0, other_s = 0.0, boot_in_linear = 0.0,
           boot_in_act = 0.0, boot_in_other = 0.0, layers_s = 0.0,
           execute_s = 0.0;
    u64 n = 0;
    for (const Record& r : recs) {
        if (!r.ok) continue;
        ++n;
        execute_s += r.execute_ms * 1e-3;
        if (r.layers.size() != groups.size()) {
            out.require(false, "request has " +
                                   std::to_string(r.layers.size()) +
                                   " layer timings, program has " +
                                   std::to_string(groups.size()) + " groups");
            return;
        }
        for (std::size_t g = 0; g < groups.size(); ++g) {
            const double s = r.layers[g].seconds;
            layers_s += s;
            const double boots = static_cast<double>(groups[g].boot_cts);
            switch (groups[g].kind) {
            case LayerGroup::kLinear:
                linear_s += s;
                boot_in_linear += boots;
                break;
            case LayerGroup::kActivation:
                act_s += s;
                boot_in_act += boots;
                break;
            case LayerGroup::kOther:
                other_s += s;
                boot_in_other += boots;
                break;
            }
        }
    }
    if (n == 0) return;

    // Bootstrap time from the stage histograms, spread evenly over the
    // bootstraps (every one runs the same circuit) and subtracted from the
    // group each bootstrap was charged to.
    double boot_s = 0.0;
    u64 boots = 0;
    for (const char* stage : kBootStages) {
        const std::string h = std::string("boot.") + stage + ".seconds";
        const double sum = get(after, h + ".sum") - get(before, h + ".sum");
        const u64 count = static_cast<u64>(get(after, h + ".count") -
                                           get(before, h + ".count"));
        boot_s += sum;
        boots = std::max(boots, count);
        out.metrics[std::string("ckks.boot.") + stage + "_ms"] =
            count == 0 ? 0.0 : 1e3 * sum / static_cast<double>(count);
    }
    const double total_boot_cts = boot_in_linear + boot_in_act +
                                  boot_in_other;
    const double per_boot = total_boot_cts > 0.0 ? boot_s / total_boot_cts
                                                 : 0.0;
    linear_s -= per_boot * boot_in_linear;
    act_s -= per_boot * boot_in_act;
    other_s -= per_boot * boot_in_other;

    const double nd = static_cast<double>(n);
    const ModeledCost model = modeled_cost(cn);
    out.metrics["linalg.linear_ms"] = 1e3 * linear_s / nd;
    out.metrics["approx.activation_ms"] = 1e3 * act_s / nd;
    out.metrics["ckks.boot.total_ms"] = 1e3 * boot_s / nd;
    out.metrics["core.exec.other_ms"] = 1e3 * other_s / nd;
    out.metrics["ckks.boot.per_req"] = static_cast<double>(boots) / nd;
    const double accounted = layers_s / std::max(execute_s, 1e-12);
    out.metrics["core.exec.accounted_ratio"] = accounted;
    out.require(accounted >= 0.95,
                "layer timings cover only " + std::to_string(accounted) +
                    " of execute time (need >= 0.95)");
    out.require(static_cast<double>(boots) ==
                    nd * static_cast<double>(model.boot_cts),
                "ran " + std::to_string(boots) + " bootstraps over " +
                    std::to_string(n) + " requests, program has " +
                    std::to_string(model.boot_cts) + " each");
    auto ratio = [](double measured, double modeled) {
        return modeled > 0.0 ? measured / modeled : 0.0;
    };
    out.metrics["core.model.linear_ratio"] =
        ratio(linear_s / nd, model.linear_s);
    out.metrics["core.model.activation_ratio"] =
        ratio(act_s / nd, model.activation_s);
    out.metrics["core.model.boot_ratio"] = ratio(boot_s / nd, model.boot_s);
}

void
record_compile(const core::CompiledNetwork& cn, Outcome& out)
{
    out.metrics["core.compile.placement_ms"] = 1e3 * cn.placement_seconds;
    out.metrics["core.compile.bootstraps"] =
        static_cast<double>(cn.num_bootstraps);
    out.metrics["core.compile.rotations"] =
        static_cast<double>(cn.total_rotations);
    out.metrics["core.compile.modeled_s"] = cn.modeled_latency;
}

/** Set-up wall times of one repetition, or of several combined. */
struct SetupTimes {
    double total_s = 0.0;
    double compile_s = 0.0;
    double prepare_s = 0.0;
    std::vector<double> keygen_s;
    std::vector<double> register_ms;
};

template <typename F>
double
timed(const char* span, F&& f)
{
    telemetry::SpanGuard guard(span);
    const auto t0 = Clock::now();
    f();
    return seconds_since(t0);
}

/**
 * Builds a workload's stack kSetupReps times (once in smoke mode), one
 * stack resident at a time, and keeps the last one in `st`. Returns the
 * repetitions' median total, compile and prepare times, with their keygen
 * and register times pooled. A --trace 1 run then builds one more, traced
 * repetition whose times go only into the trace.
 */
template <typename Stack, typename Build>
SetupTimes
set_up(const Args& args, std::optional<Stack>& st, Outcome& out,
       Build&& build)
{
    const int n = args.smoke ? 1 : kSetupReps;
    std::vector<double> total, compile, prepare;
    SetupTimes all;
    for (int rep = 0; rep < n + (args.trace ? 1 : 0); ++rep) {
        st.reset();
        const bool traced = rep == n;
        telemetry::set_tracing(traced);
        SetupTimes t;
        st.emplace(build(t));
        telemetry::set_tracing(false);
        if (traced) continue;
        total.push_back(t.total_s);
        compile.push_back(t.compile_s);
        prepare.push_back(t.prepare_s);
        all.keygen_s.insert(all.keygen_s.end(), t.keygen_s.begin(),
                            t.keygen_s.end());
        all.register_ms.insert(all.register_ms.end(), t.register_ms.begin(),
                               t.register_ms.end());
    }
    all.total_s = median(total);
    all.compile_s = median(compile);
    all.prepare_s = median(prepare);
    out.metrics["setup_s"] = all.total_s;
    out.metrics["core.compile.wall_s"] = all.compile_s;
    out.metrics["core.prepare.wall_s"] = all.prepare_s;
    out.metrics["serve.client.keygen_s"] = median(all.keygen_s);
    std::printf("setup: median %.3f s over %d repetitions (compile %.3f s, "
                "prepare %.3f s, keygen %.3f s)\n",
                all.total_s, n, all.compile_s, all.prepare_s,
                out.metrics["serve.client.keygen_s"]);
    return all;
}

// ------------------------------------------------------------ LoLA

/** The two in-process LoLA workloads differ only in these. */
struct LolaConfig {
    ckks::CkksParams params;
    int l_eff = 2;
    int clients = 1;
    int max_inflight = 1;
    int threads_per_request = 1;
};

struct LolaStack {
    nn::Network net;
    std::unique_ptr<Session> session;
    std::unique_ptr<serve::InferenceServer> server;
    // Held by pointer: a ServeClient's encryptor points into the object.
    std::vector<std::unique_ptr<serve::ServeClient>> clients;
    std::size_t bundle_bytes = 0;
};

LolaStack
build_lola(const LolaConfig& cfg, u64 seed, SetupTimes& t)
{
    const auto t0 = Clock::now();
    LolaStack st;
    st.net = nn::make_lola();
    SessionOptions so;
    so.params = cfg.params;
    so.l_eff = cfg.l_eff;
    st.session = std::make_unique<Session>(so);
    t.compile_s = timed("bench.setup.compile",
                        [&] { (void)st.session->compile(st.net); });
    t.prepare_s =
        timed("bench.setup.prepare", [&] { (void)st.session->prepared(); });
    serve::ServeOptions sopts;
    sopts.max_inflight = cfg.max_inflight;
    sopts.threads_per_request = cfg.threads_per_request;
    sopts.queue_capacity = 2 * cfg.clients;
    sopts.key_cache_mb = 0;  // all keys resident: no spill files
    st.server = st.session->serve(sopts);
    const core::CompiledNetwork& cn = st.session->compiled();
    for (int c = 0; c < cfg.clients; ++c) {
        t.keygen_s.push_back(timed("bench.setup.keygen", [&] {
            st.clients.push_back(std::make_unique<serve::ServeClient>(
                cn, st.session->context(),
                derive(seed, kClientKeyStream, static_cast<u64>(c))));
        }));
        serve::ServeClient& client = *st.clients.back();
        const ckks::serial::Bytes bundle = client.key_bundle();
        st.bundle_bytes = bundle.size();
        t.register_ms.push_back(1e3 * timed("bench.setup.register", [&] {
            client.set_session_id(st.server->register_session(bundle));
        }));
    }
    t.total_s = seconds_since(t0);
    return st;
}

Outcome
run_lola(const Args& args, const LolaConfig& cfg)
{
    Outcome out;
    std::optional<LolaStack> st;
    const SetupTimes setup = set_up(args, st, out, [&](SetupTimes& t) {
        return build_lola(cfg, args.seed, t);
    });
    const core::CompiledNetwork& cn = st->session->compiled();
    record_compile(cn, out);
    std::printf("LoLA: %llu bootstraps, %llu rotations, modeled %.3f s\n",
                static_cast<unsigned long long>(cn.num_bootstraps),
                static_cast<unsigned long long>(cn.total_rotations),
                cn.modeled_latency);

    std::atomic<u64> next_id{1};
    auto request = [&](int c, u64 stream) {
        return guarded([&] {
            serve::ServeClient& client =
                *st->clients[static_cast<std::size_t>(c)];
            const std::vector<double> x =
                seeded_input(st->net.shape_of(st->net.input_id()).size(),
                             derive(args.seed, kInputStream, stream));
            const std::vector<double> want = st->net.forward(x);
            const i64 id = static_cast<i64>(next_id++);
            Record r;
            const auto t0 = Clock::now();
            ckks::serial::Bytes req;
            {
                telemetry::SpanGuard span("bench.req.encrypt", id);
                req = client.make_request(x);
            }
            const auto t1 = Clock::now();
            r.request_kib = static_cast<double>(req.size()) / 1024.0;
            serve::ServeReply reply;
            {
                telemetry::SpanGuard span("bench.req.rpc", id);
                reply = st->server->submit(std::move(req)).get();
            }
            const auto t2 = Clock::now();
            std::vector<double> got;
            {
                telemetry::SpanGuard span("bench.req.decrypt", id);
                got = client.decrypt_response(reply.response);
            }
            r.latency_ms = 1e3 * seconds_since(t0);
            r.encrypt_ms =
                1e3 * std::chrono::duration<double>(t1 - t0).count();
            r.decrypt_ms = 1e3 * seconds_since(t2);
            r.queue_ms = 1e3 * reply.stats.queue_wait_s;
            r.execute_ms = 1e3 * reply.stats.execute_s;
            r.response_kib =
                static_cast<double>(reply.response.size()) / 1024.0;
            r.layers = std::move(reply.stats.layer_times);
            grade_ckks_output(got, want, r);
            return r;
        });
    };

    // Stream ids >= 2^32 keep warm-up inputs apart from measured ones.
    const std::vector<double> per_req =
        warm_up(std::max(kMinWarmups, cfg.clients),
                [&](int i) {
                    return request(i % cfg.clients,
                                   (u64(1) << 32) + static_cast<u64>(i));
                },
                out);

    const serve::ServerStats stats_before = st->server->stats();
    const Snapshot before = registry_snapshot();
    double wall_s = 0.0;
    const std::vector<Record> recs = closed_loop(
        cfg.clients, args,
        [&](int c, u64 i) {
            return request(c, (static_cast<u64>(c) << 24) + i);
        },
        &wall_s);
    const Snapshot after = registry_snapshot();
    const serve::ServerStats stats = st->server->stats();

    summarize_requests(recs, wall_s, out);
    summarize_serving(recs, out);
    summarize_execution(cn, recs, before, after, out);
    summarize_op_counts(per_req, before, after, recs.size(),
                        std::vector<double>(kNumOpCounts, 0.0), out);
    out.require(stats.completed - stats_before.completed == recs.size() &&
                    stats.failed == 0,
                "server ledger: completed " +
                    std::to_string(stats.completed -
                                   stats_before.completed) +
                    " of " + std::to_string(recs.size()) + " sent, " +
                    std::to_string(stats.failed) + " failed");
    out.metrics["serve.client.encrypt_ms"] =
        median(column(recs, &Record::encrypt_ms));
    out.metrics["serve.client.request_kib"] =
        median(column(recs, &Record::request_kib));
    out.metrics["serve.client.bundle_mib"] =
        static_cast<double>(st->bundle_bytes) / (1024.0 * 1024.0);
    out.metrics["serve.register_p50_ms"] = median(setup.register_ms);
    const u64 lookups = stats.key_cache_hits + stats.key_cache_misses;
    out.metrics["serve.keys.hit_ratio"] =
        lookups == 0 ? 0.0
                     : static_cast<double>(stats.key_cache_hits) /
                           static_cast<double>(lookups);

    if (args.trace) {
        traced_phase(
            args, kTracedPairs,
            [&](u64 i) { return request(0, (u64(1) << 40) + i); }, out);
    }
    return out;
}

// ------------------------------------------------------------ micro-net

constexpr int kShards = 2;
constexpr int kNetThreads = 2;
constexpr int kSessionsPerThread = 2;
/**
 * A thread re-registers its older session after every this many
 * requests. Each re-registration re-places a session on the shards, and
 * whether two in-flight requests share a shard sets their queue wait, so
 * frequent re-placement keeps that share from depending on the seed.
 */
constexpr u64 kReregisterEvery = 8;
constexpr int kEncryptSideCalls = 20;
/** micro-net requests are short, so its traced phase sends more. */
constexpr int kNetTracedPairs = 25;

struct MicroNetStack {
    nn::Network net;
    std::unique_ptr<Session> session;
    std::vector<std::unique_ptr<serve::InferenceServer>> servers;
    std::vector<std::unique_ptr<net::ServeEndpoint>> endpoints;
    std::unique_ptr<net::Router> router;
    std::vector<std::unique_ptr<serve::ServeClient>> cryptos;
    std::vector<std::unique_ptr<net::NetClient>> links;  ///< one per crypto
};

u64
session_token(u64 seed, std::size_t slot, u64 generation)
{
    return derive(seed, kTokenStream, (u64(slot) << 32) | generation) |
           1;  // nonzero
}

MicroNetStack
build_micro_net(u64 seed, SetupTimes& t,
                std::vector<std::vector<double>>& register_ops)
{
    const auto t0 = Clock::now();
    MicroNetStack st;
    st.net = nn::make_micro_mlp();
    SessionOptions so;
    so.params = ckks::CkksParams::toy();
    so.l_eff = 4;
    st.session = std::make_unique<Session>(so);
    t.compile_s = timed("bench.setup.compile",
                        [&] { (void)st.session->compile(st.net); });
    t.prepare_s =
        timed("bench.setup.prepare", [&] { (void)st.session->prepared(); });
    std::vector<std::string> backends;
    for (int s = 0; s < kShards; ++s) {
        serve::ServeOptions sopts;
        sopts.max_inflight = 1;
        sopts.queue_capacity = kNetThreads * kSessionsPerThread;
        sopts.key_cache_mb = 0;
        st.servers.push_back(st.session->serve(sopts));
        st.endpoints.push_back(std::make_unique<net::ServeEndpoint>(
            *st.servers.back(), net::Listener(0)));
        backends.push_back("127.0.0.1:" +
                           std::to_string(st.endpoints.back()->port()));
    }
    st.router = std::make_unique<net::Router>(backends, net::Listener(0));
    ORION_CHECK(st.router->wait_for_shards(kShards, 30.0),
                "shards did not come up behind the router");
    const core::CompiledNetwork& cn = st.session->compiled();
    const std::size_t sessions = kNetThreads * kSessionsPerThread;
    for (std::size_t i = 0; i < sessions; ++i) {
        t.keygen_s.push_back(timed("bench.setup.keygen", [&] {
            st.cryptos.push_back(std::make_unique<serve::ServeClient>(
                cn, st.session->context(),
                derive(seed, kClientKeyStream, i)));
        }));
        const Snapshot before = registry_snapshot();
        t.register_ms.push_back(1e3 * timed("bench.setup.register", [&] {
            st.links.push_back(std::make_unique<net::NetClient>(
                *st.cryptos.back(), "127.0.0.1", st.router->port(),
                session_token(seed, i, 0)));
        }));
        register_ops.push_back(op_delta(before, registry_snapshot()));
    }
    t.total_s = seconds_since(t0);
    return st;
}

Outcome
run_micro_net(const Args& args)
{
    Outcome out;
    std::optional<MicroNetStack> st;
    std::vector<std::vector<double>> register_ops;
    const SetupTimes setup = set_up(args, st, out, [&](SetupTimes& t) {
        register_ops.clear();
        return build_micro_net(args.seed, t, register_ops);
    });
    const core::CompiledNetwork& cn = st->session->compiled();
    record_compile(cn, out);
    for (const std::vector<double>& ops : register_ops) {
        out.require(ops == register_ops[0],
                    "registrations differ in CKKS op counts");
    }
    const std::size_t in_size = st->net.shape_of(st->net.input_id()).size();

    // infer_raw encrypts internally, so encryption is timed on side calls.
    std::vector<double> enc_ms;
    std::size_t request_bytes = 0;
    for (int i = 0; i < kEncryptSideCalls; ++i) {
        const std::vector<double> x =
            seeded_input(in_size, derive(args.seed, kSideCallStream, i));
        const auto t0 = Clock::now();
        request_bytes = st->cryptos[0]->make_request(x).size();
        enc_ms.push_back(1e3 * seconds_since(t0));
    }
    const double encrypt_ms = median(enc_ms);
    out.metrics["serve.client.encrypt_ms"] = encrypt_ms;
    out.metrics["serve.client.request_kib"] =
        static_cast<double>(request_bytes) / 1024.0;
    out.metrics["serve.client.bundle_mib"] =
        static_cast<double>(st->cryptos[0]->key_bundle().size()) /
        (1024.0 * 1024.0);

    std::atomic<u64> next_id{1};
    auto request = [&](std::size_t slot, u64 stream) {
        return guarded([&] {
            ORION_CHECK(st->links[slot] != nullptr,
                        "session " << slot << " lost its registration");
            net::NetClient& link = *st->links[slot];
            serve::ServeClient& crypto = *st->cryptos[slot];
            const std::vector<double> x =
                seeded_input(in_size, derive(args.seed, kInputStream, stream));
            const std::vector<double> want = st->net.forward(x);
            const i64 id = static_cast<i64>(next_id++);
            Record r;
            const auto t0 = Clock::now();
            ckks::serial::Bytes resp;
            {
                telemetry::SpanGuard span("bench.req.rpc", id);
                resp = link.infer_raw(x);
            }
            const auto t1 = Clock::now();
            std::vector<double> got;
            {
                telemetry::SpanGuard span("bench.req.decrypt", id);
                got = crypto.decrypt_response(resp);
            }
            r.latency_ms = 1e3 * seconds_since(t0);
            r.decrypt_ms = 1e3 * seconds_since(t1);
            const serve::Response echo = crypto.parse_response(resp);
            r.queue_ms = 1e3 * echo.queue_wait_s;
            r.execute_ms = 1e3 * echo.execute_s;
            r.response_kib = static_cast<double>(resp.size()) / 1024.0;
            grade_ckks_output(got, want, r);
            return r;
        });
    };

    const int sessions = static_cast<int>(st->links.size());
    const int warmups = std::max(kMinWarmups, sessions);
    const std::vector<double> per_req =
        warm_up(warmups,
                [&](int i) {
                    return request(static_cast<std::size_t>(i % sessions),
                                   (u64(1) << 32) + static_cast<u64>(i));
                },
                out);
    u64 sent = static_cast<u64>(warmups);

    // Thread t owns sessions 2t and 2t+1 (its own slots of links and
    // generation), alternates between them, and after every
    // kReregisterEvery requests closes the older one and registers it
    // again under a fresh token.
    std::mutex reg_mu;  // guards the three below
    std::vector<double> reregister_ms;
    std::vector<std::string> reregister_errors;
    u64 retries = 0;
    std::vector<u64> generation(st->links.size(), 0);
    auto reregister = [&](std::size_t base) {
        const std::size_t slot =
            generation[base] <= generation[base + 1] ? base : base + 1;
        const u64 token = session_token(args.seed, slot, ++generation[slot]);
        const u64 old_retries = st->links[slot]->retry_stats().retries;
        st->links[slot].reset();
        try {
            const double ms = 1e3 * timed("bench.req.register", [&] {
                st->links[slot] = std::make_unique<net::NetClient>(
                    *st->cryptos[slot], "127.0.0.1", st->router->port(),
                    token);
            });
            std::lock_guard<std::mutex> lock(reg_mu);
            reregister_ms.push_back(ms);
            retries += old_retries;
        } catch (const std::exception& e) {
            std::lock_guard<std::mutex> lock(reg_mu);
            reregister_errors.push_back(e.what());
        }
    };
    const Snapshot before = registry_snapshot();
    double wall_s = 0.0;
    const std::vector<Record> recs = closed_loop(
        kNetThreads, args,
        [&](int t, u64 i) {
            const std::size_t base =
                static_cast<std::size_t>(t) * kSessionsPerThread;
            Record r = request(base + i % kSessionsPerThread,
                               (static_cast<u64>(t) << 24) + i);
            if ((i + 1) % kReregisterEvery == 0 && st->links[base] &&
                st->links[base + 1]) {
                reregister(base);
            }
            return r;
        },
        &wall_s);
    const Snapshot after = registry_snapshot();
    for (const std::string& e : reregister_errors) {
        out.require(false, "re-registration failed: " + e);
    }
    for (const auto& link : st->links) {
        if (link) retries += link->retry_stats().retries;
    }

    summarize_requests(recs, wall_s, out);
    summarize_serving(recs, out);
    std::vector<double> extra(kNumOpCounts, 0.0);
    for (std::size_t k = 0; k < kNumOpCounts; ++k) {
        extra[k] = register_ops[0][k] *
                   static_cast<double>(reregister_ms.size());
    }
    summarize_op_counts(per_req, before, after, recs.size(), extra, out);

    // Ledgers: every request sent (warm-ups included) completed exactly
    // once across the shards, and the router answered each one.
    sent += recs.size();
    u64 completed = 0, max_completed = 0, failed = 0, hits = 0, lookups = 0;
    for (const auto& server : st->servers) {
        const serve::ServerStats s = server->stats();
        completed += s.completed;
        max_completed = std::max<u64>(max_completed, s.completed);
        failed += s.failed;
        hits += s.key_cache_hits;
        lookups += s.key_cache_hits + s.key_cache_misses;
    }
    const Snapshot router = st->router->metrics().snapshot();
    out.require(completed == sent && failed == 0,
                "shard ledgers: completed " + std::to_string(completed) +
                    " of " + std::to_string(sent) + " sent, " +
                    std::to_string(failed) + " failed");
    out.require(get(router, "router.requests.replied") ==
                    static_cast<double>(sent),
                "router replied " +
                    std::to_string(get(router, "router.requests.replied")) +
                    " times for " + std::to_string(sent) + " requests");

    std::vector<double> transport;
    for (const Record& r : recs) {
        if (!r.ok) continue;
        transport.push_back(r.latency_ms - encrypt_ms - r.queue_ms -
                            r.execute_ms - r.decrypt_ms);
    }
    const double bytes =
        get(after, "net.bytes.rx") + get(after, "net.bytes.tx") -
        get(before, "net.bytes.rx") - get(before, "net.bytes.tx");
    out.metrics["serve.register_p50_ms"] = median(
        reregister_ms.empty() ? setup.register_ms : reregister_ms);
    out.metrics["serve.keys.hit_ratio"] =
        lookups == 0 ? 0.0
                     : static_cast<double>(hits) /
                           static_cast<double>(lookups);
    out.metrics["net.router.forward_p50_ms"] =
        1e3 * get(router, "router.forward.seconds.p50");
    out.metrics["net.transport_ms"] = median(transport);
    out.metrics["net.bytes_per_req_kib"] =
        bytes / std::max<double>(1.0, static_cast<double>(recs.size())) /
        1024.0;
    out.metrics["net.shard_share_max"] =
        static_cast<double>(max_completed) /
        static_cast<double>(std::max<u64>(completed, 1));
    out.metrics["net.client_retries"] = static_cast<double>(retries);
    std::printf("micro-net: %zu re-registrations (p50 %.2f ms), %llu "
                "retries, busiest shard served %.1f%%\n",
                reregister_ms.size(), out.metrics["serve.register_p50_ms"],
                static_cast<unsigned long long>(retries),
                100.0 * out.metrics["net.shard_share_max"]);

    if (args.trace) {
        traced_phase(
            args, kNetTracedPairs,
            [&](u64 i) { return request(0, (u64(1) << 40) + i); }, out);
    }
    return out;
}

// ------------------------------------------------------------ resnet20

Outcome
run_resnet20_compile(const Args& args)
{
    Outcome out;
    struct Stack {
        nn::Network net;
        std::unique_ptr<Session> session;
    };
    core::CompileOptions opt;
    opt.structural_only = true;
    opt.calibration_samples = 2;
    // Set-up is what a user does before the loop: build the model, open a
    // simulation session and compile once.
    std::optional<Stack> st;
    set_up(args, st, out, [&](SetupTimes& t) {
        const auto t0 = Clock::now();
        Stack s;
        s.net = nn::make_model("resnet20-relu");
        SessionOptions so;
        so.sim_slots = u64(1) << 15;
        so.l_eff = 10;
        s.session = std::make_unique<Session>(so);
        t.compile_s = timed("bench.setup.compile",
                            [&] { (void)s.session->compile(s.net, opt); });
        t.total_s = seconds_since(t0);
        return s;
    });
    const std::size_t in_size = st->net.shape_of(st->net.input_id()).size();
    std::vector<double> compile_s, placement_ms, simulate_ms;
    auto iteration = [&](u64 stream) {
        return guarded([&] {
            const std::vector<double> x =
                seeded_input(in_size, derive(args.seed, kInputStream, stream));
            Record r;
            const auto t0 = Clock::now();
            {
                telemetry::SpanGuard span("bench.req.compile",
                                          static_cast<i64>(stream));
                (void)st->session->compile(st->net, opt);
            }
            const auto t1 = Clock::now();
            core::ExecutionResult sim;
            {
                telemetry::SpanGuard span("bench.req.simulate",
                                          static_cast<i64>(stream));
                sim = st->session->simulate(x);
            }
            r.latency_ms = 1e3 * seconds_since(t0);
            compile_s.push_back(
                std::chrono::duration<double>(t1 - t0).count());
            simulate_ms.push_back(1e3 * seconds_since(t1));
            placement_ms.push_back(
                1e3 * st->session->compiled().placement_seconds);
            const std::vector<double> want = st->net.forward(x);
            r.bits = precision_bits(sim.output, want);
            r.ok = argmax(sim.output) == argmax(want);
            if (!r.ok) {
                std::fprintf(stderr, "simulated top-1 %zu != cleartext "
                             "top-1 %zu\n", argmax(sim.output), argmax(want));
            }
            return r;
        });
    };

    double wall_s = 0.0;
    const std::vector<Record> recs = closed_loop(
        1, args, [&](int, u64 i) { return iteration(i); }, &wall_s);
    summarize_requests(recs, wall_s, out);

    const core::CompiledNetwork& cn = st->session->compiled();
    record_compile(cn, out);
    out.metrics["core.compile.wall_s"] = median(compile_s);
    out.metrics["core.compile.placement_ms"] = median(placement_ms);
    out.metrics["core.simulate.wall_ms"] = median(simulate_ms);
    std::printf("resnet20: compile p50 %.3f s, simulate p50 %.1f ms, %llu "
                "bootstraps, %llu rotations, modeled %.1f s\n",
                median(compile_s), median(simulate_ms),
                static_cast<unsigned long long>(cn.num_bootstraps),
                static_cast<unsigned long long>(cn.total_rotations),
                cn.modeled_latency);

    if (args.trace) {
        traced_phase(args, kTracedPairs,
                     [&](u64 i) { return iteration((u64(1) << 40) + i); },
                     out);
    }
    return out;
}

// ------------------------------------------------------------ main

void
print_result(const Args& args, const Outcome& out)
{
    const bool correct = out.failed == 0 && out.violations.empty();
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const MetricDef& m) {
        const auto it = out.metrics.find(m.name);
        double v = it == out.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) v = 0.0;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.12g", v);
        json += first ? "" : ", ";
        json += std::string("\"") + m.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    };
    if (args.trace) {
        for (const MetricDef& m : kPerLayer) emit(m);
    } else {
        for (const MetricDef& m : kEndToEnd) emit(m);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

/** The workload's entry point; empty for an unknown name. */
std::function<Outcome(const Args&)>
workload_runner(const std::string& name)
{
    if (name == "lola-boot") {
        return [](const Args& a) {
            return run_lola(a, {ckks::CkksParams::bootstrap_toy(2), 2, 1, 1,
                                4});
        };
    }
    if (name == "lola-n13") {
        return [](const Args& a) {
            return run_lola(a, {ckks::CkksParams::network(u64(1) << 13, 14),
                                8, 2, 2, 1});
        };
    }
    if (name == "micro-net") return run_micro_net;
    if (name == "resnet20-compile") return run_resnet20_compile;
    return nullptr;
}

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "orion_bench: %s\n"
                 "usage: orion_bench --workload "
                 "lola-boot|lola-n13|micro-net|resnet20-compile\n"
                 "                   --seed N --seconds S --trace 0|1 "
                 "[--trace-file PATH] [--smoke]\n",
                 why);
    std::exit(2);
}

Args
parse_args(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::atof(v.c_str());
        } else if (flag == "--trace") {
            a.trace = v == "1";
        } else if (flag == "--trace-file") {
            a.trace_file = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty()) usage("--workload is required");
    if (!(a.seconds > 0.0)) usage("--seconds must be positive");
    return a;
}

}  // namespace

int
main(int argc, char** argv)
{
    const Args args = parse_args(argc, argv);
    const auto run = workload_runner(args.workload);
    if (!run) usage(("unknown workload " + args.workload).c_str());
    // Large enough that no span of a traced phase is overwritten; the
    // traced phase checks trace_dropped() == 0.
    if (args.trace) telemetry::set_trace_ring_capacity(std::size_t(1) << 18);
    std::printf("orion_bench %s: seed %llu, %.1f s%s%s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? ", traced" : "", args.smoke ? ", smoke" : "");

    Outcome out;
    try {
        out = run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "orion_bench: %s\n", e.what());
        return 1;
    }
    out.metrics["peak_rss_mib"] = peak_rss_mib();
    if (!args.trace) {
        for (const MetricDef& m : kEndToEnd) {
            const auto it = out.metrics.find(m.name);
            out.require(it != out.metrics.end() && it->second > 0.0,
                        std::string("end-to-end metric ") + m.name +
                            " is missing or not positive");
        }
    }
    print_result(args, out);
    return out.failed == 0 && out.violations.empty() ? 0 : 1;
}
