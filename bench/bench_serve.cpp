/**
 * @file
 * Serving throughput/latency benchmark: a tiny square-activation MLP
 * behind the InferenceServer, swept over scheduler concurrency
 * (max_inflight). Reports requests/second and p50/p95 client-observed
 * latency per concurrency level, with `--json` metrics for the CI perf
 * trajectory. Two sessions with distinct keys keep the executor pool's
 * key rebinding on the measured path.
 *
 * `--churn` switches to the key-cache churn workload instead: S
 * registered sessions (64 in smoke mode, 10,000 otherwise) with a
 * Zipf-distributed request mix, run twice — once all-resident
 * (key_cache_mb = 0) and once under a cap sized to the hot working set —
 * reporting RSS, hit rate, eviction count, and p50/p95 for each pass
 * (CI uploads this as BENCH_serve_churn.json).
 *
 * `--shards N` switches to the multi-process serving topology instead:
 * N forked shard processes (each an InferenceServer behind a net::
 * ServeEndpoint on a pre-forked listener) behind an in-parent
 * net::Router, driven by concurrent NetClients over TCP loopback.
 * Reports end-to-end p50/p95 and aggregate throughput, plus the
 * router's forwarding counters (CI uploads BENCH_serve_shards.json).
 * Children are forked before any CKKS state (and thus any thread)
 * exists; listeners are created pre-fork so both sides know the ports.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench/bench_util.h"
#include "src/core/telemetry.h"
#include "src/net/net.h"
#include "src/serve/serve.h"

using namespace orion;

namespace {

double
percentile(std::vector<double> v, double p)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

/** Process resident set size in MiB (/proc/self/status; 0 off Linux). */
double
rss_mb()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double mb = 0.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        long kb = 0;
        if (std::sscanf(line, "VmRSS: %ld", &kb) == 1) {
            mb = static_cast<double>(kb) / 1024.0;
            break;
        }
    }
    std::fclose(f);
    return mb;
}

/**
 * The full serving substrate, built identically in the parent and every
 * forked shard child (deterministic toy params + micro MLP compile, so a
 * client bundle from one process is compatible with any other's server).
 */
struct Stack {
    ckks::CkksParams params;
    ckks::Context ctx;
    nn::Network net;
    core::CompiledNetwork cn;
    std::shared_ptr<const core::PreparedProgram> prepared;

    explicit Stack(int batch = 1)
        : params(ckks::CkksParams::toy()), ctx(params),
          net(nn::make_micro_mlp())
    {
        core::CompileOptions opt;
        opt.slots = ctx.slot_count();
        opt.l_eff = 4;
        opt.cost = core::CostModel::for_params(
            ctx.degree(), params.digit_size, params.digit_size, 3);
        opt.calibration_samples = 3;
        opt.batch = batch;
        cn = core::compile(net, opt);
        prepared = std::make_shared<const core::PreparedProgram>(cn, ctx);
    }
};

volatile std::sig_atomic_t g_child_stop = 0;

void
child_on_term(int)
{
    g_child_stop = 1;
}

/** A forked shard: one endpoint on the inherited listener until SIGTERM. */
[[noreturn]] void
run_shard_child(net::Listener listener)
{
    std::signal(SIGTERM, child_on_term);
    Stack st;
    serve::ServeOptions sopts;
    sopts.max_inflight = 2;
    sopts.queue_capacity = 64;
    serve::InferenceServer server(st.cn, st.ctx, sopts, st.prepared);
    net::ServeEndpoint endpoint(server, std::move(listener));
    while (!g_child_stop) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    endpoint.stop();
    // _exit: the parent registered the atexit JSON writer before forking;
    // only the parent may run it.
    _exit(0);
}

/** The multi-process sharded topology (--shards N). */
void
run_shards(int nshards)
{
    ORION_CHECK(nshards >= 1, "--shards needs at least 1");
    const int n_clients = bench::smoke() ? 2 : 4;
    const int per_client = bench::smoke() ? 3 : 25;

    // Listeners first (no threads exist yet), so ports are known to both
    // sides of the fork and nobody has to parse a child's stdout.
    std::vector<net::Listener> listeners;
    std::vector<int> ports;
    for (int i = 0; i < nshards; ++i) {
        listeners.emplace_back(0);
        ports.push_back(listeners.back().port());
    }

    std::vector<pid_t> pids;
    for (int i = 0; i < nshards; ++i) {
        const pid_t pid = fork();
        ORION_CHECK(pid >= 0, "fork failed");
        if (pid == 0) {
            for (int j = 0; j < nshards; ++j) {
                if (j != i) listeners[static_cast<std::size_t>(j)].close();
            }
            run_shard_child(
                std::move(listeners[static_cast<std::size_t>(i)]));
        }
        pids.push_back(pid);
    }
    for (net::Listener& l : listeners) l.close();

    Stack st;
    std::vector<std::string> backends;
    for (const int p : ports) {
        backends.push_back("127.0.0.1:" + std::to_string(p));
    }
    net::Router router(backends, net::Listener(0));
    // Children pay their compile before their endpoint listens; give the
    // slowest one ample time on a loaded CI box.
    ORION_CHECK(router.wait_for_shards(static_cast<std::size_t>(nshards),
                                       120.0),
                "not all shard processes came up");
    std::printf("\nshards: %d backend processes up, router on port %d, "
                "%d clients x %d requests\n",
                nshards, router.port(), n_clients, per_client);

    net::ClientOptions copts;
    copts.max_attempts = 20;
    copts.backoff_base_s = 0.02;
    copts.backoff_cap_s = 0.5;

    std::mutex agg_mu;
    std::vector<double> latency_ms;
    u64 total_retries = 0;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < n_clients; ++c) {
        threads.emplace_back([&, c] {
            serve::ServeClient crypto(st.cn, st.ctx,
                                      /*seed=*/9000 + static_cast<u64>(c));
            net::NetClient client(crypto, "127.0.0.1", router.port(),
                                  /*session_token=*/0x9000 +
                                      static_cast<u64>(c),
                                  copts);
            std::vector<double> local;
            for (int r = 0; r < per_client; ++r) {
                const std::vector<double> input = bench::random_vector(
                    64, 1.0, 600 + static_cast<u64>(c * 1000 + r));
                const auto rt0 = std::chrono::steady_clock::now();
                const std::vector<double> out = client.infer(input);
                ORION_CHECK(!out.empty(), "empty inference result");
                local.push_back(1e3 *
                                std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - rt0)
                                    .count());
            }
            client.close();
            std::lock_guard<std::mutex> lk(agg_mu);
            latency_ms.insert(latency_ms.end(), local.begin(),
                              local.end());
            total_retries += client.retry_stats().retries;
        });
    }
    for (std::thread& t : threads) t.join();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    const int requests = n_clients * per_client;
    const double p50 = percentile(latency_ms, 0.50);
    const double p95 = percentile(latency_ms, 0.95);
    const double rps = static_cast<double>(requests) / wall;
    const auto snap = router.metrics().snapshot();
    std::printf("%-8s %10s %10s %10s %12s %10s %10s\n", "shards",
                "requests", "p50 ms", "p95 ms", "req/s", "retries",
                "failover");
    std::printf("%-8d %10d %10.1f %10.1f %12.2f %10llu %10.0f\n", nshards,
                requests, p50, p95, rps,
                static_cast<unsigned long long>(total_retries),
                snap.at("router.shard.failover"));
    ORION_CHECK(snap.at("router.requests.replied") >=
                    static_cast<double>(requests),
                "router replied to fewer requests than were sent");

    bench::json_metric("shards/backends", static_cast<double>(nshards));
    bench::json_metric("shards/requests", static_cast<double>(requests));
    bench::json_metric("shards/throughput_rps", rps);
    bench::json_metric("shards/p50_ms", p50);
    bench::json_metric("shards/p95_ms", p95);
    bench::json_metric("shards/client_retries",
                       static_cast<double>(total_retries));
    bench::json_metric("shards/router_forwarded",
                       snap.at("router.requests.forwarded"));
    bench::json_metric("shards/router_failover",
                       snap.at("router.shard.failover"));
    bench::json_metric("shards/router_forward_p95_ms",
                       1e3 * snap.at("router.forward.seconds.p95"));

    router.stop();
    for (const pid_t pid : pids) kill(pid, SIGTERM);
    for (const pid_t pid : pids) {
        int status = 0;
        (void)waitpid(pid, &status, 0);
        ORION_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                    "shard process exited abnormally");
    }
}

/**
 * The key-cache churn workload: many sessions, few distinct bundles
 * (registration reuses kBundles key bundles round-robin — the cache
 * treats every session independently, so this measures session scaling
 * without paying S keygens), Zipf-skewed request mix.
 */
void
run_churn(const core::CompiledNetwork& cn, const ckks::Context& ctx,
          const std::shared_ptr<const core::PreparedProgram>& prepared)
{
    const int sessions = bench::smoke() ? 64 : 10000;
    const int requests = bench::smoke() ? 16 : 200;
    constexpr int kBundles = 4;

    std::vector<std::unique_ptr<serve::ServeClient>> clients;
    std::vector<ckks::serial::Bytes> bundles;
    for (int i = 0; i < kBundles; ++i) {
        clients.push_back(std::make_unique<serve::ServeClient>(
            cn, ctx, /*seed=*/5000 + static_cast<u64>(i)));
        bundles.push_back(clients.back()->key_bundle());
    }
    const serve::KeyBundle decoded =
        serve::decode_key_bundle(bundles[0], ctx);
    const std::size_t per_bundle =
        decoded.relin.byte_size() + decoded.galois.byte_size();

    constexpr int kHotSet = 8;
    const int cap_mb =
        static_cast<int>((static_cast<std::size_t>(kHotSet) * per_bundle) >>
                         20) +
        2;

    std::printf("\nchurn: %d sessions (%d distinct bundles, %.1f KiB "
                "expanded each), %d Zipf requests, capped pass at %d MiB\n",
                sessions, kBundles,
                static_cast<double>(per_bundle) / 1024.0, requests, cap_mb);
    std::printf("%-10s %10s %10s %10s %10s %10s %12s %10s\n", "pass",
                "reg/s", "p50 ms", "p95 ms", "hit rate", "evictions",
                "resident MB", "RSS MB");

    struct Pass {
        const char* name;
        int cache_mb;
        int sessions;  ///< the all-resident baseline stays small on purpose:
                       ///< S expanded bundles resident at once is the very
                       ///< RSS blow-up the capped store exists to prevent
    };
    double allres_p95 = 0.0;
    double capped_p95 = 0.0;
    for (const Pass pass : {Pass{"allres", 0, std::min(sessions, 64)},
                            Pass{"capped", cap_mb, sessions}}) {
        serve::ServeOptions sopts;
        sopts.max_inflight = 2;
        sopts.queue_capacity = 256;
        sopts.key_cache_mb = pass.cache_mb;
        serve::InferenceServer server(cn, ctx, sopts, prepared);

        const auto reg_t0 = std::chrono::steady_clock::now();
        std::vector<u64> ids;
        ids.reserve(static_cast<std::size_t>(pass.sessions));
        for (int s = 0; s < pass.sessions; ++s) {
            ids.push_back(server.register_session(
                bundles[static_cast<std::size_t>(s % kBundles)]));
        }
        const double reg_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - reg_t0)
                                 .count();

        // Zipf(1.1) over this pass's session ranks: most requests hit a
        // handful of hot sessions. The capped pass sizes its cache to
        // that hot set, so a well-behaved LRU serves mostly hits despite
        // S >> cache.
        std::vector<double> cum;
        cum.reserve(ids.size());
        double total = 0.0;
        for (std::size_t r = 1; r <= ids.size(); ++r) {
            total += 1.0 / std::pow(static_cast<double>(r), 1.1);
            cum.push_back(total);
        }
        std::mt19937_64 rng(99);
        std::uniform_real_distribution<double> uni(0.0, total);
        std::vector<std::future<serve::ServeReply>> futs;
        std::vector<std::chrono::steady_clock::time_point> at;
        for (int r = 0; r < requests; ++r) {
            const auto rank = static_cast<std::size_t>(
                std::lower_bound(cum.begin(), cum.end(), uni(rng)) -
                cum.begin());
            serve::ServeClient& c = *clients[rank % kBundles];
            c.set_session_id(ids[rank]);
            const std::vector<double> input = bench::random_vector(
                64, 1.0, 7000 + static_cast<u64>(r));
            at.push_back(std::chrono::steady_clock::now());
            futs.push_back(server.submit(c.make_request(input)));
        }
        std::vector<double> latency_ms;
        for (std::size_t i = 0; i < futs.size(); ++i) {
            (void)futs[i].get();
            latency_ms.push_back(
                1e3 * std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - at[i])
                          .count());
        }

        const serve::ServerStats stats = server.stats();
        ORION_CHECK(stats.completed == static_cast<u64>(requests) &&
                        stats.failed == 0,
                    "churn requests failed");
        const std::size_t cap_bytes =
            static_cast<std::size_t>(pass.cache_mb) << 20;
        ORION_CHECK(cap_bytes == 0 || stats.key_resident_bytes <= cap_bytes,
                    "resident key bytes " << stats.key_resident_bytes
                                          << " exceed the " << pass.cache_mb
                                          << " MiB cap");

        const double p50 = percentile(latency_ms, 0.50);
        const double p95 = percentile(latency_ms, 0.95);
        const u64 lookups =
            std::max<u64>(stats.key_cache_hits + stats.key_cache_misses, 1);
        const double hit_rate =
            static_cast<double>(stats.key_cache_hits) /
            static_cast<double>(lookups);
        const double rss = rss_mb();
        std::printf("%-10s %10.1f %10.1f %10.1f %10.3f %10llu %12.1f "
                    "%10.1f\n",
                    pass.name, static_cast<double>(sessions) / reg_s, p50,
                    p95, hit_rate,
                    static_cast<unsigned long long>(
                        stats.key_cache_evictions),
                    static_cast<double>(stats.key_resident_bytes) /
                        (1024.0 * 1024.0),
                    rss);

        const std::string prefix = std::string(pass.name) + "/";
        bench::json_metric(prefix + "register_per_s",
                           static_cast<double>(sessions) / reg_s);
        bench::json_metric(prefix + "p50_ms", p50);
        bench::json_metric(prefix + "p95_ms", p95);
        bench::json_metric(prefix + "hit_rate", hit_rate);
        bench::json_metric(prefix + "evictions",
                           static_cast<double>(stats.key_cache_evictions));
        bench::json_metric(prefix + "resident_mb",
                           static_cast<double>(stats.key_resident_bytes) /
                               (1024.0 * 1024.0));
        bench::json_metric(prefix + "disk_mb",
                           static_cast<double>(stats.key_disk_bytes) /
                               (1024.0 * 1024.0));
        bench::json_metric(prefix + "rss_mb", rss);
        // The server-side latency view from its own registry (one schema
        // with metrics_text(); client-side percentiles above stay the
        // headline numbers since they include queueing).
        const auto snap = server.metrics().snapshot();
        bench::json_metric(prefix + "server_exec_p95_ms",
                           1e3 * snap.at("serve.execute.seconds.p95"));
        if (pass.cache_mb == 0) {
            allres_p95 = p95;
        } else {
            capped_p95 = p95;
        }

        // Unregister/re-register churn tail: drop every other session and
        // prove the survivors (including the hot set) still serve.
        for (std::size_t i = 1; i < ids.size(); i += 2) {
            ORION_CHECK(server.unregister_session(ids[i]),
                        "churn unregister failed");
        }
        clients[0]->set_session_id(ids[0]);
        (void)server
            .submit(clients[0]->make_request(bench::random_vector(64, 1.0,
                                                                  8001)))
            .get();
    }
    bench::json_metric("churn/sessions", static_cast<double>(sessions));
    bench::json_metric("churn/bundle_kib",
                       static_cast<double>(per_bundle) / 1024.0);
    if (allres_p95 > 0.0) {
        // The acceptance ratio: with the hot set fitting in cache, the
        // capped pass should stay within ~2x of all-resident.
        bench::json_metric("churn/p95_vs_allres", capped_p95 / allres_p95);
        std::printf("churn: capped p95 is %.2fx the all-resident p95\n",
                    capped_p95 / allres_p95);
    }
}

/**
 * The slot-batched inference workload (--batch B): the same micro MLP
 * compiled twice — once single-sample (the exact historical program) and
 * once with B samples interleaved across batch lanes — and driven through
 * the server both ways with identical inputs. One batched request runs
 * the encrypted program ONCE for all B images, so per-image latency must
 * drop by roughly the batch factor; the run asserts >= 8x at B >= 16 and
 * cross-checks every batched image against its single-sample result.
 */
void
run_batch(int target_batch)
{
    ORION_CHECK(target_batch >= 2, "--batch needs at least 2");
    const Stack batched(target_batch);
    const int B = batched.cn.batch;
    std::printf("\nbatch: requested %d, compiled %d (capacity %d, lane "
                "stride %llu, limited by %s)\n",
                target_batch, B, batched.cn.batch_capacity,
                static_cast<unsigned long long>(batched.cn.batch_stride),
                batched.cn.batch_limit_layer.c_str());
    ORION_CHECK(B >= 2, "program has no batch capacity");

    const Stack single;
    const int rounds = bench::smoke() ? 2 : 5;

    serve::ServeOptions sopts;
    sopts.max_inflight = 1;  // one core, one worker: pure work comparison
    sopts.queue_capacity = 256;

    serve::InferenceServer s1(single.cn, single.ctx, sopts,
                              single.prepared);
    serve::ServeClient c1(single.cn, single.ctx, /*seed=*/3001);
    c1.set_session_id(s1.register_session(c1.key_bundle()));

    serve::InferenceServer sB(batched.cn, batched.ctx, sopts,
                              batched.prepared);
    serve::ServeClient cB(batched.cn, batched.ctx, /*seed=*/3002);
    cB.set_session_id(sB.register_session(cB.key_bundle()));

    std::vector<std::vector<double>> inputs;
    for (int i = 0; i < B; ++i) {
        inputs.push_back(
            bench::random_vector(64, 1.0, 300 + static_cast<u64>(i)));
    }

    // Warm both paths (first request pays key binding + NTT warmup).
    std::vector<std::vector<double>> single_outs;
    {
        const auto reply =
            s1.submit(c1.make_request(inputs[0])).get();
        single_outs.push_back(c1.decrypt_response(reply.response));
        (void)sB.submit(cB.make_request(inputs)).get();
    }

    // Single-sample pass: B sequential requests per round.
    std::vector<double> b1_image_ms;
    for (int r = 0; r < rounds; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < B; ++i) {
            const auto reply =
                s1.submit(c1.make_request(inputs[static_cast<std::size_t>(
                              i)]))
                    .get();
            if (r == 0 && i > 0) {
                single_outs.push_back(c1.decrypt_response(reply.response));
            }
        }
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        b1_image_ms.push_back(1e3 * wall / static_cast<double>(B));
    }

    // Batched pass: one request per round carries all B images.
    std::vector<double> bN_image_ms;
    std::vector<std::vector<double>> batched_outs;
    for (int r = 0; r < rounds; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto reply = sB.submit(cB.make_request(inputs)).get();
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        bN_image_ms.push_back(1e3 * wall / static_cast<double>(B));
        if (r == 0) {
            batched_outs = cB.decrypt_response(
                reply.response, static_cast<int>(inputs.size()));
        }
    }

    // Every batched lane must agree with its single-sample run (distinct
    // keys, so agreement is up to CKKS approximation noise).
    ORION_CHECK(batched_outs.size() == single_outs.size(),
                "batched output count mismatch");
    double worst = 0.0;
    for (std::size_t i = 0; i < batched_outs.size(); ++i) {
        ORION_CHECK(batched_outs[i].size() == single_outs[i].size(),
                    "batched output size mismatch");
        for (std::size_t j = 0; j < batched_outs[i].size(); ++j) {
            worst = std::max(worst, std::abs(batched_outs[i][j] -
                                             single_outs[i][j]));
        }
    }
    ORION_CHECK(worst < 5e-2, "batched outputs diverge from single-sample "
                "outputs (max abs diff "
                                  << worst << ")");

    const serve::ServerStats bstats = sB.stats();
    ORION_CHECK(bstats.images ==
                    static_cast<u64>(rounds + 1) * static_cast<u64>(B),
                "server image ledger mismatch");

    const double b1_ms = percentile(b1_image_ms, 0.50);
    const double bN_ms = percentile(bN_image_ms, 0.50);
    const double speedup = b1_ms / bN_ms;
    const double images_per_s = 1e3 / bN_ms;
    std::printf("%-10s %14s %14s %10s %12s\n", "batch", "per-image ms",
                "images/s", "speedup", "max |diff|");
    std::printf("%-10d %14.2f %14.2f %10s %12.2e\n", 1, b1_ms,
                1e3 / b1_ms, "1.0x", 0.0);
    std::printf("%-10d %14.2f %14.2f %9.1fx %12.2e\n", B, bN_ms,
                images_per_s, speedup, worst);

    bench::json_metric("batch/b1_per_image_ms", b1_ms);
    bench::json_metric("batch/b" + std::to_string(B) + "_per_image_ms",
                       bN_ms);
    bench::json_metric("batch/compiled_batch", static_cast<double>(B));
    bench::json_metric("batch/speedup_x", speedup);
    bench::json_metric("batch/images_per_s", images_per_s);
    bench::json_metric("batch/max_abs_diff", worst);

    // The acceptance criterion: amortizing one program execution over 16
    // lanes must buy at least 8x per-image throughput.
    if (B >= 16) {
        ORION_CHECK(speedup >= 8.0,
                    "batched speedup " << speedup << "x is below the 8x "
                    "floor at batch " << B);
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bool churn = false;
    int nshards = 0;
    int batch = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--churn") == 0) churn = true;
        if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
            nshards = std::atoi(argv[i + 1]);
        }
        if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
            batch = std::atoi(argv[i + 1]);
        }
    }
    bench::print_header(
        nshards > 0
            ? "bench_serve: multi-process sharded serving (--shards)"
            : (batch > 0
                   ? "bench_serve: slot-batched inference (--batch)"
                   : (churn
                          ? "bench_serve: session key-cache churn (--churn)"
                          : "bench_serve: encrypted-inference throughput vs "
                            "concurrency")));

    if (batch > 0) {
        run_batch(batch);
        return 0;
    }

    if (nshards > 0) {
        // Fork-before-threads: run_shards builds the CKKS stack only
        // after the shard children exist.
        run_shards(nshards);
        return 0;
    }

    // The same micro model the serving tests validate (src/nn/models.h).
    const Stack st;
    const ckks::Context& ctx = st.ctx;
    const core::CompiledNetwork& cn = st.cn;
    const auto& prepared = st.prepared;

    if (churn) {
        run_churn(cn, ctx, prepared);
        return 0;
    }

    // Two sessions: half the requests go through each key bundle.
    serve::ServeClient alice(cn, ctx, /*seed=*/1001);
    serve::ServeClient bob(cn, ctx, /*seed=*/2002);

    const std::vector<int> concurrency =
        bench::smoke() ? std::vector<int>{4} : std::vector<int>{1, 2, 4, 8};
    const int per_worker = bench::reps(4);

    std::printf("\n%-12s %10s %10s %10s %12s %12s\n", "max_inflight",
                "requests", "p50 ms", "p95 ms", "req/s",
                "queue p95 ms");
    for (const int c : concurrency) {
        serve::ServeOptions sopts;
        sopts.max_inflight = c;
        sopts.queue_capacity = 256;
        serve::InferenceServer server(cn, ctx, sopts, prepared);
        alice.set_session_id(server.register_session(alice.key_bundle()));
        bob.set_session_id(server.register_session(bob.key_bundle()));

        const int requests = c * per_worker;
        std::vector<std::future<serve::ServeReply>> futures;
        std::vector<std::chrono::steady_clock::time_point> submitted;
        futures.reserve(static_cast<std::size_t>(requests));
        submitted.reserve(static_cast<std::size_t>(requests));

        const auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < requests; ++r) {
            serve::ServeClient& client = (r % 2 == 0) ? alice : bob;
            const std::vector<double> input = bench::random_vector(
                64, 1.0, 400 + static_cast<u64>(r));
            submitted.push_back(std::chrono::steady_clock::now());
            futures.push_back(server.submit(client.make_request(input)));
        }
        std::vector<double> latency_ms, queue_ms;
        for (std::size_t i = 0; i < futures.size(); ++i) {
            const serve::ServeReply reply = futures[i].get();
            latency_ms.push_back(
                1e3 *
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - submitted[i])
                    .count());
            queue_ms.push_back(1e3 * reply.stats.queue_wait_s);
        }
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        const serve::ServerStats stats = server.stats();
        ORION_CHECK(stats.completed == static_cast<u64>(requests) &&
                        stats.failed == 0,
                    "bench requests failed");

        const double p50 = percentile(latency_ms, 0.50);
        const double p95 = percentile(latency_ms, 0.95);
        const double rps = static_cast<double>(requests) / wall;
        std::printf("%-12d %10d %10.1f %10.1f %12.2f %12.1f\n", c, requests,
                    p50, p95, rps, percentile(queue_ms, 0.95));

        const std::string prefix = "c" + std::to_string(c) + "/";
        bench::json_metric(prefix + "throughput_rps", rps);
        bench::json_metric(prefix + "p50_ms", p50);
        bench::json_metric(prefix + "p95_ms", p95);
        bench::json_metric(prefix + "queue_p95_ms",
                           percentile(queue_ms, 0.95));
        bench::json_metric(prefix + "peak_inflight",
                           static_cast<double>(stats.peak_inflight));
        bench::json_metric(
            prefix + "mean_exec_ms",
            1e3 * stats.total_execute_s /
                static_cast<double>(std::max<u64>(stats.completed, 1)));
        // Server-registry view of the same pass: the execute-latency
        // histogram and the ledger, as metrics_text() would expose them.
        const auto snap = server.metrics().snapshot();
        bench::json_metric(prefix + "server_exec_p50_ms",
                           1e3 * snap.at("serve.execute.seconds.p50"));
        bench::json_metric(prefix + "server_exec_p95_ms",
                           1e3 * snap.at("serve.execute.seconds.p95"));
        bench::json_metric(prefix + "server_completed",
                           snap.at("serve.completed"));
    }
    std::printf("\n(two sessions with distinct key bundles; kernel threads "
                "per request = 1,\n scaling comes from request-level "
                "parallelism across the worker pool)\n");
    return 0;
}
