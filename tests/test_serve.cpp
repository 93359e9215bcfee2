#include <gtest/gtest.h>

#include <future>
#include <map>
#include <sstream>
#include <thread>

#include "src/core/telemetry.h"

#include "src/core/executor.h"
#include "src/core/session.h"
#include "src/core/thread_pool.h"
#include "src/nn/models.h"
#include "src/serve/serve.h"
#include "tests/serve_env.h"

namespace orion::test {
namespace {

using core::CompiledNetwork;
using nn::Network;
using serve::InferenceServer;
using serve::ServeClient;
using serve::ServeOptions;

ServeOptions
opts(int inflight, int capacity, bool paused = false)
{
    ServeOptions o;
    o.max_inflight = inflight;
    o.queue_capacity = capacity;
    o.start_paused = paused;
    return o;
}

// ---------------------------------------------------------------------
// Executor reuse (the pooling prerequisite)
// ---------------------------------------------------------------------

TEST(Serve, BackToBackRunsOnOneExecutorAgree)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    DirectRun direct(senv.cn, env.ctx, senv.prepared);
    const std::vector<double> x = random_vector(64, 1.0, 61);

    // Fresh encryption noise differs per run; results agree to CKKS
    // precision.
    const std::vector<double> o1 = direct.run(x);
    const std::vector<double> o2 = direct.run(x);
    ASSERT_EQ(o1.size(), o2.size());
    EXPECT_LT(max_abs_diff(o1, o2), 1e-3);

    // Encrypted-domain reruns of the same ciphertexts: all deterministic
    // stats match exactly, and so do the decrypted outputs.
    const std::vector<ckks::Ciphertext> in_cts = direct.client.encrypt({x});
    const core::EncryptedResult e1 = direct.exec.run_encrypted(in_cts);
    const core::EncryptedResult e2 = direct.exec.run_encrypted(in_cts);
    EXPECT_EQ(e1.rotations, e2.rotations);
    EXPECT_EQ(e1.pmults, e2.pmults);
    EXPECT_EQ(e1.bootstraps, e2.bootstraps);
    EXPECT_EQ(e1.rotations, senv.cn.total_rotations);
    EXPECT_LT(max_abs_diff(direct.client.decrypt(e1.outputs, 1).front(),
                           direct.client.decrypt(e2.outputs, 1).front()),
              1e-6);
}

// ---------------------------------------------------------------------
// End-to-end serving
// ---------------------------------------------------------------------

TEST(Serve, TwoSessionsEndToEndMatchDirectExecution)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();

    // Ground truth: a direct in-process run under a third client's keys.
    DirectRun direct(senv.cn, env.ctx, senv.prepared);

    InferenceServer server(senv.cn, env.ctx, opts(2, 8), senv.prepared);
    ServeClient alice(senv.cn, env.ctx, /*seed=*/100);
    ServeClient bob(senv.cn, env.ctx, /*seed=*/200);
    alice.set_session_id(server.register_session(alice.key_bundle()));
    bob.set_session_id(server.register_session(bob.key_bundle()));
    EXPECT_EQ(server.session_count(), 2u);
    EXPECT_NE(alice.session_id(), bob.session_id());

    const std::vector<double> xa = random_vector(64, 1.0, 71);
    const std::vector<double> xb = random_vector(64, 1.0, 72);
    const std::vector<double> want_a = direct.run(xa);
    const std::vector<double> want_b = direct.run(xb);

    // Both sessions in flight concurrently, through the full
    // serialize -> submit -> execute -> deserialize -> decrypt path.
    std::future<serve::ServeReply> fa = server.submit(alice.make_request(xa));
    std::future<serve::ServeReply> fb = server.submit(bob.make_request(xb));
    const serve::ServeReply ra = fa.get();
    const serve::ServeReply rb = fb.get();

    const std::vector<double> got_a = alice.decrypt_response(ra.response);
    const std::vector<double> got_b = bob.decrypt_response(rb.response);
    ASSERT_EQ(got_a.size(), want_a.size());
    ASSERT_EQ(got_b.size(), want_b.size());
    EXPECT_LT(max_abs_diff(got_a, want_a), 1e-3);
    EXPECT_LT(max_abs_diff(got_b, want_b), 1e-3);

    // Per-request stats.
    EXPECT_EQ(ra.stats.session_id, alice.session_id());
    EXPECT_EQ(ra.stats.rotations, senv.cn.total_rotations);
    EXPECT_EQ(ra.stats.bootstraps, 0u);
    EXPECT_GE(ra.stats.queue_wait_s, 0.0);
    EXPECT_GT(ra.stats.execute_s, 0.0);
    // Stats echoed on the wire match.
    const serve::Response parsed = alice.parse_response(ra.response);
    EXPECT_EQ(parsed.rotations, ra.stats.rotations);
    EXPECT_EQ(parsed.request_id, ra.stats.request_id);

    // Aggregates, server-level and per-session. Unknown ids report
    // nullopt, distinct from a live session that has served nothing.
    EXPECT_EQ(server.session_requests(alice.session_id()), 1u);
    EXPECT_EQ(server.session_requests(bob.session_id()), 1u);
    EXPECT_EQ(server.session_requests(999), std::nullopt);
    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.total_rotations, 2 * senv.cn.total_rotations);
    EXPECT_LE(stats.peak_inflight, 2u);
    EXPECT_GE(stats.peak_inflight, 1u);
}

TEST(Serve, OneWorkerServesManySessionsByRebinding)
{
    // A single pooled executor must serve interleaved sessions correctly
    // (key rebinding between runs - the executor-reuse requirement).
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    DirectRun direct(senv.cn, env.ctx, senv.prepared);

    InferenceServer server(senv.cn, env.ctx, opts(1, 8), senv.prepared);
    ServeClient alice(senv.cn, env.ctx, /*seed=*/101);
    ServeClient bob(senv.cn, env.ctx, /*seed=*/202);
    alice.set_session_id(server.register_session(alice.key_bundle()));
    bob.set_session_id(server.register_session(bob.key_bundle()));

    const std::vector<double> x = random_vector(64, 1.0, 73);
    const std::vector<double> want = direct.run(x);
    for (int round = 0; round < 2; ++round) {
        auto fa = server.submit(alice.make_request(x));
        auto fb = server.submit(bob.make_request(x));
        EXPECT_LT(max_abs_diff(alice.decrypt_response(fa.get().response),
                               want),
                  1e-3);
        EXPECT_LT(max_abs_diff(bob.decrypt_response(fb.get().response),
                               want),
                  1e-3);
    }
    EXPECT_EQ(server.stats().completed, 4u);
}

// ---------------------------------------------------------------------
// Scheduler admission and failure paths
// ---------------------------------------------------------------------

TEST(Serve, TrySubmitRejectsWhenQueueFull)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    // Paused workers: the queue fills deterministically.
    InferenceServer server(senv.cn, env.ctx,
                           opts(1, /*capacity=*/2, /*paused=*/true),
                           senv.prepared);
    ServeClient client(senv.cn, env.ctx, /*seed=*/103);
    client.set_session_id(server.register_session(client.key_bundle()));

    const std::vector<double> x = random_vector(64, 1.0, 74);
    auto f1 = server.try_submit(client.make_request(x));
    auto f2 = server.try_submit(client.make_request(x));
    auto f3 = server.try_submit(client.make_request(x));
    EXPECT_TRUE(f1.has_value());
    EXPECT_TRUE(f2.has_value());
    EXPECT_FALSE(f3.has_value());  // capacity 2: third is rejected
    EXPECT_EQ(server.stats().rejected, 1u);
    // A rejected attempt still counts as submitted, so the ledger
    // balances: completed + failed + rejected == submitted.
    EXPECT_EQ(server.stats().submitted, 3u);
    EXPECT_EQ(server.stats().peak_queue_depth, 2u);

    server.resume();
    EXPECT_NO_THROW(f1->get());
    EXPECT_NO_THROW(f2->get());
    const serve::ServerStats s = server.stats();
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(s.completed + s.failed + s.rejected, s.submitted);
}

TEST(Serve, BlockingSubmitAppliesBackpressure)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    InferenceServer server(senv.cn, env.ctx,
                           opts(1, /*capacity=*/1, /*paused=*/true),
                           senv.prepared);
    ServeClient client(senv.cn, env.ctx, /*seed=*/104);
    client.set_session_id(server.register_session(client.key_bundle()));
    const std::vector<double> x = random_vector(64, 1.0, 75);

    auto f1 = server.submit(client.make_request(x));
    // The queue is full; the next submit must block until resume() lets
    // the worker drain it.
    std::future<serve::ServeReply> f2;
    std::thread submitter([&] {
        f2 = server.submit(client.make_request(x));
    });
    server.resume();
    submitter.join();
    EXPECT_NO_THROW(f1.get());
    EXPECT_NO_THROW(f2.get());
    EXPECT_EQ(server.stats().completed, 2u);
    EXPECT_EQ(server.stats().rejected, 0u);
}

TEST(Serve, UnknownSessionFailsTheRequest)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    InferenceServer server(senv.cn, env.ctx, opts(1, 4), senv.prepared);
    ServeClient client(senv.cn, env.ctx, /*seed=*/105);
    client.set_session_id(777);  // never registered

    auto fut = server.submit(client.make_request(random_vector(64, 1.0, 76)));
    EXPECT_THROW(fut.get(), Error);
    EXPECT_EQ(server.stats().failed, 1u);
    EXPECT_EQ(server.stats().completed, 0u);
}

TEST(Serve, MalformedRequestFailsCleanly)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    InferenceServer server(senv.cn, env.ctx, opts(1, 4), senv.prepared);

    ckks::serial::Bytes garbage = {1, 2, 3, 4, 5};
    auto fut = server.submit(std::move(garbage));
    EXPECT_THROW(fut.get(), Error);
    EXPECT_EQ(server.stats().failed, 1u);
}

TEST(Serve, MismatchedParameterBundleRejected)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    InferenceServer server(senv.cn, env.ctx, opts(1, 4), senv.prepared);

    // A bundle from an incompatible ring must be rejected at registration.
    ckks::CkksParams other = ckks::CkksParams::toy();
    other.num_scale_primes += 1;
    serve::KeyBundle bundle;
    bundle.params = other;
    ckks::KeyGenerator keygen(env.ctx, 9);
    bundle.relin = keygen.make_relin_key();
    EXPECT_THROW(server.register_session(serve::encode_key_bundle(bundle)),
                 Error);

    // Unregistering a never-registered id is not an error, just false.
    EXPECT_FALSE(server.unregister_session(42));
}

TEST(Serve, OtherWireVersionsAreRejectedAtTheServer)
{
    // One wire layout: a key bundle or request stamped with any version
    // but kWireVersion (including the retired 2 and 3) fails before any
    // payload byte is read, and the server keeps serving current clients.
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    InferenceServer server(senv.cn, env.ctx, opts(1, 4), senv.prepared);
    ServeClient client(senv.cn, env.ctx, /*seed=*/402);
    const ckks::serial::Bytes bundle = client.key_bundle();
    client.set_session_id(server.register_session(bundle));
    const ckks::serial::Bytes request =
        client.make_request(random_vector(64, 1.0, 83));

    for (const u8 version : {u8(2), u8(3), u8(5)}) {
        ckks::serial::Bytes old_bundle = bundle;
        old_bundle[4] = version;
        expect_throw_contains<Error>(
            [&] { (void)server.register_session(old_bundle); },
            "unsupported wire version");
        ckks::serial::Bytes old_request = request;
        old_request[4] = version;
        expect_throw_contains<Error>(
            [&] { (void)serve::decode_request(old_request, env.ctx); },
            "unsupported wire version");
        EXPECT_THROW(server.submit(std::move(old_request)).get(), Error);
    }
    EXPECT_EQ(server.session_count(), 1u);
    EXPECT_NO_THROW((void)server.submit(request).get());
}

TEST(Serve, UnregisterIsIdempotent)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    InferenceServer server(senv.cn, env.ctx, opts(1, 4), senv.prepared);
    ServeClient client(senv.cn, env.ctx, /*seed=*/107);
    const u64 id = server.register_session(client.key_bundle());

    EXPECT_EQ(server.session_count(), 1u);
    EXPECT_TRUE(server.unregister_session(id));
    EXPECT_EQ(server.session_count(), 0u);
    // A duplicate unregister (client retry, double-close) is a no-op.
    EXPECT_FALSE(server.unregister_session(id));
    EXPECT_EQ(server.session_requests(id), std::nullopt);
}

TEST(Serve, ServerShutdownFailsPendingRequests)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    std::future<serve::ServeReply> orphan;
    {
        InferenceServer server(senv.cn, env.ctx,
                               opts(1, 4, /*paused=*/true), senv.prepared);
        ServeClient client(senv.cn, env.ctx, /*seed=*/106);
        client.set_session_id(server.register_session(client.key_bundle()));
        orphan =
            server.submit(client.make_request(random_vector(64, 1.0, 77)));
        // Destructor runs with the request still queued (workers paused).
    }
    EXPECT_THROW(orphan.get(), Error);
}

TEST(Serve, ConcurrentMixedSessionsUnderLoad)
{
    // The sanitizer-job stress: several sessions, more requests than
    // workers, futures resolved out of order.
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    DirectRun direct(senv.cn, env.ctx, senv.prepared);

    InferenceServer server(senv.cn, env.ctx, opts(2, 16), senv.prepared);
    const int kClients = 3;
    const int kRequestsEach = 2;
    std::vector<std::unique_ptr<ServeClient>> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.push_back(std::make_unique<ServeClient>(
            senv.cn, env.ctx, /*seed=*/300 + static_cast<u64>(c)));
        clients.back()->set_session_id(
            server.register_session(clients.back()->key_bundle()));
    }

    std::vector<std::vector<double>> inputs;
    std::vector<std::vector<double>> want;
    std::vector<std::future<serve::ServeReply>> futures;
    std::vector<int> owner;
    for (int r = 0; r < kRequestsEach; ++r) {
        for (int c = 0; c < kClients; ++c) {
            inputs.push_back(random_vector(64, 1.0,
                                           800 + static_cast<u64>(r * 8 + c)));
            want.push_back(direct.run(inputs.back()));
            futures.push_back(
                server.submit(clients[static_cast<std::size_t>(c)]
                                  ->make_request(inputs.back())));
            owner.push_back(c);
        }
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const serve::ServeReply reply = futures[i].get();
        const std::vector<double> got =
            clients[static_cast<std::size_t>(owner[i])]->decrypt_response(
                reply.response);
        EXPECT_LT(max_abs_diff(got, want[i]), 1e-3) << "request " << i;
    }
    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed,
              static_cast<u64>(kClients * kRequestsEach));
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_LE(stats.peak_inflight, 2u);
}

// ---------------------------------------------------------------------
// Bounded key cache: eviction + churn through the full serving path
// ---------------------------------------------------------------------

TEST(Serve, BoundedKeyCacheEvictsAndReloadsUnderChurn)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    DirectRun direct(senv.cn, env.ctx, senv.prepared);

    ServeOptions o = opts(2, 32);
    o.key_cache_mb = 1;
    InferenceServer server(senv.cn, env.ctx, o, senv.prepared);

    // One client, many sessions: registering the same bundle bytes under
    // fresh ids is exactly what a reconnecting client does, and it keeps
    // the test cheap (one keygen). Size the session count so the
    // registered total overflows the 1 MiB cap.
    ServeClient client(senv.cn, env.ctx, /*seed=*/400);
    const ckks::serial::Bytes bundle = client.key_bundle();
    const serve::KeyBundle decoded =
        serve::decode_key_bundle(bundle, env.ctx);
    const std::size_t per_bundle =
        decoded.relin.byte_size() + decoded.galois.byte_size();
    const std::size_t cap = std::size_t{1} << 20;
    const int overflow = static_cast<int>(cap / per_bundle) + 2;
    ASSERT_LE(overflow, 64) << "toy bundles grew too small for this test";

    std::vector<u64> ids;
    for (int i = 0; i < overflow; ++i) {
        ids.push_back(server.register_session(bundle));
    }
    // Registration alone must already have spilled: more key bytes were
    // put than the cache may keep resident.
    {
        const serve::ServerStats s = server.stats();
        EXPECT_GE(s.key_cache_evictions, 1u);
        EXPECT_LE(s.key_resident_bytes, cap);
        EXPECT_GT(s.key_disk_bytes, 0u);
    }

    // Round-robin requests over every session: the worst case for LRU,
    // so evicted sessions reload from their spill files mid-request.
    const std::vector<double> x = random_vector(64, 1.0, 81);
    const std::vector<double> want = direct.run(x);
    std::vector<ckks::serial::Bytes> requests;
    for (const u64 id : ids) {
        client.set_session_id(id);
        requests.push_back(client.make_request(x));
    }
    std::vector<std::future<serve::ServeReply>> futs;
    for (ckks::serial::Bytes& r : requests) {
        futs.push_back(server.submit(std::move(r)));
    }
    for (std::future<serve::ServeReply>& f : futs) {
        EXPECT_LT(max_abs_diff(client.decrypt_response(f.get().response),
                               want),
                  1e-3);
    }

    const serve::ServerStats s = server.stats();
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.completed, static_cast<u64>(overflow));
    // Every completed request acquired its keys exactly once.
    EXPECT_EQ(s.key_cache_hits + s.key_cache_misses, s.completed);
    // Reloaded keys decrypted correctly above, so the spill round-trip is
    // bit-compatible; residency stayed within the cap throughout.
    EXPECT_GE(s.key_cache_misses, 1u);
    EXPECT_LE(s.key_resident_bytes, cap);

    // Unregister half the sessions; their spill bytes go away, the rest
    // keep serving.
    for (std::size_t i = 0; i < ids.size(); i += 2) {
        EXPECT_TRUE(server.unregister_session(ids[i]));
    }
    client.set_session_id(ids[1]);
    EXPECT_NO_THROW(server.submit(client.make_request(x)).get());
}

TEST(Serve, ConcurrentChurnKeepsInFlightRequestsSafe)
{
    // Register/unregister churn racing in-flight requests: an in-flight
    // request that already resolved its session must complete even if the
    // session is unregistered under it (pinned lease), later requests for
    // the dead id fail cleanly, and the stats ledger balances. Run under
    // ASan this also proves the executor never sees dangling key
    // pointers (they are unbound on every exit path).
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();

    ServeOptions o = opts(2, 64);
    o.key_cache_mb = 1;
    InferenceServer server(senv.cn, env.ctx, o, senv.prepared);

    ServeClient client(senv.cn, env.ctx, /*seed=*/401);
    const ckks::serial::Bytes bundle = client.key_bundle();
    const u64 stable = server.register_session(bundle);
    const u64 victim = server.register_session(bundle);

    const std::vector<double> x = random_vector(64, 1.0, 82);
    client.set_session_id(stable);
    const ckks::serial::Bytes stable_req = client.make_request(x);
    client.set_session_id(victim);
    const ckks::serial::Bytes victim_req = client.make_request(x);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 2;
    std::vector<std::future<serve::ServeReply>> stable_futs(
        kThreads * kPerThread);
    std::vector<std::future<serve::ServeReply>> victim_futs(
        kThreads * kPerThread);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const int slot = t * kPerThread + i;
                stable_futs[static_cast<std::size_t>(slot)] =
                    server.submit(ckks::serial::Bytes(stable_req));
                victim_futs[static_cast<std::size_t>(slot)] =
                    server.submit(ckks::serial::Bytes(victim_req));
            }
        });
    }
    // Churn the victim session while submissions and executions race.
    EXPECT_TRUE(server.unregister_session(victim));
    EXPECT_FALSE(server.unregister_session(victim));
    for (std::thread& t : submitters) t.join();

    // Stable-session requests all succeed; victim requests either ran
    // before the unregister (pinned lease) or failed as unknown — both
    // are correct, crashing or corrupting is not.
    u64 victim_ok = 0, victim_failed = 0;
    for (std::future<serve::ServeReply>& f : stable_futs) {
        EXPECT_NO_THROW(f.get());
    }
    for (std::future<serve::ServeReply>& f : victim_futs) {
        try {
            f.get();
            victim_ok += 1;
        } catch (const Error&) {
            victim_failed += 1;
        }
    }
    EXPECT_EQ(victim_ok + victim_failed,
              static_cast<u64>(kThreads * kPerThread));

    const serve::ServerStats s = server.stats();
    EXPECT_EQ(s.completed + s.failed + s.rejected, s.submitted);
    EXPECT_EQ(s.completed,
              static_cast<u64>(kThreads * kPerThread) + victim_ok);
    EXPECT_EQ(s.failed, victim_failed);
    EXPECT_EQ(server.session_count(), 1u);
}

// ---------------------------------------------------------------------
// Serving bootstrap programs (the public-key circuit)
// ---------------------------------------------------------------------

/**
 * A bootstrap-capable serving environment: the micro MLP compiled at
 * l_eff = 2, which is one level short of its depth, so placement is
 * forced to insert a bootstrap — served through the real public-key
 * CoeffToSlot -> EvalMod -> SlotToCoeff circuit.
 */
struct BootServeEnv {
    static constexpr int kLeff = 2;

    ckks::CkksParams params;
    ckks::Context ctx;
    Network net;
    CompiledNetwork cn;
    std::shared_ptr<const core::PreparedProgram> prepared;

    BootServeEnv()
        : params(ckks::CkksParams::bootstrap_toy(kLeff)), ctx(params),
          net(nn::make_micro_mlp())
    {
        core::CompileOptions opt;
        opt.slots = ctx.slot_count();
        opt.l_eff = kLeff;
        opt.cost = core::CostModel::for_params(ctx.degree(), 3, 3, 13);
        opt.calibration_samples = 3;
        opt.structural_only = false;
        cn = core::compile(net, opt);
        prepared = std::make_shared<const core::PreparedProgram>(cn, ctx);
    }

    static BootServeEnv&
    shared()
    {
        static BootServeEnv env;
        return env;
    }
};

TEST(ServeBootstrap, BootstrapProgramServedUnderClientKeysOnly)
{
    // The ISSUE's acceptance test: an InferenceServer executes a program
    // containing a bootstrap using only the client's evaluation-key
    // bundle — no SecretKey is reachable from the serving path — and the
    // decrypted logits argmax-match the cleartext execution.
    BootServeEnv& senv = BootServeEnv::shared();
    ASSERT_GE(senv.cn.num_bootstraps, 1u);
    ASSERT_TRUE(senv.prepared->bootstrap_supported());

    InferenceServer server(senv.cn, senv.ctx, opts(1, 4), senv.prepared);
    ServeClient client(senv.cn, senv.ctx, /*seed=*/300);
    client.set_session_id(server.register_session(client.key_bundle()));

    const std::vector<double> x = random_vector(64, 1.0, 91);
    std::future<serve::ServeReply> fut = server.submit(client.make_request(x));
    const serve::ServeReply reply = fut.get();
    EXPECT_GE(reply.stats.bootstraps, 1u);

    const std::vector<double> got = client.decrypt_response(reply.response);
    const std::vector<double> clear = senv.net.forward(x);
    ASSERT_EQ(got.size(), clear.size());
    std::size_t ig = 0, ic = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i] > got[ig]) ig = i;
        if (clear[i] > clear[ic]) ic = i;
    }
    EXPECT_EQ(ig, ic) << "served argmax diverges from cleartext";
    EXPECT_LT(max_abs_diff(got, clear), 5e-2);

    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.total_bootstraps, senv.cn.num_bootstraps);
}

TEST(ServeBootstrap, RegistrationRejectsBundleMissingBootstrapKeys)
{
    // A bundle holding only the linear layers' rotation keys (no
    // bootstrap-circuit steps, no conjugation) must be rejected at
    // registration, naming what is missing.
    BootServeEnv& senv = BootServeEnv::shared();
    InferenceServer server(senv.cn, senv.ctx, opts(1, 4), senv.prepared);

    ckks::KeyGenerator keygen(senv.ctx, /*seed=*/77);
    serve::KeyBundle bundle;
    bundle.params = senv.params;
    bundle.relin = keygen.make_relin_key();
    std::vector<ckks::GaloisKeyRequest> program_only;
    for (const CompiledNetwork::RotationUse& use :
         senv.cn.required_rotations()) {
        program_only.push_back({use.step, use.level});
    }
    bundle.galois = keygen.make_galois_keys(
        std::span<const ckks::GaloisKeyRequest>(program_only), false);
    // Rejection names the offending step — either outright missing, or
    // present for a program rotation but pruned below the (nearly
    // full-chain) level the bootstrap circuit rotates at.
    const ckks::serial::Bytes bytes = serve::encode_key_bundle(bundle);
    expect_throw_contains<Error>(
        [&] { (void)server.register_session(bytes); },
        "Galois key for");
}

TEST(ServeBootstrap, ShallowContextRejectionNamesTheInstruction)
{
    // A bootstrap-bearing program on a chain too short for the circuit
    // must be rejected — at server construction and by Session::run
    // alike (the session's executor holds no secret either) — with the
    // offending instruction kind and layer id in the message.
    CkksEnv& env = CkksEnv::shared();
    core::CompileOptions opt;
    opt.slots = env.ctx.slot_count();
    opt.l_eff = 2;  // depth-3 micro MLP: forces a bootstrap
    opt.cost = core::CostModel::for_params(env.ctx.degree(), 3, 3, 3);
    opt.calibration_samples = 3;
    opt.structural_only = false;
    const Network net = nn::make_micro_mlp();
    const CompiledNetwork cn = core::compile(net, opt);
    ASSERT_GE(cn.num_bootstraps, 1u);

    auto prepared =
        std::make_shared<const core::PreparedProgram>(cn, env.ctx);
    EXPECT_FALSE(prepared->bootstrap_supported());
    expect_throw_contains<Error>(
        [&] { InferenceServer server(cn, env.ctx, opts(1, 4), prepared); },
        "kBootstrap (layer");

    Session session = Session::with_params(env.params, /*l_eff=*/2);
    core::CompileOptions sopt;
    sopt.calibration_samples = 3;
    ASSERT_GE(session.compile(net, sopt).num_bootstraps, 1u);
    expect_throw_contains<Error>(
        [&] { (void)session.run(random_vector(64, 1.0, 93)); },
        "kBootstrap (layer");
}

// ---------------------------------------------------------------------
// Telemetry: failure attribution, /metrics exposition, span accounting
// ---------------------------------------------------------------------

/** The ErrorKind a failed future resolves to (kNone if it succeeded). */
serve::ErrorKind
failure_kind(std::future<serve::ServeReply>& fut)
{
    try {
        fut.get();
        return serve::ErrorKind::kNone;
    } catch (const serve::RequestError& e) {
        return e.kind();
    }
}

TEST(Serve, FailureKindsAttributedInLedger)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    InferenceServer server(senv.cn, env.ctx, opts(1, 8), senv.prepared);
    ServeClient client(senv.cn, env.ctx, /*seed=*/500);
    client.set_session_id(server.register_session(client.key_bundle()));
    const std::vector<double> x = random_vector(64, 1.0, 95);

    // decode_error: bytes that are not a Request frame at all.
    auto f_decode = server.submit(ckks::serial::Bytes{9, 9, 9, 9});
    // bad_session: a well-formed request naming an unregistered id.
    serve::Request bad = serve::decode_request(client.make_request(x),
                                               env.ctx);
    bad.session_id = 4242;
    auto f_session = server.submit(serve::encode_request(bad));
    // exec_error: valid session, decodable frame, but an input-ciphertext
    // count the program rejects at execution time.
    serve::Request empty = serve::decode_request(client.make_request(x),
                                                 env.ctx);
    empty.inputs.clear();
    auto f_exec = server.submit(serve::encode_request(empty));
    // And one success to prove the ledger splits cleanly.
    auto f_ok = server.submit(client.make_request(x));

    EXPECT_EQ(failure_kind(f_decode), serve::ErrorKind::kDecodeError);
    EXPECT_EQ(failure_kind(f_session), serve::ErrorKind::kBadSession);
    EXPECT_EQ(failure_kind(f_exec), serve::ErrorKind::kExecError);
    EXPECT_EQ(failure_kind(f_ok), serve::ErrorKind::kNone);

    const serve::ServerStats s = server.stats();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.failed, 3u);
    EXPECT_EQ(s.failed_bad_session, 1u);
    EXPECT_EQ(s.failed_decode, 1u);
    EXPECT_EQ(s.failed_exec, 1u);
    EXPECT_EQ(s.failed,
              s.failed_bad_session + s.failed_decode + s.failed_exec);
    EXPECT_EQ(s.completed + s.failed + s.rejected, s.submitted);
    EXPECT_STREQ(serve::to_string(serve::ErrorKind::kBadSession),
                 "bad_session");
}

/** Parses `name value` exposition lines (skipping # comments). */
std::map<std::string, double>
parse_prometheus(const std::string& text)
{
    std::map<std::string, double> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#') continue;
        const std::size_t sp = line.rfind(' ');
        EXPECT_NE(sp, std::string::npos) << line;
        out[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
    }
    return out;
}

TEST(Serve, MetricsTextCrossChecksAgainstStats)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    InferenceServer server(senv.cn, env.ctx, opts(1, 8), senv.prepared);
    ServeClient client(senv.cn, env.ctx, /*seed=*/501);
    client.set_session_id(server.register_session(client.key_bundle()));
    const std::vector<double> x = random_vector(64, 1.0, 96);

    for (int i = 0; i < 3; ++i) {
        EXPECT_NO_THROW(server.submit(client.make_request(x)).get());
    }
    auto bad = server.submit(ckks::serial::Bytes{1, 2, 3});
    EXPECT_THROW(bad.get(), Error);

    const serve::ServerStats s = server.stats();
    const std::map<std::string, double> m =
        parse_prometheus(server.metrics_text());

    // The registry mirrors the ledger exactly.
    EXPECT_EQ(m.at("orion_serve_submitted_total"),
              static_cast<double>(s.submitted));
    EXPECT_EQ(m.at("orion_serve_completed_total"),
              static_cast<double>(s.completed));
    EXPECT_EQ(m.at("orion_serve_failed_total"),
              static_cast<double>(s.failed));
    EXPECT_EQ(m.at("orion_serve_rejected_total"),
              static_cast<double>(s.rejected));
    EXPECT_EQ(m.at("orion_serve_failed_decode_error_total"),
              static_cast<double>(s.failed_decode));
    EXPECT_EQ(m.at("orion_serve_failed_bad_session_total"),
              static_cast<double>(s.failed_bad_session));
    EXPECT_EQ(m.at("orion_serve_failed_exec_error_total"),
              static_cast<double>(s.failed_exec));
    EXPECT_EQ(m.at("orion_serve_rotations_total"),
              static_cast<double>(s.total_rotations));
    EXPECT_EQ(m.at("orion_serve_bootstraps_total"),
              static_cast<double>(s.total_bootstraps));
    // Ledger identity holds inside the exposition itself.
    EXPECT_EQ(m.at("orion_serve_completed_total") +
                  m.at("orion_serve_failed_total") +
                  m.at("orion_serve_rejected_total"),
              m.at("orion_serve_submitted_total"));
    // Scrape-time gauges and the latency histograms.
    EXPECT_EQ(m.at("orion_serve_sessions"), 1.0);
    EXPECT_EQ(m.at("orion_serve_queue_depth"), 0.0);
    EXPECT_EQ(m.at("orion_serve_execute_seconds_count"),
              static_cast<double>(s.completed));
    EXPECT_NEAR(m.at("orion_serve_execute_seconds_sum"), s.total_execute_s,
                1e-6 + 0.01 * s.total_execute_s);
    EXPECT_EQ(m.at("orion_serve_queue_wait_seconds_count"),
              static_cast<double>(s.completed));
    // Image accounting: every completed request here carried one sample,
    // so the image counter and the batch-size histogram both track the
    // completion count (sum == images when batching kicks in).
    EXPECT_EQ(s.images, s.completed);
    EXPECT_EQ(m.at("orion_serve_images_total"),
              static_cast<double>(s.images));
    EXPECT_EQ(m.at("orion_serve_batch_size_count"),
              static_cast<double>(s.completed));
    EXPECT_EQ(m.at("orion_serve_batch_size_sum"),
              static_cast<double>(s.images));
    // The process-wide section rides along: op counters from the live
    // Context (this binary has executed many programs by now).
    EXPECT_GT(m.at("orion_ckks_op_keyswitch_total"), 0.0);
    EXPECT_GT(m.at("orion_arena_acquires_total"), 0.0);
}

TEST(Serve, ReplyCarriesPerLayerTimings)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    InferenceServer server(senv.cn, env.ctx, opts(1, 4), senv.prepared);
    ServeClient client(senv.cn, env.ctx, /*seed=*/502);
    client.set_session_id(server.register_session(client.key_bundle()));

    const std::vector<double> x = random_vector(64, 1.0, 97);
    const serve::ServeReply reply =
        server.submit(client.make_request(x)).get();
    ASSERT_FALSE(reply.stats.layer_times.empty());
    double sum = 0.0;
    bool saw_model_layer = false;
    for (const core::LayerTiming& lt : reply.stats.layer_times) {
        EXPECT_GE(lt.seconds, 0.0);
        if (lt.layer_id >= 0) saw_model_layer = true;
        sum += lt.seconds;
    }
    EXPECT_TRUE(saw_model_layer);
    // The per-instruction charges partition execute_s up to loop overhead.
    EXPECT_LE(sum, reply.stats.execute_s * 1.05 + 1e-3);
    EXPECT_GE(sum, reply.stats.execute_s * 0.5);
}

TEST(ServeBootstrap, BootStageSpansAccountForServedExecuteTime)
{
    // The acceptance criterion: with tracing on, a served bootstrap
    // request's stage spans (ModRaise + CtS + EvalMod + StC) sum to
    // within 10% of the whole-bootstrap span, and the bootstrap span
    // dominates the request's execute_s (the program is one micro MLP
    // around one bootstrap).
    BootServeEnv& senv = BootServeEnv::shared();
    InferenceServer server(senv.cn, senv.ctx, opts(1, 4), senv.prepared);
    ServeClient client(senv.cn, senv.ctx, /*seed=*/503);
    client.set_session_id(server.register_session(client.key_bundle()));

    telemetry::set_tracing(true);
    telemetry::clear_trace();
    const std::vector<double> x = random_vector(64, 1.0, 98);
    const serve::ServeReply reply =
        server.submit(client.make_request(x)).get();
    telemetry::set_tracing(false);

    double stage_sum = 0.0, whole_boot = 0.0, exec_span = 0.0;
    for (const telemetry::TraceRecord& r :
         telemetry::collect_trace_events()) {
        const std::string name = r.event.name;
        const double dur_s = static_cast<double>(r.event.dur_ns) / 1e9;
        if (name == "boot.mod_raise" || name == "boot.cts" ||
            name == "boot.eval_mod" || name == "boot.stc") {
            stage_sum += dur_s;
        } else if (name == "boot.bootstrap") {
            whole_boot += dur_s;
        } else if (name == "serve.execute") {
            exec_span += dur_s;
            EXPECT_EQ(r.event.arg,
                      static_cast<i64>(reply.stats.request_id));
        }
    }
    telemetry::clear_trace();

    ASSERT_GT(whole_boot, 0.0) << "no bootstrap span was traced";
    // The four stages tile the bootstrap span (within 10%).
    EXPECT_GE(stage_sum, 0.9 * whole_boot);
    EXPECT_LE(stage_sum, 1.01 * whole_boot);
    // And the traced serve.execute span brackets the reported wall time.
    EXPECT_GE(exec_span, reply.stats.execute_s * 0.9);
    // Bootstrap dominates this program, so the stage spans also land
    // within 10% of the served execute time (the ISSUE's acceptance bar).
    EXPECT_GE(stage_sum, 0.9 * reply.stats.execute_s);
}

// ---------------------------------------------------------------------
// Slot-batched inference
// ---------------------------------------------------------------------

/** The micro MLP compiled with `batch` lanes for the shared toy context. */
CompiledNetwork
compile_micro_batched(const Network& net, int batch)
{
    CkksEnv& env = CkksEnv::shared();
    core::CompileOptions opt;
    opt.slots = env.ctx.slot_count();
    opt.l_eff = 4;
    opt.cost = core::CostModel::for_params(env.ctx.degree(), 3, 3, 3);
    opt.calibration_samples = 3;
    opt.batch = batch;
    return core::compile(net, opt);
}

/** The micro MLP compiled with 16 batch lanes (built once; read-only). */
struct BatchServeEnv {
    Network net;
    CompiledNetwork cn;
    std::shared_ptr<const core::PreparedProgram> prepared;

    BatchServeEnv()
        : net(nn::make_micro_mlp()), cn(compile_micro_batched(net, 16))
    {
        prepared = std::make_shared<const core::PreparedProgram>(
            cn, CkksEnv::shared().ctx);
    }

    static BatchServeEnv&
    shared()
    {
        static BatchServeEnv env;
        return env;
    }
};

TEST(ServeBatch, CompilerInfersCapacityAndPlanIsUnchanged)
{
    BatchServeEnv& benv = BatchServeEnv::shared();
    // The micro MLP spans 64 slots per sample, so 1024 toy slots carry
    // exactly 16 lanes at stride 64.
    EXPECT_EQ(benv.cn.batch, 16);
    EXPECT_EQ(benv.cn.batch_capacity, 16);
    EXPECT_EQ(benv.cn.batch_stride, 64u);
    EXPECT_FALSE(benv.cn.batch_limit_layer.empty());
    // Block-diagonal batching: the rotation/pmult schedule does not depend
    // on the lane count - only the diagonal values change. (B = 1 compiles
    // the hybrid form instead, whose fold needs a cyclic lane.)
    const CompiledNetwork two = compile_micro_batched(benv.net, 2);
    ASSERT_EQ(two.batch, 2);
    EXPECT_EQ(benv.cn.total_rotations, two.total_rotations);
    EXPECT_EQ(benv.cn.total_pmults, two.total_pmults);
    ASSERT_EQ(benv.cn.linears.size(), two.linears.size());
    for (std::size_t i = 0; i < two.linears.size(); ++i) {
        EXPECT_EQ(benv.cn.linears[i].plan.required_steps(),
                  two.linears[i].plan.required_steps())
            << "layer " << i;
    }
    EXPECT_EQ(benv.cn.input_layout.batch, 16);
    EXPECT_EQ(benv.cn.output_layout.batch, 16);
}

TEST(ServeBatch, BatchedRequestMatchesPerSampleExecution)
{
    ServeEnv& senv = ServeEnv::shared();
    BatchServeEnv& benv = BatchServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();

    // Ground truth: each sample through the single-sample program.
    DirectRun direct(senv.cn, env.ctx, senv.prepared);

    InferenceServer server(benv.cn, env.ctx, opts(1, 4), benv.prepared);
    ServeClient client(benv.cn, env.ctx, /*seed=*/600);
    client.set_session_id(server.register_session(client.key_bundle()));

    // Deliberately under-filled: 5 of 16 lanes carry samples.
    const int count = 5;
    std::vector<std::vector<double>> inputs;
    for (int i = 0; i < count; ++i) {
        inputs.push_back(random_vector(64, 1.0, 700 + static_cast<u64>(i)));
    }
    const serve::ServeReply reply =
        server.submit(client.make_request(inputs)).get();
    const std::vector<std::vector<double>> got =
        client.decrypt_response(reply.response, count);

    ASSERT_EQ(got.size(), static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        const std::vector<double> want =
            direct.run(inputs[static_cast<std::size_t>(i)]);
        ASSERT_EQ(got[static_cast<std::size_t>(i)].size(), want.size());
        EXPECT_LT(max_abs_diff(got[static_cast<std::size_t>(i)], want),
                  1e-3)
            << "lane " << i;
    }

    // One program execution served all lanes; the ledger counts images.
    EXPECT_EQ(reply.stats.batch_count, static_cast<u64>(count));
    EXPECT_EQ(reply.stats.rotations, benv.cn.total_rotations);
    const serve::ServerStats s = server.stats();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.images, static_cast<u64>(count));
}

TEST(ServeBatch, OverCapacityBatchRejectedNamingTheLimit)
{
    BatchServeEnv& benv = BatchServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    InferenceServer server(benv.cn, env.ctx, opts(1, 4), benv.prepared);
    ServeClient client(benv.cn, env.ctx, /*seed=*/601);
    client.set_session_id(server.register_session(client.key_bundle()));

    // The client refuses to pack more lanes than the program carries.
    std::vector<std::vector<double>> too_many(
        17, random_vector(64, 1.0, 710));
    expect_throw_contains<Error>(
        [&] { (void)client.make_request(too_many); },
        "batch_count 17 > program capacity 16");

    // A hostile client can still claim any batch_count on the wire; the
    // server rejects it as an exec error naming the limiting layer.
    serve::Request forged = serve::decode_request(
        client.make_request(random_vector(64, 1.0, 711)), env.ctx);
    forged.batch_count = 32;
    auto fut = server.submit(serve::encode_request(forged));
    try {
        (void)fut.get();
        FAIL() << "over-capacity batch was not rejected";
    } catch (const serve::RequestError& e) {
        EXPECT_EQ(e.kind(), serve::ErrorKind::kExecError);
        const std::string msg = e.what();
        EXPECT_NE(msg.find("batch_count 32 > program capacity 16 for "
                           "layer"),
                  std::string::npos)
            << "message: " << msg;
    }
    const serve::ServerStats s = server.stats();
    EXPECT_EQ(s.failed_exec, 1u);
    EXPECT_EQ(s.images, 0u);
}

TEST(ServeBatch, PeekAndRewriteIndexTheSessionId)
{
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    ServeClient client(senv.cn, env.ctx, /*seed=*/602);
    client.set_session_id(77);
    const serve::Request req = serve::decode_request(
        client.make_request(random_vector(64, 1.0, 720)), env.ctx);
    EXPECT_EQ(req.batch_count, 1u);

    // The session id is the payload's leading u64 (batch_count follows
    // the request id), so peek/rewrite index it without a decode.
    ckks::serial::Bytes bytes = serve::encode_request(req);
    EXPECT_EQ(serve::peek_request_session(bytes), req.session_id);
    serve::rewrite_request_session(bytes, 4242);
    EXPECT_EQ(serve::peek_request_session(bytes), 4242u);
    const serve::Request rewritten = serve::decode_request(bytes, env.ctx);
    EXPECT_EQ(rewritten.session_id, 4242u);
    EXPECT_EQ(rewritten.request_id, req.request_id);
    EXPECT_EQ(rewritten.batch_count, req.batch_count);
    EXPECT_EQ(rewritten.inputs.size(), req.inputs.size());
}

TEST(ServeBatch, SingleSampleProgramBitIdenticalAcrossBatchKnob)
{
    // The compatibility contract: batch = 1 (the default) must execute
    // the EXACT pre-batching program — byte-identical output ciphertexts
    // from identical inputs and keys, at every thread count.
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();

    core::CompileOptions opt;
    opt.slots = env.ctx.slot_count();
    opt.l_eff = 4;
    opt.cost = core::CostModel::for_params(env.ctx.degree(), 3, 3, 3);
    opt.calibration_samples = 3;
    opt.batch = 1;  // explicit, vs ServeEnv's implicit default
    const CompiledNetwork cn1 = core::compile(senv.net, opt);
    EXPECT_EQ(cn1.batch, 1);
    EXPECT_EQ(cn1.batch_stride, 0u);
    EXPECT_TRUE(cn1.input_layout == senv.cn.input_layout);

    // One client's keys bound to both executors.
    ServeClient client(senv.cn, env.ctx, /*seed=*/7);
    core::CkksExecutor legacy(senv.cn, env.ctx, senv.prepared);
    core::CkksExecutor batched(
        cn1, env.ctx, std::make_shared<const core::PreparedProgram>(cn1,
                                                                    env.ctx));
    for (core::CkksExecutor* exec : {&legacy, &batched}) {
        exec->bind_session_keys(&client.relin_key(), &client.galois_keys());
    }
    const std::vector<double> x = random_vector(64, 1.0, 730);
    const std::vector<ckks::Ciphertext> in_cts = client.encrypt({x});

    const auto output_bytes = [&](core::CkksExecutor& exec) {
        const core::EncryptedResult r = exec.run_encrypted(in_cts);
        ckks::serial::Bytes all;
        for (const ckks::Ciphertext& ct : r.outputs) {
            const ckks::serial::Bytes b = ckks::serial::serialize(ct);
            all.insert(all.end(), b.begin(), b.end());
        }
        return all;
    };

    const ckks::serial::Bytes want = output_bytes(legacy);
    ASSERT_FALSE(want.empty());
    for (const int threads : {1, 2, 4}) {
        core::ScopedPoolOverride scoped(threads);
        EXPECT_EQ(output_bytes(legacy), want)
            << "legacy path diverged at " << threads << " threads";
        EXPECT_EQ(output_bytes(batched), want)
            << "batch=1 path diverged at " << threads << " threads";
    }
}

TEST(Serve, ThreadsPerRequestIsByteIdentical)
{
    // threads_per_request only schedules kernels: one request's output
    // ciphertexts are byte-identical whether each worker owns a pool of
    // 1, 2 or 4 threads or (at 0) runs on a 2-thread global pool.
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    const GlobalThreadsGuard restore;
    core::set_num_threads(2);

    ServeClient client(senv.cn, env.ctx, /*seed=*/7);
    const ckks::serial::Bytes bundle = client.key_bundle();
    // Each server assigns its own id; the request is rewritten to it.
    client.set_session_id(1);
    const ckks::serial::Bytes request =
        client.make_request(random_vector(64, 1.0, 81));

    std::vector<ckks::serial::Bytes> outputs;
    for (const int threads : {0, 1, 2, 4}) {
        ServeOptions o = opts(2, 4);
        o.threads_per_request = threads;
        InferenceServer server(senv.cn, env.ctx, o, senv.prepared);
        ckks::serial::Bytes r = request;
        serve::rewrite_request_session(r, server.register_session(bundle));
        const serve::Response resp =
            client.parse_response(server.submit(std::move(r)).get().response);
        ckks::serial::Bytes all;
        for (const ckks::Ciphertext& ct : resp.outputs) {
            const ckks::serial::Bytes b = ckks::serial::serialize(ct);
            all.insert(all.end(), b.begin(), b.end());
        }
        outputs.push_back(std::move(all));
    }
    ASSERT_FALSE(outputs[0].empty());
    for (std::size_t i = 1; i < outputs.size(); ++i) {
        EXPECT_EQ(outputs[i], outputs[0])
            << "output diverged at thread variant " << i;
    }
}

TEST(Serve, DecryptRejectsForgedOutputCounts)
{
    // A Response carries its own ciphertext count, which the wire cannot
    // check against the program; the client must, instead of padding a
    // short slot vector with zeros.
    ServeEnv& senv = ServeEnv::shared();
    BatchServeEnv& benv = BatchServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    for (const CompiledNetwork* cn : {&senv.cn, &benv.cn}) {
        ServeClient client(*cn, env.ctx, /*seed=*/503);
        const std::vector<ckks::Ciphertext> out =
            client.encrypt({random_vector(64, 1.0, 94)});
        ASSERT_EQ(out.size(), 1u);  // the micro MLP's output: one ct
        for (const std::size_t n : {std::size_t{0}, out.size() + 1}) {
            serve::Response forged;
            forged.outputs.assign(n, out.front());
            const ckks::serial::Bytes bytes = serve::encode_response(forged);
            std::ostringstream want;
            want << "decrypt got " << n
                 << " output ciphertexts, program produces 1";
            expect_throw_contains<Error>(
                [&] { (void)client.decrypt_response(bytes); }, want.str());
            expect_throw_contains<Error>(
                [&] { (void)client.decrypt_response(bytes, cn->batch); },
                want.str());
        }
    }
}

}  // namespace
}  // namespace orion::test
