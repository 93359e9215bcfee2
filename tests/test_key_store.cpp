#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "src/ckks/serial.h"
#include "src/serve/key_store.h"
#include "src/serve/session.h"
#include "tests/serve_env.h"

namespace orion::test {
namespace {

using serve::KeyStore;
using serve::KeyStoreStats;

/** One set of toy evaluation keys, shared (copied) across entries. */
struct KeyFixture {
    ckks::KswitchKey relin;
    ckks::GaloisKeys galois;
    ckks::serial::Bytes bundle;  ///< the KeyBundle record of (relin, galois)
    std::size_t bytes = 0;  ///< expanded size of one (relin, galois) pair

    KeyFixture()
    {
        CkksEnv& env = CkksEnv::shared();
        ckks::KeyGenerator keygen(env.ctx, /*seed=*/21);
        relin = keygen.make_relin_key();
        const std::vector<int> steps = {1, 2};
        galois = keygen.make_galois_keys(std::span<const int>(steps));
        bytes = relin.byte_size() + galois.byte_size();
        bundle = serve::encode_key_bundle(env.ctx.params(), relin, galois);
    }

    static KeyFixture&
    shared()
    {
        static KeyFixture f;
        return f;
    }

    void
    put(KeyStore& store, u64 id) const
    {
        store.put(id, bundle, relin, galois);
    }
};

TEST(KeyStore, UnboundedStoreKeepsEverythingResident)
{
    CkksEnv& env = CkksEnv::shared();
    KeyFixture& keys = KeyFixture::shared();
    KeyStore store(env.ctx, /*cache_bytes=*/0);

    keys.put(store, 1);
    keys.put(store, 2);
    EXPECT_TRUE(store.resident(1));
    EXPECT_TRUE(store.resident(2));

    KeyStore::Lease lease = store.acquire(1);
    ASSERT_TRUE(static_cast<bool>(lease));
    EXPECT_TRUE(lease.relin().valid());

    const KeyStoreStats s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.resident_sessions, 2u);
    EXPECT_EQ(s.resident_bytes, 2 * keys.bytes);
    EXPECT_EQ(s.disk_bytes, 0u);  // unbounded stores never spill
}

TEST(KeyStore, AcquireUnknownIdReturnsEmptyLease)
{
    CkksEnv& env = CkksEnv::shared();
    KeyStore store(env.ctx, /*cache_bytes=*/0);
    KeyStore::Lease lease = store.acquire(99);
    EXPECT_FALSE(static_cast<bool>(lease));
    EXPECT_FALSE(store.erase(99));
}

TEST(KeyStore, LruEvictionOrderAndCounters)
{
    CkksEnv& env = CkksEnv::shared();
    KeyFixture& keys = KeyFixture::shared();
    // Room for exactly two entries.
    KeyStore store(env.ctx, 2 * keys.bytes);

    keys.put(store, 1);
    keys.put(store, 2);
    keys.put(store, 3);  // over budget: evicts 1 (least recently used)
    EXPECT_FALSE(store.resident(1));
    EXPECT_TRUE(store.resident(2));
    EXPECT_TRUE(store.resident(3));
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_LE(store.stats().resident_bytes, 2 * keys.bytes);

    // Touch 2 so 3 becomes the LRU, then reload 1: the reload evicts 3.
    store.acquire(2);
    {
        KeyStore::Lease lease = store.acquire(1);
        ASSERT_TRUE(static_cast<bool>(lease));
        EXPECT_TRUE(lease.relin().valid());
    }
    EXPECT_TRUE(store.resident(1));
    EXPECT_TRUE(store.resident(2));
    EXPECT_FALSE(store.resident(3));

    const KeyStoreStats s = store.stats();
    EXPECT_EQ(s.hits, 1u);    // the touch of 2
    EXPECT_EQ(s.misses, 1u);  // the reload of 1
    EXPECT_EQ(s.evictions, 2u);
    EXPECT_EQ(s.resident_sessions, 2u);
    EXPECT_LE(s.resident_bytes, 2 * keys.bytes);
    EXPECT_GT(s.disk_bytes, 0u);
}

TEST(KeyStore, PinnedLeaseIsNeverEvicted)
{
    CkksEnv& env = CkksEnv::shared();
    KeyFixture& keys = KeyFixture::shared();
    // Room for exactly one entry.
    KeyStore store(env.ctx, keys.bytes);

    keys.put(store, 1);
    KeyStore::Lease lease = store.acquire(1);
    ASSERT_TRUE(static_cast<bool>(lease));

    // 2 pushes the store over budget, but 1 is pinned: 2 itself (the
    // only unpinned entry) gets evicted instead.
    keys.put(store, 2);
    EXPECT_TRUE(store.resident(1));
    EXPECT_FALSE(store.resident(2));
    EXPECT_TRUE(lease.relin().valid());
    EXPECT_FALSE(lease.galois().keys.empty());

    // Once the pin drops, 1 is fair game again: loading 2 evicts it.
    lease.reset();
    KeyStore::Lease lease2 = store.acquire(2);
    ASSERT_TRUE(static_cast<bool>(lease2));
    EXPECT_FALSE(store.resident(1));
    EXPECT_TRUE(store.resident(2));
}

TEST(KeyStore, SpillReloadIsBitExact)
{
    CkksEnv& env = CkksEnv::shared();
    KeyFixture& keys = KeyFixture::shared();
    const ckks::serial::Bytes relin_bytes =
        ckks::serial::serialize(keys.relin);
    const ckks::serial::Bytes galois_bytes =
        ckks::serial::serialize(keys.galois);

    KeyStore store(env.ctx, keys.bytes);
    keys.put(store, 1);
    keys.put(store, 2);  // evicts 1
    ASSERT_FALSE(store.resident(1));

    // The reload re-expands seeded a-digits from their seeds; the result
    // must serialize back to byte-identical records.
    KeyStore::Lease lease = store.acquire(1);
    ASSERT_TRUE(static_cast<bool>(lease));
    EXPECT_EQ(ckks::serial::serialize(lease.relin()), relin_bytes);
    EXPECT_EQ(ckks::serial::serialize(lease.galois()), galois_bytes);
}

ckks::serial::Bytes
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
write_file(const std::string& path, const ckks::serial::Bytes& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(KeyStore, SpillFileIsTheRegisteredBundle)
{
    // Registration spills the client's bundle bytes verbatim: there is
    // no second container, and a cold load decodes the very record the
    // registration decoder accepted.
    ServeEnv& senv = ServeEnv::shared();
    CkksEnv& env = CkksEnv::shared();
    serve::ServeClient client(senv.cn, env.ctx, /*seed=*/23);
    const ckks::serial::Bytes bundle = client.key_bundle();
    const std::size_t per_session = client.relin_key().byte_size() +
                                    client.galois_keys().byte_size();

    // Room for one session: the second registration evicts the first.
    serve::SessionManager sessions(env.ctx, per_session);
    const u64 a = sessions.register_session(bundle);
    const u64 b = sessions.register_session(bundle);
    const KeyStore& store = sessions.key_store();
    ASSERT_FALSE(store.resident(a));
    ASSERT_TRUE(store.resident(b));
    EXPECT_EQ(read_file(store.spill_path(a)), bundle);
    EXPECT_EQ(read_file(store.spill_path(b)), bundle);
    EXPECT_EQ(sessions.key_stats().disk_bytes, 2 * bundle.size());

    const serve::SessionLease lease = sessions.find(a);
    ASSERT_TRUE(static_cast<bool>(lease));
    EXPECT_EQ(ckks::serial::serialize(lease.keys.relin()),
              ckks::serial::serialize(client.relin_key()));
    EXPECT_EQ(ckks::serial::serialize(lease.keys.galois()),
              ckks::serial::serialize(client.galois_keys()));
}

TEST(KeyStore, CorruptSpillFileFailsCleanly)
{
    CkksEnv& env = CkksEnv::shared();
    KeyFixture& keys = KeyFixture::shared();
    KeyStore store(env.ctx, keys.bytes);
    keys.put(store, 1);
    keys.put(store, 2);  // evicts 1
    ASSERT_FALSE(store.resident(1));
    const std::string path = store.spill_path(1);
    ASSERT_EQ(read_file(path), keys.bundle);

    // The Galois payload follows the header, the params and the relin key.
    ckks::serial::ByteWriter head;
    ckks::serial::write_params(head, env.ctx.params());
    ckks::serial::write_kswitch_key(head, keys.relin);
    const std::size_t galois_at =
        ckks::serial::kRecordHeaderBytes + head.size();
    ASSERT_LT(galois_at, keys.bundle.size());

    const ckks::serial::Bytes cut(
        keys.bundle.begin(),
        keys.bundle.begin() + static_cast<std::ptrdiff_t>(
                                  (galois_at + keys.bundle.size()) / 2));
    ckks::serial::Bytes bad_version = keys.bundle;
    bad_version[4] = ckks::serial::kWireVersion + 1;
    ckks::serial::Bytes longer = keys.bundle;
    longer.push_back(0);

    const KeyStoreStats before = store.stats();
    const std::pair<const ckks::serial::Bytes*, const char*> damages[] = {
        {&cut, "does not match payload size"},
        {&bad_version, "unsupported wire version"},
        {&longer, "does not match payload size"},
    };
    for (const auto& [bytes, needle] : damages) {
        write_file(path, *bytes);
        // A second acquire would block forever if the failed load left
        // the entry marked as loading; each damage runs two.
        for (int attempt = 0; attempt < 2; ++attempt) {
            expect_throw_contains<Error>([&] { (void)store.acquire(1); },
                                         needle);
        }
        EXPECT_FALSE(store.resident(1));

        // The healthy session is untouched by its neighbour's failure.
        KeyStore::Lease lease = store.acquire(2);
        ASSERT_TRUE(static_cast<bool>(lease));
        EXPECT_TRUE(lease.relin().valid());
    }

    // Failed loads count as neither hit nor miss and move no gauge.
    const KeyStoreStats after = store.stats();
    EXPECT_EQ(after.hits, before.hits + 3);  // the three acquires of 2
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.evictions, before.evictions);
    EXPECT_EQ(after.resident_sessions, 1u);
    EXPECT_EQ(after.resident_bytes, keys.bytes);
    EXPECT_EQ(after.disk_bytes, 2 * keys.bundle.size());

    // A session whose loads failed still erases, file and gauge alike.
    EXPECT_TRUE(store.erase(1));
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_EQ(store.stats().disk_bytes, keys.bundle.size());
    EXPECT_FALSE(static_cast<bool>(store.acquire(1)));
}

TEST(KeyStore, EraseIsIdempotentAndHonorsOutstandingLeases)
{
    CkksEnv& env = CkksEnv::shared();
    KeyFixture& keys = KeyFixture::shared();
    KeyStore store(env.ctx, 4 * keys.bytes);

    keys.put(store, 1);
    KeyStore::Lease lease = store.acquire(1);
    ASSERT_TRUE(static_cast<bool>(lease));

    EXPECT_TRUE(store.erase(1));
    EXPECT_FALSE(store.erase(1));  // idempotent
    EXPECT_FALSE(store.resident(1));
    EXPECT_FALSE(static_cast<bool>(store.acquire(1)));

    // The outstanding lease still sees valid keys (the in-flight-request
    // guarantee). At erase the bytes leave both resident gauges together
    // and sit in the zombie gauge until the pin drops.
    EXPECT_TRUE(lease.relin().valid());
    EXPECT_EQ(store.stats().resident_bytes, 0u);
    EXPECT_EQ(store.stats().resident_sessions, 0u);
    EXPECT_EQ(store.stats().zombie_bytes, keys.bytes);
    lease.reset();
    EXPECT_EQ(store.stats().zombie_bytes, 0u);
    EXPECT_EQ(store.stats().resident_bytes, 0u);
}

TEST(KeyStore, ErasedPinnedBytesDoNotEvictLiveSessions)
{
    CkksEnv& env = CkksEnv::shared();
    KeyFixture& keys = KeyFixture::shared();
    // Room for exactly one entry.
    KeyStore store(env.ctx, keys.bytes);

    keys.put(store, 1);
    KeyStore::Lease lease = store.acquire(1);
    ASSERT_TRUE(static_cast<bool>(lease));
    EXPECT_TRUE(store.erase(1));

    // 1's bytes are zombie (kept alive only for the lease) and excluded
    // from the eviction budget, so registering 2 keeps it resident
    // instead of evicting the only live session.
    keys.put(store, 2);
    EXPECT_TRUE(store.resident(2));
    const KeyStoreStats s = store.stats();
    EXPECT_EQ(s.zombie_bytes, keys.bytes);
    EXPECT_EQ(s.resident_bytes, keys.bytes);
    EXPECT_EQ(s.resident_sessions, 1u);
    EXPECT_EQ(s.evictions, 0u);

    lease.reset();
    EXPECT_EQ(store.stats().zombie_bytes, 0u);
    EXPECT_TRUE(store.resident(2));
}

TEST(KeyStore, PrefetchWarmsEvictedEntries)
{
    CkksEnv& env = CkksEnv::shared();
    KeyFixture& keys = KeyFixture::shared();
    KeyStore store(env.ctx, keys.bytes);

    keys.put(store, 1);
    keys.put(store, 2);  // evicts 1
    ASSERT_FALSE(store.resident(1));

    // 2 is now the LRU; the background load of 1 evicts it.
    store.prefetch(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!store.resident(1) &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(store.resident(1));

    const KeyStoreStats before = store.stats();
    EXPECT_EQ(before.prefetches, 1u);
    EXPECT_EQ(before.misses, 0u);  // background loads are not misses

    // The foreground acquire finds the warmed entry: a hit, not a miss.
    KeyStore::Lease lease = store.acquire(1);
    ASSERT_TRUE(static_cast<bool>(lease));
    const KeyStoreStats after = store.stats();
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
}

TEST(KeyStore, PrefetchDropsResidentUnknownAndDuplicateHints)
{
    CkksEnv& env = CkksEnv::shared();
    KeyFixture& keys = KeyFixture::shared();
    KeyStore store(env.ctx, keys.bytes);

    keys.put(store, 1);
    keys.put(store, 2);  // evicts 1
    ASSERT_FALSE(store.resident(1));

    // Useless hints are dropped at enqueue time, so the loader thread
    // only ever sees the one cold entry.
    store.prefetch(2);   // resident: dropped
    store.prefetch(99);  // unknown id: dropped
    store.prefetch(1);   // cold: queued
    store.prefetch(1);   // duplicate (queued or already loading): dropped

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!store.resident(1) &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(store.resident(1));
    EXPECT_EQ(store.stats().prefetches, 1u);
}

TEST(KeyStore, ConcurrentAcquireReleaseChurn)
{
    // Hammer one undersized store from several threads: every acquire
    // must produce valid keys (loads shared, pins respected) and the
    // resident bound must hold whenever no lease is outstanding.
    CkksEnv& env = CkksEnv::shared();
    KeyFixture& keys = KeyFixture::shared();
    KeyStore store(env.ctx, 2 * keys.bytes);
    for (u64 id = 1; id <= 4; ++id) keys.put(store, id);

    constexpr int kThreads = 4;
    constexpr int kIters = 8;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                const u64 id = 1 + static_cast<u64>((t + i) % 4);
                KeyStore::Lease lease = store.acquire(id);
                if (!lease || !lease.relin().valid()) failures += 1;
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);

    const KeyStoreStats s = store.stats();
    EXPECT_EQ(s.hits + s.misses,
              static_cast<u64>(kThreads) * kIters);
    EXPECT_LE(s.resident_bytes, 2 * keys.bytes);
}

}  // namespace
}  // namespace orion::test
