#include "src/serve/key_store.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "src/serve/wire.h"

namespace orion::serve {

namespace {

/** Cap on queued prefetch hints; overflow hints are dropped (best-effort). */
constexpr std::size_t kPrefetchQueueCap = 1024;

/** Streams a spill file's bytes straight off disk, so deserialization
 *  never holds the raw record alongside the decoded keys. */
class SpillFileSource final : public ckks::serial::ByteSource {
  public:
    explicit SpillFileSource(const std::string& path)
        : path_(path), in_(path, std::ios::binary | std::ios::ate)
    {
        ORION_CHECK(in_.good(), "cannot open key spill file " << path_);
        size_ = static_cast<u64>(in_.tellg());
    }

    void read_at(u64 offset, void* dst, std::size_t bytes) override
    {
        in_.seekg(static_cast<std::streamoff>(offset));
        in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
        ORION_CHECK(in_.good(), "key spill file read failed: " << path_);
    }

    u64 size() const override { return size_; }

  private:
    std::string path_;
    std::ifstream in_;
    u64 size_ = 0;
};

}  // namespace

/**
 * One session's cache slot. The struct outlives its map entry: erase()
 * removes it from the index but outstanding leases hold the shared_ptr,
 * so an in-flight request keeps valid key references. `counted` tracks
 * whether `bytes` is currently included in stats_.resident_bytes, and
 * `zombie_counted` whether it is in stats_.zombie_bytes instead (erased
 * while pinned) — each flag is updated together with its gauge under mu_,
 * and at most one is set at a time.
 */
struct KeyStore::Entry {
    u64 id = 0;
    ckks::KswitchKey relin;
    ckks::GaloisKeys galois;
    std::size_t bytes = 0;       ///< expanded in-memory size (put-time)
    std::size_t disk_bytes = 0;  ///< spill-file (KeyBundle record) size
    u64 lru_tick = 0;
    int pins = 0;
    bool resident = false;
    bool counted = false;
    bool zombie_counted = false;
    bool loading = false;
    bool erased = false;
};

const ckks::KswitchKey&
KeyStore::Lease::relin() const
{
    ORION_CHECK(entry_ != nullptr, "dereferencing an empty key lease");
    return entry_->relin;
}

const ckks::GaloisKeys&
KeyStore::Lease::galois() const
{
    ORION_CHECK(entry_ != nullptr, "dereferencing an empty key lease");
    return entry_->galois;
}

void
KeyStore::Lease::reset()
{
    if (store_ != nullptr && entry_ != nullptr) store_->release(entry_.get());
    store_ = nullptr;
    entry_.reset();
}

KeyStore::KeyStore(const ckks::Context& ctx, std::size_t cache_bytes,
                   std::string spill_dir)
    : ctx_(&ctx), cache_bytes_(cache_bytes), spill_dir_(std::move(spill_dir))
{
    spill_enabled_ = cache_bytes_ > 0;
    if (!spill_enabled_) return;
    if (spill_dir_.empty()) {
        // Unique per store instance so concurrent servers (and concurrent
        // test binaries) never share spill files.
        static std::atomic<u64> counter{0};
        spill_dir_ =
            (std::filesystem::temp_directory_path() /
             ("orion-keys-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter.fetch_add(1))))
                .string();
        own_dir_ = true;
    }
    std::filesystem::create_directories(spill_dir_);
    prefetch_thread_ = std::thread([this] { prefetch_loop(); });
}

KeyStore::~KeyStore()
{
    if (prefetch_thread_.joinable()) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
        }
        prefetch_cv_.notify_all();
        prefetch_thread_.join();
    }
    if (!spill_enabled_) return;
    std::error_code ec;
    if (own_dir_) {
        std::filesystem::remove_all(spill_dir_, ec);
    } else {
        for (const auto& [id, e] : entries_) {
            (void)e;
            std::filesystem::remove(spill_path(id), ec);
        }
    }
}

std::string
KeyStore::spill_path(u64 id) const
{
    return spill_dir_ + "/session-" + std::to_string(id) + ".keys";
}

void
KeyStore::put(u64 id, std::span<const u8> bundle, ckks::KswitchKey relin,
              ckks::GaloisKeys galois)
{
    const std::size_t bytes = relin.byte_size() + galois.byte_size();
    std::size_t disk_bytes = 0;
    if (spill_enabled_) {
        // Write-once spill of the registered record itself: eviction
        // later just drops the memory. The bundle carries {seed, b
        // digits} per key, so the file is roughly half the expanded size.
        const std::string path = spill_path(id);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(bundle.data()),
                  static_cast<std::streamsize>(bundle.size()));
        out.close();
        if (!out.good()) {
            // No entry will own the file, so nothing else would remove it.
            std::error_code ec;
            std::filesystem::remove(path, ec);
            ORION_CHECK(false, "cannot write key spill file " << path);
        }
        disk_bytes = bundle.size();
    }
    auto e = std::make_shared<Entry>();
    e->id = id;
    e->relin = std::move(relin);
    e->galois = std::move(galois);
    e->bytes = bytes;
    e->disk_bytes = disk_bytes;
    e->resident = true;
    e->counted = true;

    std::lock_guard<std::mutex> lk(mu_);
    ORION_CHECK(entries_.emplace(id, e).second,
                "key store already holds session " << id);
    e->lru_tick = ++tick_;
    stats_.resident_bytes += bytes;
    stats_.resident_sessions += 1;
    stats_.disk_bytes += disk_bytes;
    evict_locked();
}

bool
KeyStore::erase(u64 id)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = entries_.find(id);
        if (it == entries_.end()) return false;
        const std::shared_ptr<Entry> e = it->second;
        entries_.erase(it);
        e->erased = true;
        if (e->resident) stats_.resident_sessions -= 1;
        stats_.disk_bytes -= e->disk_bytes;
        if (e->counted) {
            // The entry leaves both resident gauges (and the eviction
            // budget) together. With no lease outstanding the expanded
            // keys are freed now; a pinned entry's bytes move to the
            // zombie gauge until the last lease releases, so they can
            // neither be mistaken for live working set nor push the LRU
            // into evicting sessions that still exist.
            stats_.resident_bytes -= e->bytes;
            e->counted = false;
            if (e->pins == 0) {
                e->resident = false;
                e->relin = ckks::KswitchKey{};
                e->galois = ckks::GaloisKeys{};
            } else {
                stats_.zombie_bytes += e->bytes;
                e->zombie_counted = true;
            }
        }
    }
    if (spill_enabled_) {
        std::error_code ec;
        std::filesystem::remove(spill_path(id), ec);
    }
    return true;
}

KeyStore::Lease
KeyStore::acquire(u64 id)
{
    std::shared_ptr<Entry> e =
        acquire_impl(id, /*pin=*/true, /*is_prefetch=*/false);
    if (e == nullptr) return Lease();
    return Lease(this, std::move(e));
}

void
KeyStore::prefetch(u64 id)
{
    if (!spill_enabled_) return;  // always resident; nothing to warm
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stop_) return;
        // A hint only helps for a known, cold, not-yet-queued entry;
        // everything else is dropped here so the single loader thread
        // never re-loads spill files nobody is waiting for. The bound
        // keeps a burst of cold submissions from piling up work that
        // outlives the requests that asked for it.
        const auto it = entries_.find(id);
        if (it == entries_.end() || it->second->resident ||
            it->second->loading) {
            return;
        }
        if (prefetch_queue_.size() >= kPrefetchQueueCap) return;
        if (!prefetch_pending_.insert(id).second) return;  // already queued
        prefetch_queue_.push_back(id);
    }
    prefetch_cv_.notify_one();
}

bool
KeyStore::resident(u64 id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = entries_.find(id);
    return it != entries_.end() && it->second->resident;
}

KeyStoreStats
KeyStore::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

std::shared_ptr<KeyStore::Entry>
KeyStore::acquire_impl(u64 id, bool pin, bool is_prefetch)
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        const auto it = entries_.find(id);
        if (it == entries_.end()) return nullptr;
        std::shared_ptr<Entry> e = it->second;
        if (e->resident) {
            if (!is_prefetch) stats_.hits += 1;
            if (pin) e->pins += 1;
            e->lru_tick = ++tick_;
            return e;
        }
        if (e->loading) {
            // A prefetch finding a load in progress has nothing to add.
            if (is_prefetch) return nullptr;
            load_cv_.wait(lk, [&] { return !e->loading; });
            // Re-resolve from scratch: the load may have failed, the
            // entry may have been evicted again, or erased.
            continue;
        }
        // This thread loads. Mark the slot so concurrent acquires wait
        // (and eviction skips it), then read the spill file unlocked.
        e->loading = true;
        lk.unlock();
        // The spill file is the registered KeyBundle record, decoded by
        // the same strict decoder as at registration. Seeded a-digits
        // re-expand limb by limb via expand_kswitch_a, so the loaded keys
        // are bit-identical to the registered ones. Limbs stream straight
        // from the file into the decoded polys: a cold Galois-key load
        // peaks at ~1x the key bytes instead of transiently doubling
        // resident memory.
        KeyBundle loaded;
        std::exception_ptr err;
        try {
            SpillFileSource src(spill_path(id));
            loaded = decode_key_bundle(src, *ctx_);
        } catch (...) {
            err = std::current_exception();
        }
        lk.lock();
        e->loading = false;
        if (err) {
            load_cv_.notify_all();
            // An erase that raced the load deleted the spill file out
            // from under us; report "unknown id", not a disk error.
            if (e->erased) return nullptr;
            std::rethrow_exception(err);
        }
        e->relin = std::move(loaded.relin);
        e->galois = std::move(loaded.galois);
        e->resident = true;
        e->lru_tick = ++tick_;
        if (!e->erased) {
            e->counted = true;
            stats_.resident_bytes += e->bytes;
            stats_.resident_sessions += 1;
        } else if (pin) {
            // An erase raced the load: the keys exist only for this
            // lease, so they are zombie bytes from the start.
            stats_.zombie_bytes += e->bytes;
            e->zombie_counted = true;
        }
        if (is_prefetch) {
            stats_.prefetches += 1;
        } else {
            stats_.misses += 1;
        }
        if (pin) e->pins += 1;
        load_cv_.notify_all();
        evict_locked();
        return e;
    }
}

void
KeyStore::evict_locked()
{
    if (cache_bytes_ == 0) return;
    while (stats_.resident_bytes > cache_bytes_) {
        Entry* victim = nullptr;
        for (const auto& [id, e] : entries_) {
            (void)id;
            if (!e->resident || e->loading || e->pins > 0) continue;
            if (victim == nullptr || e->lru_tick < victim->lru_tick) {
                victim = e.get();
            }
        }
        // Everything resident is pinned (or loading): over-budget is the
        // price of the no-eviction-while-pinned guarantee.
        if (victim == nullptr) return;
        victim->relin = ckks::KswitchKey{};
        victim->galois = ckks::GaloisKeys{};
        victim->resident = false;
        victim->counted = false;
        stats_.resident_bytes -= victim->bytes;
        stats_.resident_sessions -= 1;
        stats_.evictions += 1;
    }
}

void
KeyStore::release(Entry* e)
{
    std::lock_guard<std::mutex> lk(mu_);
    ORION_ASSERT(e->pins > 0);
    e->pins -= 1;
    if (e->pins > 0) return;
    if (e->erased) {
        // Last lease on an erased entry: its zombie bytes are done.
        if (e->zombie_counted) {
            stats_.zombie_bytes -= e->bytes;
            e->zombie_counted = false;
        }
        e->resident = false;
        e->relin = ckks::KswitchKey{};
        e->galois = ckks::GaloisKeys{};
    }
    evict_locked();
}

void
KeyStore::prefetch_loop()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
        prefetch_cv_.wait(lk,
                          [&] { return stop_ || !prefetch_queue_.empty(); });
        if (stop_) return;
        const u64 id = prefetch_queue_.front();
        prefetch_queue_.pop_front();
        prefetch_pending_.erase(id);
        lk.unlock();
        try {
            acquire_impl(id, /*pin=*/false, /*is_prefetch=*/true);
        } catch (...) {
            // Background warming is best-effort; the foreground acquire
            // will surface any real error.
        }
        lk.lock();
    }
}

}  // namespace orion::serve
