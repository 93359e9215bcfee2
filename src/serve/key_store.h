#ifndef ORION_SRC_SERVE_KEY_STORE_H_
#define ORION_SRC_SERVE_KEY_STORE_H_

/**
 * @file
 * Byte-bounded evaluation-key cache behind the session registry.
 *
 * The paper's deployment model registers one evaluation-key bundle per
 * client; keeping every bundle's expanded keys resident makes server RSS
 * grow linearly with registered sessions, which is what limits
 * registration count in practice. The KeyStore fixes that: every bundle
 * is spilled once, verbatim, to a per-session file that holds exactly the
 * KeyBundle wire record the client registered (seed-compressed, so disk
 * holds roughly half the expanded bytes), and only a least-recently-used
 * working set bounded by `cache_bytes` stays in memory. There is no
 * second container format: a cold load runs the same strict
 * decode_key_bundle that guards registration, streaming limbs off the
 * file and re-expanding seeded a-digits limb by limb. Requests acquire
 * keys through pin-counted leases: a pinned entry is never evicted, and a
 * missing entry is reloaded from its spill file before the executor
 * binds it. A background thread serves prefetch hints so a request
 * decoded at submit time usually finds its keys already resident.
 *
 * `cache_bytes` = 0 disables spilling entirely: keys stay resident for
 * the lifetime of the session, the behavior servers had before the cache
 * existed (and the default).
 */

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>

#include "src/ckks/context.h"
#include "src/ckks/keys.h"

namespace orion::serve {

/** Cache counters (monotonic except the resident/disk gauges). */
struct KeyStoreStats {
    u64 hits = 0;         ///< acquires served from resident keys
    u64 misses = 0;       ///< acquires that had to load the spill file
    u64 evictions = 0;    ///< resident entries dropped by the LRU bound
    u64 prefetches = 0;   ///< background loads from prefetch hints
    u64 resident_bytes = 0;     ///< expanded key bytes currently in memory
    u64 resident_sessions = 0;  ///< registered sessions with resident keys
    u64 disk_bytes = 0;         ///< KeyBundle record bytes across spill files
    /**
     * Expanded bytes of erased-but-still-pinned entries, kept alive only
     * for in-flight leases. Counted here — not in resident_bytes — so an
     * unregister leaves both resident gauges consistent immediately and
     * zombie bytes never push the LRU into evicting live sessions.
     */
    u64 zombie_bytes = 0;
};

/** LRU-bounded, disk-backed store of per-session evaluation keys. */
class KeyStore {
  public:
    /**
     * `cache_bytes` bounds resident expanded-key bytes (0 = unbounded, no
     * spilling). `spill_dir` receives the per-session spill files; empty
     * means a fresh private directory under the system temp path. The
     * destructor removes every spill file it wrote (and a private
     * directory with them), so no file outlives its store.
     */
    KeyStore(const ckks::Context& ctx, std::size_t cache_bytes,
             std::string spill_dir = {});
    ~KeyStore();

    KeyStore(const KeyStore&) = delete;
    KeyStore& operator=(const KeyStore&) = delete;

  private:
    struct Entry;

  public:
    /**
     * A pinned reference to one session's resident keys. While any lease
     * on an entry is alive the entry cannot be evicted, and the key
     * references stay valid even if the session is erased concurrently
     * (the in-flight-request guarantee). Move-only; unpins on destruction.
     */
    class Lease {
      public:
        Lease() = default;
        Lease(Lease&& o) noexcept
            : store_(o.store_), entry_(std::move(o.entry_))
        {
            o.store_ = nullptr;
        }
        Lease&
        operator=(Lease&& o) noexcept
        {
            if (this != &o) {
                reset();
                store_ = o.store_;
                entry_ = std::move(o.entry_);
                o.store_ = nullptr;
            }
            return *this;
        }
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;
        ~Lease() { reset(); }

        /** False for the empty lease (unknown id). */
        explicit operator bool() const { return entry_ != nullptr; }
        const ckks::KswitchKey& relin() const;
        const ckks::GaloisKeys& galois() const;
        /** Unpins early (also done by the destructor). */
        void reset();

      private:
        friend class KeyStore;
        Lease(KeyStore* store, std::shared_ptr<Entry> entry)
            : store_(store), entry_(std::move(entry))
        {
        }

        KeyStore* store_ = nullptr;
        std::shared_ptr<Entry> entry_;
    };

    /**
     * Registers keys under `id` (must be fresh): writes `bundle`, the
     * encoded KeyBundle record that `relin` and `galois` were decoded
     * from, verbatim to the spill file (when bounded) and installs the
     * keys resident, evicting older unpinned entries if the cache bound
     * is now exceeded.
     */
    void put(u64 id, std::span<const u8> bundle, ckks::KswitchKey relin,
             ckks::GaloisKeys galois);

    /**
     * Removes an entry and its spill file. Idempotent: false when the id
     * is unknown (already erased or never registered). Outstanding leases
     * keep the expanded keys alive until the last one releases.
     */
    bool erase(u64 id);

    /**
     * Pins and returns the entry's keys, loading them from the spill file
     * first when not resident (blocking; concurrent acquires of the same
     * entry share one load). Empty lease when the id is unknown.
     */
    Lease acquire(u64 id);

    /**
     * Hints the background loader to make `id` resident. Never blocks.
     * Best-effort: hints for unknown/resident/already-queued ids are
     * dropped, and the hint queue is bounded, so a burst of cold
     * submissions cannot pile up loads that outlive their requests.
     */
    void prefetch(u64 id);

    /** True when the entry exists and its keys are in memory (test hook). */
    bool resident(u64 id) const;

    KeyStoreStats stats() const;
    std::size_t cache_bytes() const { return cache_bytes_; }
    const std::string& spill_dir() const { return spill_dir_; }
    /** The spill file of `id` (written only when spilling is on). */
    std::string spill_path(u64 id) const;

  private:
    std::shared_ptr<Entry> acquire_impl(u64 id, bool pin, bool is_prefetch);
    /** Drops LRU unpinned entries until the resident bound holds. */
    void evict_locked();
    void release(Entry* e);
    void prefetch_loop();

    const ckks::Context* ctx_;
    std::size_t cache_bytes_ = 0;
    std::string spill_dir_;
    bool own_dir_ = false;
    bool spill_enabled_ = false;

    mutable std::mutex mu_;
    std::condition_variable load_cv_;  ///< waiters on an in-progress load
    std::map<u64, std::shared_ptr<Entry>> entries_;
    u64 tick_ = 0;  ///< LRU clock
    KeyStoreStats stats_;

    std::condition_variable prefetch_cv_;
    std::deque<u64> prefetch_queue_;
    std::unordered_set<u64> prefetch_pending_;  ///< dedup of queued hints
    bool stop_ = false;
    std::thread prefetch_thread_;
};

}  // namespace orion::serve

#endif  // ORION_SRC_SERVE_KEY_STORE_H_
