#ifndef ORION_SRC_CORE_CONFIG_H_
#define ORION_SRC_CORE_CONFIG_H_

/**
 * @file
 * Process-wide runtime configuration knobs.
 *
 * The configuration intentionally contains only knobs that change HOW the
 * runtime executes, never WHAT it computes: every kernel is bit-identical
 * across num_threads settings (see thread_pool.h), so tests pin
 * num_threads = 1 and benchmarks sweep it freely.
 */

#include "src/common.h"

namespace orion::core {

/** Runtime execution knobs (defaults reproduce the serial seed behavior). */
struct OrionConfig {
    /**
     * Threads participating in parallel kernels (RNS limb loops, key-switch
     * inner products, BSGS rotation fan-out). 1 = fully serial. 0 = use
     * the hardware concurrency. Initialized from $ORION_NUM_THREADS when
     * set.
     */
    int num_threads = 1;

    /** Resolves num_threads = 0 to the hardware concurrency. */
    int resolved_num_threads() const;
};

/** `n` when positive, else the hardware concurrency (at least 1). */
int resolve_thread_count(int n);

/** A snapshot of the active global configuration (copied under lock). */
OrionConfig config();

/** Replaces the global configuration and resizes the global thread pool. */
void set_config(const OrionConfig& cfg);

/** Convenience: updates only num_threads (0 = hardware concurrency). */
void set_num_threads(int n);

}  // namespace orion::core

#endif  // ORION_SRC_CORE_CONFIG_H_
