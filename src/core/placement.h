#ifndef ORION_SRC_CORE_PLACEMENT_H_
#define ORION_SRC_CORE_PLACEMENT_H_

/**
 * @file
 * Automatic bootstrap placement (Section 5).
 *
 * The network is modeled as a chain of units (linear layers, polynomial
 * activations, scale fixups, joins); residual connections appear as
 * single-entry single-exit (SESE) regions holding one sub-chain per branch.
 * The level digraph of Figure 6 is solved by dynamic programming over
 * states (position, level): executing a unit at level e costs latency(e)
 * and drops e by the unit's depth; a bootstrap edge jumps any level to
 * L_eff at the modeled bootstrap cost times the ciphertext count of the
 * edge. Regions are "black-boxed" (Section 5.2): every branch is solved
 * for all (entry, exit) level pairs, the per-pair optima are summed into
 * an aggregate edge matrix, and the parent chain treats the region as a
 * single unit with that transition matrix. Complexity is linear in network
 * depth (Table 5): O(units * L_eff^2).
 */

#include <functional>
#include <limits>
#include <vector>

#include "src/core/instruction.h"

namespace orion::core {

/**
 * One schedulable unit of the placement chain. Its record is the
 * instruction it emits, with the compiler's value keys as operands; the
 * solver copies the record into the decisions and stamps its level.
 */
struct PlacementUnit {
    Instruction ins;
    int depth = 0;  ///< multiplicative levels consumed
    /** Latency (seconds) when executed with input level l. */
    std::function<double(int)> latency = [](int) { return 0.0; };
    u64 input_cts = 1;  ///< ciphertexts on the incoming edge
};

struct ChainItem;

/** A straight-line sequence of units and regions. */
struct Chain {
    std::vector<ChainItem> items;
};

/** Chain element: either a unit or a fork/join region with branches. */
struct ChainItem {
    enum class Kind { kUnit, kRegion };
    Kind kind = Kind::kUnit;
    PlacementUnit unit;  ///< the unit itself, or the join unit of a region
    std::vector<Chain> branches;  ///< region branches (fork out -> join in)
    /** Region: the key of the value every branch starts from. */
    int fork = -1;
};

/** Placement configuration. */
struct PlacementConfig {
    int l_eff = 10;                   ///< level of fresh inputs and bootstraps
    double bootstrap_latency = 10.0;  ///< per-ciphertext bootstrap cost (s)
};

/** The level-management policy found by the solver. */
struct PlacementResult {
    double latency = std::numeric_limits<double>::infinity();
    u64 num_bootstraps = 0;       ///< total bootstrapped ciphertexts
    u64 num_bootstrap_sites = 0;  ///< edges with a bootstrap
    /**
     * The scheduled units in flattened topological order: each unit's
     * record stamped with its execution level, preceded by one kBootstrap
     * record (a = value = the lifted key, level l_eff) per bootstrapped
     * edge. Emission copies these records verbatim.
     */
    std::vector<Instruction> decisions;
    double solve_seconds = 0.0;  ///< Table 5's "Boot. Place." column
};

/** Orion's placement: level-digraph shortest path with SESE aggregation. */
PlacementResult place_bootstraps(const Chain& chain,
                                 const PlacementConfig& config);

/**
 * Baseline: bootstrap only when the next unit cannot execute (the naive
 * strategy Section 5.1 warns about). Units always execute at the highest
 * available level; a join that cannot run bootstraps both of its inputs.
 */
PlacementResult place_bootstraps_lazy(const Chain& chain,
                                      const PlacementConfig& config);

}  // namespace orion::core

#endif  // ORION_SRC_CORE_PLACEMENT_H_
