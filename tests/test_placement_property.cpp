#include <gtest/gtest.h>

#include <map>
#include <random>

#include "src/core/placement.h"

namespace orion::core {
namespace {

/**
 * Property tests for the placement DP: on randomly generated small chains
 * the solver must (a) match an exhaustive brute-force optimum, (b) never
 * lose to the lazy baseline, and (c) produce decisions that replay to
 * the reported latency and bootstrap count. This is the strongest evidence that the level-digraph
 * shortest path (Section 5.2) is solved exactly.
 */

struct RandomChainParams {
    u64 seed;
    int units;
    int l_eff;
};

PlacementUnit
make_random_unit(std::mt19937_64& rng, int l_eff, int id)
{
    std::uniform_int_distribution<int> depth_dist(0, std::min(3, l_eff));
    std::uniform_real_distribution<double> base_dist(0.1, 5.0);
    std::uniform_real_distribution<double> slope_dist(0.0, 1.0);
    PlacementUnit u;
    u.ins.layer_id = id;
    u.depth = depth_dist(rng);
    const double base = base_dist(rng);
    const double slope = slope_dist(rng);
    u.latency = [base, slope](int lvl) { return base + slope * lvl; };
    return u;
}

/**
 * Brute force: enumerate, for every unit, every (bootstrap?, exec level)
 * choice, and take the cheapest feasible schedule. Exponential - only for
 * tiny chains.
 */
double
brute_force(const std::vector<PlacementUnit>& units,
            const PlacementConfig& cfg)
{
    double best = std::numeric_limits<double>::infinity();
    const int n = static_cast<int>(units.size());
    // Encode choices as: for each unit, boot in {0,1} and exec level in
    // [depth, l_eff]. Recursive search with pruning-free simplicity.
    struct Rec {
        const std::vector<PlacementUnit>& units;
        const PlacementConfig& cfg;
        double& best;
        int n;
        void
        go(int i, int level, double cost)
        {
            if (cost >= best) return;
            if (i == n) {
                best = cost;
                return;
            }
            const PlacementUnit& u = units[static_cast<std::size_t>(i)];
            for (int boot = 0; boot <= 1; ++boot) {
                const int avail = boot ? cfg.l_eff : level;
                const double c =
                    cost + (boot ? cfg.bootstrap_latency *
                                       static_cast<double>(u.input_cts)
                                 : 0.0);
                for (int e = u.depth; e <= avail; ++e) {
                    go(i + 1, e - u.depth, c + u.latency(e));
                }
            }
        }
    };
    Rec rec{units, cfg, best, n};
    rec.go(0, cfg.l_eff, 0.0);
    return best;
}

/** What replaying a placement's decisions adds up to. */
struct Replay {
    double latency = 0.0;
    u64 bootstraps = 0;
};

/**
 * Replays decisions as a program walk over the records' value keys (the
 * chain's input is key 0, at l_eff): each record runs at a level its
 * operands have reached and that covers its unit's depth, and each
 * kBootstrap record lifts its key to l_eff.
 */
Replay
replay(const PlacementResult& r,
       const std::map<int, PlacementUnit>& unit_of,
       const PlacementConfig& cfg)
{
    Replay out;
    std::map<int, int> level_of = {{0, cfg.l_eff}};
    for (const Instruction& d : r.decisions) {
        if (d.op == Instruction::Op::kBootstrap) {
            EXPECT_EQ(d.level, cfg.l_eff);
            out.latency +=
                cfg.bootstrap_latency * static_cast<double>(d.cts);
            out.bootstraps += d.cts;
            level_of[d.a] = cfg.l_eff;
            continue;
        }
        const PlacementUnit& u = unit_of.at(d.layer_id);
        for (int key : {d.a, d.b}) {
            if (key >= 0) EXPECT_GE(level_of.at(key), d.level) << key;
        }
        EXPECT_GE(d.level, u.depth) << "layer " << d.layer_id;
        out.latency += u.latency(d.level);
        level_of[d.value] = d.level - u.depth;
    }
    return out;
}

/** Checks that r's decisions replay to exactly what r reports. */
void
expect_replays(const PlacementResult& r,
               const std::map<int, PlacementUnit>& unit_of,
               const PlacementConfig& cfg)
{
    const Replay got = replay(r, unit_of, cfg);
    EXPECT_EQ(got.bootstraps, r.num_bootstraps);
    EXPECT_NEAR(got.latency, r.latency, 1e-9 * r.latency);
}

class PlacementPropertyTest
    : public ::testing::TestWithParam<RandomChainParams> {};

TEST_P(PlacementPropertyTest, DpMatchesBruteForceOptimum)
{
    const RandomChainParams& p = GetParam();
    std::mt19937_64 rng(p.seed);
    std::vector<PlacementUnit> units;
    std::map<int, PlacementUnit> unit_of;
    for (int i = 0; i < p.units; ++i) {
        PlacementUnit u = make_random_unit(rng, p.l_eff, i);
        u.ins.a = i;  // a chain: unit i reads key i, writes key i + 1
        u.ins.value = i + 1;
        units.push_back(u);
        unit_of[i] = u;
    }
    Chain chain;
    for (const PlacementUnit& u : units) {
        ChainItem item;
        item.kind = ChainItem::Kind::kUnit;
        item.unit = u;
        chain.items.push_back(std::move(item));
    }
    PlacementConfig cfg;
    cfg.l_eff = p.l_eff;
    cfg.bootstrap_latency = 7.5;

    const PlacementResult dp = place_bootstraps(chain, cfg);
    const double brute = brute_force(units, cfg);
    EXPECT_NEAR(dp.latency, brute, 1e-9 + 1e-9 * brute)
        << "seed " << p.seed;

    // Lazy never beats the DP.
    const PlacementResult lazy = place_bootstraps_lazy(chain, cfg);
    EXPECT_LE(dp.latency, lazy.latency + 1e-9) << "seed " << p.seed;

    expect_replays(dp, unit_of, cfg);
    expect_replays(lazy, unit_of, cfg);
}

/**
 * ReLU-shaped regions (Section 5.2): a sign backbone whose stages use up
 * every level l_eff provides, so it ends at level 0, an empty identity
 * branch, and a depth-1 x * sign(x) join; random units sit between
 * regions. Both solvers' decisions must replay to what they report,
 * including the lazy baseline's bootstraps before a join that cannot run.
 */
TEST_P(PlacementPropertyTest, ReluRegionDecisionsReplay)
{
    const RandomChainParams& p = GetParam();
    std::mt19937_64 rng(p.seed);
    std::map<int, PlacementUnit> unit_of;
    int next_id = 0;
    int key = 0;  // the value the next item reads
    auto add_unit = [&](PlacementUnit u, int a) {
        u.ins.layer_id = next_id++;
        u.ins.a = a;
        u.ins.value = 1000 + u.ins.layer_id;
        unit_of[u.ins.layer_id] = u;
        ChainItem item;
        item.unit = u;
        return item;
    };
    Chain chain;
    for (int block = 0; block < 2; ++block) {
        Chain backbone;
        int stage_key = key;
        for (int depth : {p.l_eff / 2, p.l_eff - p.l_eff / 2}) {
            PlacementUnit stage = make_random_unit(rng, p.l_eff, 0);
            stage.depth = depth;
            backbone.items.push_back(add_unit(stage, stage_key));
            stage_key = backbone.items.back().unit.ins.value;
        }
        PlacementUnit join = make_random_unit(rng, p.l_eff, 0);
        join.depth = 1;
        join.ins.b = stage_key;
        ChainItem region = add_unit(join, key);
        region.kind = ChainItem::Kind::kRegion;
        region.fork = key;
        region.branches.push_back(std::move(backbone));
        region.branches.emplace_back();  // identity: x itself
        key = region.unit.ins.value;
        chain.items.push_back(std::move(region));
        chain.items.push_back(
            add_unit(make_random_unit(rng, p.l_eff, 0), key));
        key = chain.items.back().unit.ins.value;
    }
    PlacementConfig cfg;
    cfg.l_eff = p.l_eff;
    cfg.bootstrap_latency = 7.5;

    const PlacementResult dp = place_bootstraps(chain, cfg);
    const PlacementResult lazy = place_bootstraps_lazy(chain, cfg);
    EXPECT_LE(dp.latency, lazy.latency + 1e-9) << "seed " << p.seed;
    // The first region is entered at l_eff and its backbone ends at level
    // 0, so the lazy join must bootstrap both of its inputs.
    EXPECT_GE(lazy.num_bootstraps, 2u);
    expect_replays(dp, unit_of, cfg);
    expect_replays(lazy, unit_of, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    RandomChains, PlacementPropertyTest,
    ::testing::Values(RandomChainParams{1, 4, 3}, RandomChainParams{2, 5, 4},
                      RandomChainParams{3, 6, 3}, RandomChainParams{4, 6, 5},
                      RandomChainParams{5, 7, 4}, RandomChainParams{6, 5, 2},
                      RandomChainParams{7, 8, 3},
                      RandomChainParams{8, 6, 6}));

TEST(PlacementProperty, RegionMatchesFlattenedEquivalentWhenShortcutFree)
{
    // A region whose second branch is empty and whose join is free is
    // *almost* a plain chain - but the join forces both branches to meet,
    // so the region cost must be >= the unconstrained chain cost.
    std::mt19937_64 rng(99);
    std::vector<PlacementUnit> units;
    for (int i = 0; i < 4; ++i) units.push_back(make_random_unit(rng, 4, i));

    Chain flat;
    for (const PlacementUnit& u : units) {
        ChainItem item;
        item.kind = ChainItem::Kind::kUnit;
        item.unit = u;
        flat.items.push_back(std::move(item));
    }
    Chain region_chain;
    {
        ChainItem region;
        region.kind = ChainItem::Kind::kRegion;
        region.unit.ins.layer_id = 100;
        region.unit.depth = 0;
        region.unit.latency = [](int) { return 0.0; };
        Chain backbone = flat;  // same units inside the region
        region.branches.push_back(std::move(backbone));
        region.branches.emplace_back();
        region_chain.items.push_back(std::move(region));
    }
    PlacementConfig cfg;
    cfg.l_eff = 4;
    cfg.bootstrap_latency = 3.0;
    const PlacementResult plain = place_bootstraps(flat, cfg);
    const PlacementResult region = place_bootstraps(region_chain, cfg);
    EXPECT_GE(region.latency + 1e-9, plain.latency);
}

}  // namespace
}  // namespace orion::core
