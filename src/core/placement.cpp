#include "src/core/placement.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>

namespace orion::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Backtrace record for one DP transition. */
struct Trace {
    int prev_level = -1;
    int exec_level = -1;
    bool boot_before = false;
    int region_entry = -1;  ///< for region items: chosen branch entry level
};

/** The record of a bootstrap that lifts `key` to l_eff before `unit`. */
Instruction
bootstrap_record(const PlacementUnit& unit, int key, int l_eff)
{
    Instruction boot;
    boot.op = Instruction::Op::kBootstrap;
    boot.a = boot.value = key;  // the lifted value replaces the old binding
    boot.layer_id = unit.ins.layer_id;
    boot.level = l_eff;
    boot.cts = unit.input_cts;
    return boot;
}

/** `ins` stamped with the level it executes at. */
Instruction
at_level(Instruction ins, int level)
{
    ins.level = level;
    return ins;
}

/** Fills the bootstrap totals and solve time from the decisions. */
void
finish(PlacementResult* result, std::chrono::steady_clock::time_point t0)
{
    for (const Instruction& d : result->decisions) {
        if (d.op != Instruction::Op::kBootstrap) continue;
        result->num_bootstraps += d.cts;
        ++result->num_bootstrap_sites;
    }
    result->solve_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
}

/**
 * Solves one chain for a fixed entry level. Region branches are solved
 * recursively and cached (every branch is solved once per entry level,
 * which is what keeps the whole algorithm linear in depth).
 */
class ChainSolver {
  public:
    ChainSolver(const Chain& chain, const PlacementConfig& config)
        : chain_(&chain), config_(&config)
    {
        for (const ChainItem& item : chain.items) {
            if (item.kind == ChainItem::Kind::kRegion) {
                std::vector<std::unique_ptr<ChainSolver>> solvers;
                for (const Chain& branch : item.branches) {
                    solvers.push_back(
                        std::make_unique<ChainSolver>(branch, config));
                }
                branch_solvers_.emplace(
                    static_cast<int>(&item - chain.items.data()),
                    std::move(solvers));
            }
        }
    }

    /** DP tables for one entry level. */
    struct Solve {
        // cost[i][l]: min cost of being before item i at level l (i in
        // 0..n; i == n means after the last item).
        std::vector<std::vector<double>> cost;
        std::vector<std::vector<Trace>> trace;
    };

    const Solve&
    solve(int entry)
    {
        auto it = memo_.find(entry);
        if (it != memo_.end()) return it->second;

        const int levels = config_->l_eff + 1;
        const int n = static_cast<int>(chain_->items.size());
        Solve s;
        s.cost.assign(static_cast<std::size_t>(n + 1),
                      std::vector<double>(static_cast<std::size_t>(levels),
                                          kInf));
        s.trace.assign(static_cast<std::size_t>(n + 1),
                       std::vector<Trace>(static_cast<std::size_t>(levels)));
        s.cost[0][static_cast<std::size_t>(entry)] = 0.0;

        for (int i = 0; i < n; ++i) {
            const ChainItem& item =
                chain_->items[static_cast<std::size_t>(i)];
            // Augment states with an optional bootstrap before item i.
            std::vector<double> pre = s.cost[static_cast<std::size_t>(i)];
            std::vector<Trace> pre_trace(static_cast<std::size_t>(levels));
            for (int l = 0; l < levels; ++l) {
                pre_trace[static_cast<std::size_t>(l)].prev_level = l;
            }
            for (int l = 0; l < levels; ++l) {
                const double base =
                    s.cost[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(l)];
                if (base == kInf) continue;
                const double boosted =
                    base + config_->bootstrap_latency *
                               static_cast<double>(item.unit.input_cts);
                const int top = config_->l_eff;
                if (boosted < pre[static_cast<std::size_t>(top)]) {
                    pre[static_cast<std::size_t>(top)] = boosted;
                    pre_trace[static_cast<std::size_t>(top)] = Trace{
                        l, -1, true, -1};
                }
            }

            // Transition through the item.
            for (int l = 0; l < levels; ++l) {
                const double base = pre[static_cast<std::size_t>(l)];
                if (base == kInf) continue;
                const Trace& tr_in = pre_trace[static_cast<std::size_t>(l)];
                if (item.kind == ChainItem::Kind::kUnit) {
                    // Execute at any level e <= l (mod-down is free).
                    for (int e = item.unit.depth; e <= l; ++e) {
                        const int out = e - item.unit.depth;
                        const double c = base + item.unit.latency(e);
                        auto& slot = s.cost[static_cast<std::size_t>(i + 1)]
                                           [static_cast<std::size_t>(out)];
                        if (c < slot) {
                            slot = c;
                            Trace tr = tr_in;
                            tr.exec_level = e;
                            s.trace[static_cast<std::size_t>(i + 1)]
                                   [static_cast<std::size_t>(out)] = tr;
                        }
                    }
                } else {
                    // Region: branches entered at e <= l, each exiting at
                    // some level >= b and mod-downed (free) to the common
                    // join level b; the join unit runs at b.
                    const auto& solvers = branch_solvers_.at(i);
                    for (int e = 0; e <= l; ++e) {
                        // Suffix minima over branch exit levels.
                        std::vector<std::vector<double>> best_cost(
                            solvers.size());
                        for (std::size_t br = 0; br < solvers.size(); ++br) {
                            const Solve& bs = solvers[br]->solve(e);
                            auto& bc = best_cost[br];
                            bc.assign(static_cast<std::size_t>(levels), kInf);
                            double run = kInf;
                            for (int b = config_->l_eff; b >= 0; --b) {
                                const double v =
                                    bs.cost.back()
                                        [static_cast<std::size_t>(b)];
                                run = std::min(run, v);
                                bc[static_cast<std::size_t>(b)] = run;
                            }
                        }
                        for (int b = 0; b <= config_->l_eff; ++b) {
                            double c = base + item.unit.latency(b);
                            bool feasible = true;
                            for (std::size_t br = 0; br < solvers.size();
                                 ++br) {
                                const double bc =
                                    best_cost[br][static_cast<std::size_t>(b)];
                                if (bc == kInf) {
                                    feasible = false;
                                    break;
                                }
                                c += bc;
                            }
                            if (!feasible) continue;
                            const int out = b - item.unit.depth;
                            if (out < 0) continue;
                            auto& slot =
                                s.cost[static_cast<std::size_t>(i + 1)]
                                      [static_cast<std::size_t>(out)];
                            if (c < slot) {
                                slot = c;
                                Trace tr = tr_in;
                                tr.exec_level = b;
                                tr.region_entry = e;
                                s.trace[static_cast<std::size_t>(i + 1)]
                                       [static_cast<std::size_t>(out)] = tr;
                            }
                        }
                    }
                }
            }
        }
        return memo_.emplace(entry, std::move(s)).first->second;
    }

    /** Reconstructs decisions for the optimal path entry -> exit. */
    void
    extract(int entry, int exit, std::vector<Instruction>* out)
    {
        const Solve& s = solve(entry);
        const int n = static_cast<int>(chain_->items.size());
        // Walk backwards collecting (item, trace) pairs.
        std::vector<std::pair<int, Trace>> steps;
        int level = exit;
        for (int i = n; i >= 1; --i) {
            const Trace tr =
                s.trace[static_cast<std::size_t>(i)]
                       [static_cast<std::size_t>(level)];
            steps.push_back({i - 1, tr});
            level = tr.prev_level;
        }
        std::reverse(steps.begin(), steps.end());

        for (const auto& [idx, tr] : steps) {
            const ChainItem& item =
                chain_->items[static_cast<std::size_t>(idx)];
            const bool region = item.kind == ChainItem::Kind::kRegion;
            if (tr.boot_before) {
                // A region's bootstrap lifts the fork value both branches
                // read; a unit's lifts its operand.
                out->push_back(bootstrap_record(
                    item.unit, region ? item.fork : item.unit.ins.a,
                    config_->l_eff));
            }
            if (region) {
                const auto& solvers = branch_solvers_.at(idx);
                for (const auto& solver : solvers) {
                    // The branch exits at the cheapest level >= the join
                    // level (same descending tie-break as the solve step).
                    const Solve& bs = solver->solve(tr.region_entry);
                    int exit = tr.exec_level;
                    double best = kInf;
                    for (int b = config_->l_eff; b >= tr.exec_level; --b) {
                        const double v =
                            bs.cost.back()[static_cast<std::size_t>(b)];
                        if (v < best) {
                            best = v;
                            exit = b;
                        }
                    }
                    solver->extract(tr.region_entry, exit, out);
                }
            }
            out->push_back(at_level(item.unit.ins, tr.exec_level));
        }
    }

  private:
    const Chain* chain_;
    const PlacementConfig* config_;
    std::map<int, Solve> memo_;
    std::map<int, std::vector<std::unique_ptr<ChainSolver>>> branch_solvers_;
};

}  // namespace

PlacementResult
place_bootstraps(const Chain& chain, const PlacementConfig& config)
{
    const auto t0 = std::chrono::steady_clock::now();
    ChainSolver solver(chain, config);
    const auto& s = solver.solve(config.l_eff);

    PlacementResult result;
    int exit_level = 0;
    for (int b = 0; b <= config.l_eff; ++b) {
        const double c = s.cost.back()[static_cast<std::size_t>(b)];
        if (c < result.latency) {
            result.latency = c;
            exit_level = b;
        }
    }
    ORION_CHECK(result.latency < kInf, "placement infeasible: a unit needs "
                                       "more levels than l_eff provides");
    solver.extract(config.l_eff, exit_level, &result.decisions);
    finish(&result, t0);
    return result;
}

namespace {

/** Greedy traversal for the lazy baseline; returns the exit level. */
int
lazy_walk(const Chain& chain, const PlacementConfig& config, int level,
          PlacementResult* result)
{
    for (const ChainItem& item : chain.items) {
        const PlacementUnit& u = item.unit;
        std::vector<int> lifts;  // keys bootstrapped before u runs
        if (item.kind == ChainItem::Kind::kUnit) {
            if (level < u.depth) lifts = {u.ins.a};
        } else {
            // Run each branch lazily from the current level, then meet at
            // the minimum exit level (mod-down the higher branch for free).
            int join_level = config.l_eff;
            for (const Chain& branch : item.branches) {
                join_level = std::min(
                    join_level, lazy_walk(branch, config, level, result));
            }
            level = join_level;
            // A join that cannot run bootstraps both of its inputs.
            if (level < u.depth) lifts = {u.ins.a, u.ins.b};
        }
        for (int key : lifts) {
            result->decisions.push_back(
                bootstrap_record(u, key, config.l_eff));
            result->latency +=
                config.bootstrap_latency * static_cast<double>(u.input_cts);
            level = config.l_eff;
        }
        result->decisions.push_back(at_level(u.ins, level));
        result->latency += u.latency(level);
        level -= u.depth;
    }
    return level;
}

}  // namespace

PlacementResult
place_bootstraps_lazy(const Chain& chain, const PlacementConfig& config)
{
    const auto t0 = std::chrono::steady_clock::now();
    PlacementResult result;
    result.latency = 0.0;
    lazy_walk(chain, config, config.l_eff, &result);
    finish(&result, t0);
    return result;
}

}  // namespace orion::core
