#include "src/linalg/bsgs.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace orion::lin {

u64
BsgsPlan::baby_rotation_count() const
{
    u64 count = 0;
    for (u64 b : baby_steps) {
        if (b != 0) ++count;
    }
    return count;
}

u64
BsgsPlan::giant_rotation_count() const
{
    u64 count = 0;
    for (const auto& [g, terms] : groups) {
        (void)terms;
        if (g != 0) ++count;
    }
    return count;
}

u64
BsgsPlan::rotation_count() const
{
    return baby_rotation_count() + giant_rotation_count();
}

u64
BsgsPlan::pmult_count() const
{
    u64 count = 0;
    for (const auto& [g, terms] : groups) {
        (void)g;
        count += terms.size();
    }
    return count;
}

std::vector<int>
BsgsPlan::required_steps() const
{
    std::set<int> steps;
    for (u64 b : baby_steps) {
        if (b != 0) steps.insert(static_cast<int>(b));
    }
    for (const auto& [g, terms] : groups) {
        (void)terms;
        if (g != 0) steps.insert(static_cast<int>(g));
    }
    return {steps.begin(), steps.end()};
}

BsgsPlan
BsgsPlan::build_from_indices(u64 dim, const std::vector<u64>& diag_indices,
                             u64 n1)
{
    ORION_CHECK(dim > 0, "empty matrix");
    auto make_plan = [&](u64 group_size) {
        BsgsPlan plan;
        plan.dim = dim;
        plan.n1 = group_size;
        std::set<u64> babies;
        for (u64 k : diag_indices) {
            ORION_ASSERT(k < dim);
            const u64 g = (k / group_size) * group_size;
            const u64 b = k % group_size;
            plan.groups[g].push_back({b, k});
            babies.insert(b);
        }
        plan.baby_steps.assign(babies.begin(), babies.end());
        return plan;
    };

    if (n1 != 0) return make_plan(n1);

    // Search group sizes: powers of two plus the sqrt neighborhood of the
    // diagonal count (the classic n1 = n2 = sqrt(n) optimum of Section 3.2
    // applies to dense matrices; sparse diagonal sets can prefer other
    // splits).
    std::set<u64> candidates = {1};
    for (u64 p = 2; p <= dim; p <<= 1) candidates.insert(p);
    const u64 root = static_cast<u64>(
        std::llround(std::sqrt(static_cast<double>(dim))));
    for (u64 c : {root / 2, root, root * 2}) {
        if (c >= 1 && c <= dim) candidates.insert(c);
    }
    const u64 d_root = static_cast<u64>(std::llround(
        std::sqrt(static_cast<double>(std::max<std::size_t>(
            diag_indices.size(), 1)))));
    for (u64 c : {d_root, d_root * 2}) {
        if (c >= 1 && c <= dim) candidates.insert(c);
    }

    BsgsPlan best;
    u64 best_cost = ~u64(0);
    for (u64 c : candidates) {
        BsgsPlan plan = make_plan(c);
        const u64 cost = plan.rotation_count();
        if (cost < best_cost) {
            best_cost = cost;
            best = std::move(plan);
        }
    }
    return best;
}

BsgsPlan
BsgsPlan::build(const DiagonalMatrix& m, u64 n1)
{
    return build_from_indices(m.dim(), m.diagonal_indices(), n1);
}

}  // namespace orion::lin
