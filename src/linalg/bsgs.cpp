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

namespace {

/**
 * The group size with the fewest rotations over the candidates: powers
 * of two plus the sqrt neighborhood of the dimension and of the diagonal
 * count (the classic n1 = n2 = sqrt(n) optimum of Section 3.2 applies to
 * dense matrices; sparse diagonal sets can prefer other splits). Ties go
 * to the smallest candidate. A candidate n1 costs its distinct nonzero
 * baby steps k mod n1 plus its distinct nonzero giant groups k / n1, both
 * counted in one pass over the sorted indices without building its plan.
 */
u64
best_group_size(u64 dim, const std::vector<u64>& diag_indices)
{
    std::set<u64> candidates = {1};
    for (u64 p = 2; p <= dim; p <<= 1) candidates.insert(p);
    const u64 root = static_cast<u64>(
        std::llround(std::sqrt(static_cast<double>(dim))));
    for (u64 c : {root / 2, root, root * 2}) {
        if (c >= 1 && c <= dim) candidates.insert(c);
    }
    const u64 d_root = static_cast<u64>(std::llround(std::sqrt(
        static_cast<double>(std::max<std::size_t>(diag_indices.size(), 1)))));
    for (u64 c : {d_root, d_root * 2}) {
        if (c >= 1 && c <= dim) candidates.insert(c);
    }

    // The giant count needs ascending indices; callers mostly pass them.
    std::vector<u64> sorted_copy;
    const std::vector<u64>* sorted = &diag_indices;
    if (!std::is_sorted(diag_indices.begin(), diag_indices.end())) {
        sorted_copy = diag_indices;
        std::sort(sorted_copy.begin(), sorted_copy.end());
        sorted = &sorted_copy;
    }
    const std::vector<u64>& indices = *sorted;
    // seen[b] == round marks baby step b as counted for the round-th
    // candidate (there are fewer than 256).
    std::vector<u8> seen(indices.empty() ? 0 : indices.back() + 1, 0);
    u8 round = 0;
    u64 best = 1;
    u64 best_cost = ~u64(0);
    for (u64 c : candidates) {
        ++round;
        u64 cost = 0;
        u64 last_giant = 0;
        for (u64 k : indices) {
            const u64 b = k % c;
            if (b != 0 && seen[b] != round) {
                seen[b] = round;
                ++cost;
            }
            const u64 g = k / c;
            if (g != last_giant) {
                last_giant = g;
                ++cost;
            }
        }
        if (cost < best_cost) {
            best_cost = cost;
            best = c;
        }
    }
    return best;
}

}  // namespace

BsgsPlan
BsgsPlan::build_from_indices(u64 dim, const std::vector<u64>& diag_indices,
                             u64 n1)
{
    ORION_CHECK(dim > 0, "empty matrix");
    BsgsPlan plan;
    plan.dim = dim;
    plan.n1 = n1 != 0 ? n1 : best_group_size(dim, diag_indices);
    std::set<u64> babies;
    for (u64 k : diag_indices) {
        ORION_ASSERT(k < dim);
        const u64 g = (k / plan.n1) * plan.n1;
        const u64 b = k % plan.n1;
        plan.groups[g].push_back({b, k});
        babies.insert(b);
    }
    plan.baby_steps.assign(babies.begin(), babies.end());
    return plan;
}

BsgsPlan
BsgsPlan::build(const DiagonalMatrix& m, u64 n1)
{
    return build_from_indices(m.dim(), m.diagonal_indices(), n1);
}

}  // namespace orion::lin
