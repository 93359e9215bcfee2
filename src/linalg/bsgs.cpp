#include "src/linalg/bsgs.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "src/core/arena.h"
#include "src/core/thread_pool.h"
#include "src/linalg/bsgs_detail.h"

namespace orion::lin {

namespace detail {

void
encode_rotated_diagonals(const ckks::Encoder& encoder, u64 dim, int level,
                         double scale, const std::vector<EncodeSlot>& slots)
{
    core::parallel_for(0, static_cast<i64>(slots.size()), [&](i64 si) {
        const EncodeSlot& s = slots[static_cast<std::size_t>(si)];
        ORION_ASSERT(s.diag != nullptr);
        std::vector<double> rotated(dim);
        for (u64 t = 0; t < dim; ++t) {
            rotated[t] = (*s.diag)[(t + dim - s.g) % dim];
        }
        *s.out = encoder.encode(rotated, level, scale);
    });
}

std::vector<ckks::Ciphertext>
hoisted_baby_rotations(const ckks::Evaluator& eval,
                       const ckks::Ciphertext& ct,
                       const std::vector<u64>& steps,
                       std::map<u64, const ckks::Ciphertext*>* lookup)
{
    const ckks::Evaluator::Hoisted hoisted = eval.hoist(ct);
    std::vector<ckks::Ciphertext> cts(steps.size());
    core::parallel_for(0, static_cast<i64>(steps.size()), [&](i64 i) {
        const u64 b = steps[static_cast<std::size_t>(i)];
        cts[static_cast<std::size_t>(i)] =
            b == 0 ? ct : eval.rotate_hoisted(hoisted, static_cast<int>(b));
    });
    for (std::size_t i = 0; i < steps.size(); ++i) {
        lookup->emplace(steps[i], &cts[i]);
    }
    return cts;
}

ckks::Ciphertext
group_inner_sum(const ckks::Evaluator& eval,
                const std::vector<BsgsPlan::Term>& terms,
                const std::vector<ckks::Plaintext>& encoded,
                const std::map<u64, const ckks::Ciphertext*>& babies)
{
    ORION_ASSERT(terms.size() == encoded.size());
    core::ScratchVec<const ckks::Ciphertext*> cts(terms.size());
    core::ScratchVec<const ckks::Plaintext*> pts(terms.size());
    for (std::size_t t = 0; t < terms.size(); ++t) {
        cts[t] = babies.at(terms[t].baby);
        pts[t] = &encoded[t];
    }
    return eval.mul_plain_sum({cts.data(), cts.size()},
                              {pts.data(), pts.size()});
}

void
accumulate_group_sums(const ckks::Evaluator& eval,
                      const std::vector<GroupTask>& tasks,
                      const std::map<u64, const ckks::Ciphertext*>& babies,
                      std::vector<ckks::Evaluator::RotationAccumulator>& accs)
{
    if (tasks.empty()) return;
    auto run_task = [&](const GroupTask& task,
                        ckks::Evaluator::RotationAccumulator& acc) {
        const ckks::Ciphertext inner =
            group_inner_sum(eval, *task.terms, *task.encoded, babies);
        eval.accumulate_rotation(acc, inner, static_cast<int>(task.giant));
    };

    const i64 chunks = core::chunk_count(static_cast<i64>(tasks.size()));
    if (chunks <= 1) {
        // Serial fast path: accumulate straight into the outputs, with no
        // partial accumulators to allocate or merge (identical to the
        // multi-chunk result because the merge adds are exact).
        for (const GroupTask& task : tasks) run_task(task, accs[task.acc]);
        return;
    }

    // Per-chunk private partial accumulators, created lazily for the acc
    // indices the chunk actually touches.
    using Partial = std::optional<ckks::Evaluator::RotationAccumulator>;
    std::vector<std::vector<Partial>> partials(
        static_cast<std::size_t>(chunks),
        std::vector<Partial>(accs.size()));
    core::parallel_chunks(
        static_cast<i64>(tasks.size()), chunks,
        [&](i64 c, i64 begin, i64 end) {
            for (i64 i = begin; i < end; ++i) {
                const GroupTask& task = tasks[static_cast<std::size_t>(i)];
                Partial& slot =
                    partials[static_cast<std::size_t>(c)][task.acc];
                if (!slot.has_value()) {
                    slot = eval.make_accumulator(accs[task.acc].level(),
                                                 accs[task.acc].scale());
                }
                run_task(task, *slot);
            }
        });
    for (std::size_t a = 0; a < accs.size(); ++a) {
        for (std::size_t c = 0; c < static_cast<std::size_t>(chunks); ++c) {
            if (partials[c][a].has_value()) {
                eval.merge_accumulator(accs[a], *partials[c][a]);
            }
        }
    }
}

}  // namespace detail

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

HeDiagonalMatrix::HeDiagonalMatrix(const ckks::Context& ctx,
                                   const ckks::Encoder& encoder,
                                   const DiagonalMatrix& m,
                                   const BsgsPlan& plan, int level,
                                   double scale)
    : ctx_(&ctx), plan_(plan), level_(level), scale_(scale)
{
    ORION_CHECK(m.dim() == ctx.slot_count(),
                "homomorphic matrices must match the slot count ("
                    << m.dim() << " vs " << ctx.slot_count() << ")");
    const u64 dim = m.dim();
    // Encode diag_{g+b} rotated down by the giant amount g (Equation 1):
    // e[t] = diag_k[(t - g) mod dim]. Every (group, term) encode is
    // independent, so flatten the plan and encode in parallel.
    std::vector<detail::EncodeSlot> slots;
    for (const auto& [g, terms] : plan_.groups) {
        std::vector<ckks::Plaintext>& row = encoded_[g];
        row.resize(terms.size());
        for (std::size_t t = 0; t < terms.size(); ++t) {
            slots.push_back({m.diagonal(terms[t].diag), g, &row[t]});
        }
    }
    detail::encode_rotated_diagonals(encoder, dim, level, scale, slots);
}

ckks::Ciphertext
HeDiagonalMatrix::apply(const ckks::Evaluator& eval,
                        const ckks::Ciphertext& ct) const
{
    ORION_CHECK(ct.level() == level_,
                "matrix encoded at level " << level_ << ", input at level "
                                           << ct.level());
    // Baby steps: one hoisted decomposition serves every baby rotation,
    // and the rotations themselves fan out across the thread pool.
    std::map<u64, const ckks::Ciphertext*> babies;
    const std::vector<ckks::Ciphertext> baby_cts =
        detail::hoisted_baby_rotations(eval, ct, plan_.baby_steps, &babies);

    // Giant groups: inner sums AND the deferred-mod-down giant-step
    // accumulation both fan out across the pool — worker chunks fold into
    // private partial accumulators that merge in fixed order at the end
    // (exact modular adds, so the result is bit-identical to the
    // single-threaded path).
    std::vector<detail::GroupTask> tasks;
    tasks.reserve(plan_.groups.size());
    for (const auto& [g, terms] : plan_.groups) {
        tasks.push_back({0, g, &terms, &encoded_.at(g)});
    }
    std::vector<ckks::Evaluator::RotationAccumulator> accs;
    accs.push_back(eval.make_accumulator(level_, ct.scale * scale_));
    detail::accumulate_group_sums(eval, tasks, babies, accs);
    ckks::Ciphertext out = eval.finalize_accumulator(accs[0]);
    eval.rescale_inplace(out);
    return out;
}

}  // namespace orion::lin
