#include "src/linalg/blocked.h"

#include <algorithm>
#include <complex>
#include <optional>
#include <set>
#include <type_traits>

#include "src/core/arena.h"
#include "src/core/thread_pool.h"

namespace orion::lin {

namespace {

/**
 * Hoists ct once and serves every baby rotation from it, fanning the
 * rotations out across the thread pool. Returns the ciphertexts aligned
 * with `steps` and fills `lookup` (step -> pointer into the result).
 * The returned vector owns the ciphertexts; keep it alive while using
 * `lookup`.
 */
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

/**
 * One giant group's inner sum of PMults, sum_t babies[terms[t].baby] *
 * encoded[t], as a single Evaluator::mul_plain_sum pass. `terms` must be
 * nonempty.
 */
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

/**
 * One giant group's full work item: the inner sum of PMults followed by a
 * rotation by `giant` accumulated into the output accumulator `accs[acc]`.
 */
struct GroupTask {
    std::size_t acc;  ///< index into the output accumulator array
    u64 giant;        ///< giant-step rotation amount
    const std::vector<BsgsPlan::Term>* terms;
    const std::vector<ckks::Plaintext>* encoded;
};

/**
 * Evaluates every giant-group task — inner sum, giant rotation, rotation
 * accumulation — across the thread pool. Each worker chunk accumulates
 * into private per-acc partial accumulators that are merged into `accs`
 * serially in fixed (accumulator, chunk) order; the merge is exact modular
 * addition, so the result is bit-identical to serial accumulation at any
 * thread count.
 */
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

/** A single-block plan: the block's own schedule, unchanged. */
BlockedPlan
one_block(const BsgsPlan& plan)
{
    BlockedPlan out;
    out.block_plans.emplace(std::make_pair(u64(0), u64(0)), plan);
    out.column_babies[0] = plan.baby_steps;
    return out;
}

}  // namespace

BlockedMatrix::BlockedMatrix(u64 rows, u64 cols, u64 block_dim)
    : rows_(rows), cols_(cols), block_dim_(block_dim)
{
    ORION_CHECK(rows > 0 && cols > 0 && block_dim > 0,
                "bad blocked matrix shape");
}

void
BlockedMatrix::add(u64 r, u64 c, double v)
{
    if (v == 0.0) return;
    ORION_ASSERT(r < rows_ && c < cols_);
    const std::pair<u64, u64> key{r / block_dim_, c / block_dim_};
    auto it = blocks_.find(key);
    if (it == blocks_.end()) {
        it = blocks_.emplace(key, DiagonalMatrix(block_dim_)).first;
    }
    it->second.add(r % block_dim_, c % block_dim_, v);
}

const DiagonalMatrix*
BlockedMatrix::block(u64 br, u64 bc) const
{
    const auto it = blocks_.find({br, bc});
    return it == blocks_.end() ? nullptr : &it->second;
}

void
BlockedMatrix::set_fold_steps(std::vector<u64> steps)
{
    ORION_CHECK(steps.empty() || (row_blocks() == 1 && col_blocks() == 1),
                "only a one-block matrix folds");
    fold_steps_ = std::move(steps);
}

std::vector<double>
BlockedMatrix::apply(const std::vector<double>& x) const
{
    ORION_CHECK(x.size() >= cols_, "input too short");
    std::vector<double> padded(col_blocks() * block_dim_, 0.0);
    std::copy(x.begin(), x.end(), padded.begin());
    std::vector<double> y(row_blocks() * block_dim_, 0.0);
    for (const auto& [key, block] : blocks_) {
        const auto [br, bc] = key;
        const std::vector<double> seg(
            padded.begin() + static_cast<std::ptrdiff_t>(bc * block_dim_),
            padded.begin() +
                static_cast<std::ptrdiff_t>((bc + 1) * block_dim_));
        const std::vector<double> part = block.apply(seg);
        for (u64 i = 0; i < block_dim_; ++i) {
            y[br * block_dim_ + i] += part[i];
        }
    }
    for (u64 s : fold_steps_) {
        const std::vector<double> prev = y;
        for (u64 i = 0; i < block_dim_; ++i) {
            y[i] += prev[(i + s) % block_dim_];
        }
    }
    return y;
}

u64
BlockedMatrix::num_diagonals() const
{
    u64 total = 0;
    for (const auto& [key, block] : blocks_) {
        (void)key;
        total += block.num_diagonals();
    }
    return total;
}

u64
BlockedStructure::num_diagonals() const
{
    u64 total = 0;
    for (const auto& [key, diags] : blocks) {
        (void)key;
        total += diags.size();
    }
    return total;
}

BlockedStructure
structure_of(const BlockedMatrix& m)
{
    BlockedStructure s;
    s.rows = m.rows();
    s.cols = m.cols();
    s.block_dim = m.block_dim();
    for (u64 br = 0; br < m.row_blocks(); ++br) {
        for (u64 bc = 0; bc < m.col_blocks(); ++bc) {
            const DiagonalMatrix* block = m.block(br, bc);
            if (block == nullptr) continue;
            s.blocks[{br, bc}] = block->diagonal_indices();
        }
    }
    s.fold_steps = m.fold_steps();
    return s;
}

BlockedPlan
BlockedPlan::build(const BlockedStructure& s, u64 n1)
{
    BlockedPlan plan;
    // Pick one group size per block-column from the union of its blocks'
    // diagonal indices, so baby rotations can be shared.
    for (u64 bc = 0; bc < s.col_blocks(); ++bc) {
        std::set<u64> union_indices;
        for (u64 br = 0; br < s.row_blocks(); ++br) {
            const auto it = s.blocks.find({br, bc});
            if (it == s.blocks.end()) continue;
            for (u64 k : it->second) union_indices.insert(k);
        }
        if (union_indices.empty()) continue;
        const std::vector<u64> indices(union_indices.begin(),
                                       union_indices.end());
        const BsgsPlan column_plan =
            BsgsPlan::build_from_indices(s.block_dim, indices, n1);
        const u64 column_n1 = column_plan.n1;

        std::set<u64> babies;
        for (u64 br = 0; br < s.row_blocks(); ++br) {
            const auto it = s.blocks.find({br, bc});
            if (it == s.blocks.end()) continue;
            BsgsPlan bp = BsgsPlan::build_from_indices(s.block_dim,
                                                       it->second, column_n1);
            for (u64 b : bp.baby_steps) babies.insert(b);
            plan.block_plans.emplace(std::make_pair(br, bc), std::move(bp));
        }
        plan.column_babies[bc] = {babies.begin(), babies.end()};
    }
    plan.fold_steps = s.fold_steps;
    return plan;
}

BlockedPlan
BlockedPlan::build(const BlockedMatrix& m, u64 n1)
{
    return build(structure_of(m), n1);
}

u64
BlockedPlan::rotation_count() const
{
    u64 count = 0;
    for (const auto& [bc, babies] : column_babies) {
        (void)bc;
        for (u64 b : babies) {
            if (b != 0) ++count;
        }
    }
    for (const auto& [key, bp] : block_plans) {
        (void)key;
        count += bp.giant_rotation_count();
    }
    return count + sum_rotation_count();
}

u64
BlockedPlan::sum_rotation_count() const
{
    return fold_steps.size() + replicate_steps.size();
}

std::vector<u64>
BlockedPlan::replication(u64 period, u64 slots)
{
    std::vector<u64> steps;
    for (u64 p = period; p != 0 && p < slots; p <<= 1) steps.push_back(p);
    return steps;
}

u64
BlockedPlan::pmult_count() const
{
    u64 count = 0;
    for (const auto& [key, bp] : block_plans) {
        (void)key;
        count += bp.pmult_count();
    }
    return count;
}

std::vector<int>
BlockedPlan::required_steps() const
{
    std::set<int> steps;
    for (const auto& [key, bp] : block_plans) {
        (void)key;
        for (int s : bp.required_steps()) steps.insert(s);
    }
    for (const std::vector<u64>* sums : {&fold_steps, &replicate_steps}) {
        for (u64 s : *sums) steps.insert(static_cast<int>(s));
    }
    return {steps.begin(), steps.end()};
}

template <class BlockOf>
void
HeBlockedMatrix::encode(const ckks::Encoder& encoder, u64 dim,
                        const BlockOf& block_of, double pre_factor)
{
    ORION_CHECK(dim == ctx_->slot_count(),
                "homomorphic matrices must match the slot count ("
                    << dim << " vs " << ctx_->slot_count() << ")");
    // e[t] = pre_factor * diag_k[(t - g) mod dim] for every (block, group,
    // term). The map structure is built serially first so the parallel
    // encodes only fill preallocated slots.
    using Diagonal = std::remove_pointer_t<decltype(block_of(
        std::pair<u64, u64>{})->diagonal(0))>;
    struct Slot {
        Diagonal* diag;
        u64 g;
        ckks::Plaintext* out;
    };
    std::vector<Slot> slots;
    for (const auto& [key, bp] : plan_.block_plans) {
        const auto* block = block_of(key);
        ORION_ASSERT(block != nullptr);
        auto& group_map = encoded_[key];
        for (const auto& [g, terms] : bp.groups) {
            std::vector<ckks::Plaintext>& row = group_map[g];
            row.resize(terms.size());
            for (std::size_t t = 0; t < terms.size(); ++t) {
                Diagonal* diag = block->diagonal(terms[t].diag);
                ORION_ASSERT(diag != nullptr);
                slots.push_back({diag, g, &row[t]});
            }
        }
    }
    core::parallel_for(0, static_cast<i64>(slots.size()), [&](i64 si) {
        const Slot& s = slots[static_cast<std::size_t>(si)];
        std::vector<std::complex<double>> rotated(dim);
        for (u64 t = 0; t < dim; ++t) {
            rotated[t] = pre_factor * std::complex<double>(
                                          (*s.diag)[(t + dim - s.g) % dim]);
        }
        *s.out = encoder.encode_complex(rotated, level_, scale_);
    });
}

HeBlockedMatrix::HeBlockedMatrix(const ckks::Context& ctx,
                                 const ckks::Encoder& encoder,
                                 const BlockedMatrix& m,
                                 const BlockedPlan& plan, int level,
                                 double scale)
    : ctx_(&ctx), plan_(plan), level_(level), scale_(scale),
      row_blocks_(m.row_blocks()), col_blocks_(m.col_blocks())
{
    encode(
        encoder, m.block_dim(),
        [&](std::pair<u64, u64> key) { return m.block(key.first, key.second); },
        1.0);
}

HeBlockedMatrix::HeBlockedMatrix(const ckks::Context& ctx,
                                 const ckks::Encoder& encoder,
                                 const DiagonalMatrix& m,
                                 const BsgsPlan& plan, int level,
                                 double scale)
    : ctx_(&ctx), plan_(one_block(plan)), level_(level), scale_(scale),
      row_blocks_(1), col_blocks_(1)
{
    encode(encoder, m.dim(), [&](std::pair<u64, u64>) { return &m; }, 1.0);
}

HeBlockedMatrix::HeBlockedMatrix(const ckks::Context& ctx,
                                 const ckks::Encoder& encoder,
                                 const ckks::ComplexDiagMatrix& m,
                                 const BsgsPlan& plan, int level,
                                 double scale, double pre_factor)
    : ctx_(&ctx), plan_(one_block(plan)), level_(level), scale_(scale),
      row_blocks_(1), col_blocks_(1)
{
    encode(encoder, m.dim(), [&](std::pair<u64, u64>) { return &m; },
           pre_factor);
}

std::vector<ckks::Ciphertext>
HeBlockedMatrix::apply(const ckks::Evaluator& eval,
                       std::span<const ckks::Ciphertext> in) const
{
    ORION_CHECK(in.size() == col_blocks_,
                "expected " << col_blocks_ << " input ciphertexts, got "
                            << in.size());
    for (const ckks::Ciphertext& ct : in) {
        ORION_CHECK(ct.level() == level_,
                    "matrix encoded at level " << level_
                                               << ", input at level "
                                               << ct.level());
    }
    const double out_scale = in.front().scale * scale_;

    std::vector<ckks::Evaluator::RotationAccumulator> accs;
    accs.reserve(row_blocks_);
    for (u64 br = 0; br < row_blocks_; ++br) {
        accs.push_back(eval.make_accumulator(level_, out_scale));
    }

    for (u64 bc = 0; bc < col_blocks_; ++bc) {
        const auto babies_it = plan_.column_babies.find(bc);
        if (babies_it == plan_.column_babies.end()) continue;

        // Shared hoisted baby rotations for this input ciphertext; the
        // rotations fan out across the thread pool.
        std::map<u64, const ckks::Ciphertext*> babies;
        const std::vector<ckks::Ciphertext> baby_cts =
            hoisted_baby_rotations(eval, in[bc], babies_it->second, &babies);

        // Per-(row block, giant group) inner sums and their giant-step
        // accumulations fan out together: worker chunks fold into private
        // per-row partial accumulators merged in fixed order (exact
        // modular adds — bit-identical to the serial path).
        std::vector<GroupTask> tasks;
        for (u64 br = 0; br < row_blocks_; ++br) {
            const auto plan_it = plan_.block_plans.find({br, bc});
            if (plan_it == plan_.block_plans.end()) continue;
            const auto& group_map = encoded_.at({br, bc});
            for (const auto& [g, terms] : plan_it->second.groups) {
                tasks.push_back({static_cast<std::size_t>(br), g, &terms,
                                 &group_map.at(g)});
            }
        }
        accumulate_group_sums(eval, tasks, babies, accs);
    }

    std::vector<ckks::Ciphertext> out;
    out.reserve(row_blocks_);
    for (u64 br = 0; br < row_blocks_; ++br) {
        ckks::Ciphertext ct = eval.finalize_accumulator(accs[br]);
        eval.rescale_inplace(ct);
        out.push_back(std::move(ct));
    }
    // Fold, then replicate: each a chain of rotate-and-adds on the one
    // output ciphertext, one level below the product.
    ORION_CHECK(plan_.sum_rotation_count() == 0 || out.size() == 1,
                "rotate-and-add steps need a one-ciphertext output");
    for (const std::vector<u64>* sums :
         {&plan_.fold_steps, &plan_.replicate_steps}) {
        for (u64 s : *sums) {
            eval.add_inplace(out[0],
                             eval.rotate(out[0], static_cast<int>(s)));
        }
    }
    return out;
}

}  // namespace orion::lin
