#include "src/ckks/bootstrap.h"

namespace orion::ckks {

namespace {

/** The memoized plan for default options; a private build otherwise. */
std::shared_ptr<const BootstrapPlan>
resolve_plan(const CkksParams& params, const BootstrapParams& opts)
{
    const BootstrapParams defaults;
    const bool is_default =
        opts.k_range == defaults.k_range &&
        opts.double_angle == defaults.double_angle &&
        opts.sine_degree == defaults.sine_degree &&
        opts.cts_levels == defaults.cts_levels &&
        opts.stc_levels == defaults.stc_levels &&
        opts.fit_tolerance == defaults.fit_tolerance;
    if (is_default) return BootstrapPlan::cached(params);
    return std::make_shared<const BootstrapPlan>(
        BootstrapPlan::build(params, opts));
}

}  // namespace

Bootstrapper::Bootstrapper(const Context& ctx, const Encoder& encoder,
                           int l_eff, const BootstrapParams& opts)
    : circuit_(ctx, encoder, resolve_plan(ctx.params(), opts), l_eff)
{
}

}  // namespace orion::ckks
