#include <gtest/gtest.h>

#include "src/core/cost_model.h"

namespace orion::core {
namespace {

TEST(CostModel, PrimitivesGrowWithLevel)
{
    const CostModel m = CostModel::paper_scale();
    for (int l = 2; l <= 16; ++l) {
        EXPECT_GT(m.pmult(l), m.pmult(l - 1)) << l;
        EXPECT_GT(m.rotation(l), m.rotation(l - 1)) << l;
        EXPECT_GT(m.hmult(l), m.hmult(l - 1)) << l;
    }
}

TEST(CostModel, HoistedRotationCheaperThanFull)
{
    const CostModel m = CostModel::paper_scale();
    for (int l : {1, 5, 10, 20}) {
        EXPECT_LT(m.rotation_hoisted(l), m.rotation(l)) << l;
        // Full = hoist + hoisted part, by construction.
        EXPECT_NEAR(m.rotation(l), m.hoist(l) + m.rotation_hoisted(l),
                    1e-12);
    }
}

TEST(CostModel, BootstrapSuperlinearInLeff)
{
    // Figure 1c: bootstrap latency strictly increases with L_eff and its
    // increments grow over coarse windows (locally they can dip a little
    // where the key-switch digit count steps discretely).
    const CostModel m = CostModel::paper_scale();
    for (int l_eff = 3; l_eff <= 16; ++l_eff) {
        EXPECT_GT(m.bootstrap(l_eff), m.bootstrap(l_eff - 1)) << l_eff;
    }
    const double low_inc = m.bootstrap(4) - m.bootstrap(2);
    const double high_inc = m.bootstrap(16) - m.bootstrap(14);
    EXPECT_GT(high_inc, 1.2 * low_inc);  // superlinear overall
}

TEST(CostModel, CalibrationMatchesMeasurement)
{
    CostModel m = CostModel::paper_scale();
    const double target = 0.025;  // pretend a rotation measured 25 ms
    m.calibrate(target, 10);
    EXPECT_NEAR(m.rotation(10), target, 1e-12);
    // Other levels scale proportionally (the model has one constant).
    EXPECT_GT(m.rotation(12), target);
    EXPECT_LT(m.rotation(5), target);
}

TEST(CostModel, DefaultConstantPricesPaperBootstrapClosely)
{
    // The bootstrap measured 37.851 s at N = 2^16, l_eff = 4, l_boot = 15
    // when the default was fitted (an earlier BENCH_bootstrap.json); the
    // recalibrated default must price it within a few percent (it was
    // ~1.9x under before the refit).
    const CostModel m = CostModel::for_params(u64(1) << 16, 3, 3, 15);
    const double measured = 37.8510701;
    EXPECT_NEAR(m.bootstrap(4), measured, 0.05 * measured);
}

TEST(CostModel, LinearLayerCostTracksPlanStats)
{
    const CostModel m = CostModel::paper_scale();
    PlanStats small;
    small.baby_rotations = 8;
    small.giant_rotations = 4;
    small.pmults = 50;
    small.hoists = 1;
    small.input_cts = small.output_cts = 1;
    PlanStats big = small;
    big.baby_rotations = 80;
    big.giant_rotations = 40;
    big.pmults = 500;
    big.hoists = 4;
    EXPECT_GT(m.linear_layer(big, 8), 5.0 * m.linear_layer(small, 8));
}

TEST(CostModel, ActivationCostScalesWithDegreeAndCts)
{
    const CostModel m = CostModel::paper_scale();
    const double one = m.activation({15}, 10, 1, false);
    const double composite = m.activation({15, 15, 27}, 10, 1, true);
    const double wide = m.activation({15}, 10, 8, false);
    // Later stages run at lower (cheaper) levels, so the composite costs
    // somewhat less than 3x a top-level stage but clearly more than one.
    EXPECT_GT(composite, 1.5 * one);
    EXPECT_LT(composite, 4.0 * one);
    EXPECT_NEAR(wide, 8.0 * one, 1e-9);
}

TEST(CostModel, LargerRingsCostMore)
{
    const CostModel small = CostModel::for_params(u64(1) << 13, 3, 3, 14);
    const CostModel big = CostModel::for_params(u64(1) << 16, 3, 3, 14);
    EXPECT_GT(big.rotation(10), 4.0 * small.rotation(10));
    EXPECT_GT(big.bootstrap(10), 4.0 * small.bootstrap(10));
}

}  // namespace
}  // namespace orion::core
