/**
 * @file
 * Tests for the Section 4.2 curve fitting: exact recovery of synthetic
 * Eq. 3 curves, linear fits, full cubics, and their behaviour on
 * DVFS-shaped data.
 */
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "solver/polyfit.hpp"

using namespace aw;

namespace {

std::vector<double>
sweepFreqs()
{
    std::vector<double> f;
    for (double x = 0.2; x <= 1.61; x += 0.2)
        f.push_back(x);
    return f;
}

} // namespace

/** Property sweep: exact recovery of beta/tau/const over a grid. */
struct Eq3Params
{
    double beta, tau, constant;
};

class CubicNoQuadRecovery : public testing::TestWithParam<Eq3Params>
{};

TEST_P(CubicNoQuadRecovery, ExactOnNoiselessData)
{
    auto [beta, tau, constant] = GetParam();
    auto freqs = sweepFreqs();
    std::vector<double> powers;
    for (double f : freqs)
        powers.push_back(beta * f * f * f + tau * f + constant);
    auto fit = fitCubicNoQuad(freqs, powers);
    EXPECT_NEAR(fit.beta, beta, 1e-8);
    EXPECT_NEAR(fit.tau, tau, 1e-8);
    EXPECT_NEAR(fit.constant, constant, 1e-8);
    // A constant curve has zero variance: Pearson r is 0 by convention.
    if (beta != 0 || tau != 0) {
        EXPECT_NEAR(fit.pearsonR, 1.0, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CubicNoQuadRecovery,
    testing::Values(Eq3Params{25, 40, 32.5}, Eq3Params{0.1, 30, 36},
                    Eq3Params{80, 5, 10}, Eq3Params{0, 0, 50},
                    Eq3Params{12, 0, 0}, Eq3Params{5, 100, 75}));

TEST(CubicNoQuad, RobustToSmallNoise)
{
    Rng rng(99);
    auto freqs = sweepFreqs();
    std::vector<double> powers;
    for (double f : freqs)
        powers.push_back((20 * f * f * f + 35 * f + 33) *
                         (1.0 + rng.gaussian(0, 0.004)));
    auto fit = fitCubicNoQuad(freqs, powers);
    EXPECT_NEAR(fit.constant, 33, 2.0);
    EXPECT_GT(fit.pearsonR, 0.999);
}

TEST(CubicNoQuadDeath, NeedsThreeSamples)
{
    EXPECT_EXIT(fitCubicNoQuad({1.0, 2.0}, {1.0, 2.0}),
                testing::ExitedWithCode(1), ">= 3");
}

TEST(LinearFit, ExactOnLine)
{
    auto fit = fitLinear({1, 2, 3}, {5, 7, 9});
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
    EXPECT_NEAR(fit.eval(10), 23.0, 1e-12);
}

TEST(LinearFit, UnderestimatesInterceptOnCubicData)
{
    // The Section 4.2 failure mode: fitting a line to V^2*f-shaped data
    // pulls the intercept far below the true constant term.
    auto freqs = sweepFreqs();
    std::vector<double> powers;
    for (double f : freqs)
        powers.push_back(40 * f * f * f + 10 * f + 32.5);
    auto lin = fitLinear(freqs, powers);
    auto cub = fitCubicNoQuad(freqs, powers);
    EXPECT_LT(lin.intercept, 32.5 - 5.0);
    EXPECT_NEAR(cub.constant, 32.5, 1e-8);
}

TEST(FullCubic, ExactRecovery)
{
    auto freqs = sweepFreqs();
    std::vector<double> powers;
    for (double f : freqs)
        powers.push_back(((3 * f - 2) * f + 7) * f + 11);
    auto fit = fitFullCubic(freqs, powers);
    EXPECT_NEAR(fit.a, 3, 1e-8);
    EXPECT_NEAR(fit.b, -2, 1e-8);
    EXPECT_NEAR(fit.c, 7, 1e-8);
    EXPECT_NEAR(fit.d, 11, 1e-8);
}

TEST(FullCubicDeath, NeedsFourSamples)
{
    EXPECT_EXIT(fitFullCubic({1, 2, 3}, {1, 2, 3}),
                testing::ExitedWithCode(1), ">= 4");
}

TEST(Fits, EvalMatchesCoefficients)
{
    CubicNoQuadFit f{2.0, 3.0, 4.0, 0.0};
    EXPECT_DOUBLE_EQ(f.eval(2.0), 2 * 8 + 3 * 2 + 4);
    LinearFit l{1.5, 2.5, 0.0};
    EXPECT_DOUBLE_EQ(l.eval(4.0), 8.5);
}
