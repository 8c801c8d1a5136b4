/**
 * @file
 * Noise-model and trajectory-simulator tests: channel semantics,
 * convergence toward exact channel output, monotonicity in the error
 * rate, and determinism.
 */
#include <gtest/gtest.h>

#include "metrics/metrics.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectory.hpp"

namespace geyser {
namespace {

TEST(NoiseModel, PaperDefaultRates)
{
    const auto nm = NoiseModel::paperDefault();
    EXPECT_DOUBLE_EQ(nm.bitFlip, 0.001);
    EXPECT_DOUBLE_EQ(nm.phaseFlip, 0.001);
    EXPECT_FALSE(nm.perPulse);
}

TEST(NoiseModel, PerPulseScalesWithGateCost)
{
    NoiseModel nm{0.001, 0.001, true};
    EXPECT_DOUBLE_EQ(nm.bitFlipFor(Gate(GateKind::U3, 0)), 0.001);
    EXPECT_DOUBLE_EQ(nm.bitFlipFor(Gate(GateKind::CZ, 0, 1)), 0.003);
    EXPECT_DOUBLE_EQ(nm.bitFlipFor(Gate(GateKind::CCZ, 0, 1, 2)), 0.005);
}

TEST(Trajectory, NoiselessMatchesIdeal)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.ccx(0, 1, 2);
    const auto noisy = noisyDistribution(c, NoiseModel::withRate(0.0));
    const auto ideal = idealDistribution(c);
    EXPECT_NEAR(totalVariationDistance(noisy, ideal), 0.0, 1e-12);
}

TEST(Trajectory, ConvergesToExactChannelOnOneGate)
{
    // One X gate with bit-flip rate p: the output is |1> with
    // probability 1-p and |0> with probability p. TVD to ideal = p.
    Circuit c(1);
    c.x(0);
    NoiseModel nm{0.1, 0.0, false};
    TrajectoryConfig cfg;
    cfg.trajectories = 20000;
    cfg.seed = 5;
    const auto noisy = noisyDistribution(c, nm, cfg);
    EXPECT_NEAR(noisy[0], 0.1, 0.01);
    EXPECT_NEAR(noisy[1], 0.9, 0.01);
}

TEST(Trajectory, PhaseFlipInvisibleInComputationalBasis)
{
    // Z errors after an X gate do not change measurement probabilities.
    Circuit c(1);
    c.x(0);
    NoiseModel nm{0.0, 0.3, false};
    TrajectoryConfig cfg;
    cfg.trajectories = 200;
    const auto noisy = noisyDistribution(c, nm, cfg);
    EXPECT_NEAR(noisy[1], 1.0, 1e-12);
}

TEST(Trajectory, PhaseFlipDamagesSuperpositions)
{
    // H then noisy-H: phase flips between the Hadamards show up.
    Circuit c(1);
    c.h(0);
    c.h(0);
    NoiseModel nm{0.0, 0.5, false};
    TrajectoryConfig cfg;
    cfg.trajectories = 4000;
    cfg.seed = 9;
    const auto noisy = noisyDistribution(c, nm, cfg);
    // With p=0.5 the first H's phase flip fully dephases: 50/50... the
    // second H's flip acts after measurement basis is fixed. Expect
    // p(|1>) near 0.25 + small second-order terms... just require a
    // substantial deviation from the ideal p(|1>) = 0.
    EXPECT_GT(noisy[1], 0.15);
}

TEST(Trajectory, TvdIncreasesWithNoiseRate)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    for (int i = 0; i < 10; ++i) {
        c.cx(0, 1);
        c.cx(0, 1);
    }
    TrajectoryConfig cfg;
    cfg.trajectories = 400;
    cfg.seed = 21;
    const double t1 = noisyTvd(c, c, NoiseModel::withRate(0.0005), cfg);
    const double t2 = noisyTvd(c, c, NoiseModel::withRate(0.005), cfg);
    const double t3 = noisyTvd(c, c, NoiseModel::withRate(0.02), cfg);
    EXPECT_LT(t1, t2);
    EXPECT_LT(t2, t3);
}

TEST(Trajectory, FewerGatesMeanLowerTvd)
{
    // The core premise of the paper: a circuit with fewer (noisy)
    // operations has higher output fidelity.
    Circuit small(2);
    small.h(0);
    small.cx(0, 1);
    Circuit big(2);
    big.h(0);
    big.cx(0, 1);
    for (int i = 0; i < 15; ++i) {
        big.cx(0, 1);
        big.cx(0, 1);
    }
    const NoiseModel nm = NoiseModel::paperDefault();
    TrajectoryConfig cfg;
    cfg.trajectories = 2000;
    cfg.seed = 33;
    const double tvdSmall = noisyTvd(small, small, nm, cfg);
    const double tvdBig = noisyTvd(big, small, nm, cfg);
    EXPECT_LT(tvdSmall, tvdBig);
}

TEST(Trajectory, DeterministicForFixedSeed)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    TrajectoryConfig cfg;
    cfg.trajectories = 50;
    cfg.seed = 77;
    cfg.parallel = false;
    const auto a = noisyDistribution(c, NoiseModel::paperDefault(), cfg);
    const auto b = noisyDistribution(c, NoiseModel::paperDefault(), cfg);
    EXPECT_EQ(a, b);
}

TEST(Trajectory, ParallelMatchesSerial)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    TrajectoryConfig serial{200, 123, false};
    TrajectoryConfig parallel{200, 123, true};
    const auto a = noisyDistribution(c, NoiseModel::paperDefault(), serial);
    const auto b = noisyDistribution(c, NoiseModel::paperDefault(), parallel);
    // Same per-trajectory seeds, different accumulation order: results
    // agree to floating-point reassociation.
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(Metrics, TvdBasicProperties)
{
    const Distribution p{0.5, 0.5};
    const Distribution q{1.0, 0.0};
    EXPECT_NEAR(totalVariationDistance(p, p), 0.0, 1e-15);
    EXPECT_NEAR(totalVariationDistance(p, q), 0.5, 1e-15);
    EXPECT_NEAR(totalVariationDistance(q, {0.0, 1.0}), 1.0, 1e-15);
    EXPECT_THROW(totalVariationDistance(p, {1.0}), std::invalid_argument);
}

TEST(Metrics, CircuitStatsCountsEverything)
{
    Circuit c(3);
    c.u3(0, 1, 1, 1);
    c.u3(1, 1, 1, 1);
    c.cz(0, 1);
    c.ccz(0, 1, 2);
    const auto stats = circuitStats(c);
    EXPECT_EQ(stats.numQubits, 3);
    EXPECT_EQ(stats.u3Count, 2);
    EXPECT_EQ(stats.czCount, 1);
    EXPECT_EQ(stats.cczCount, 1);
    EXPECT_EQ(stats.totalPulses, 10);
    EXPECT_GT(stats.depthPulses, 0);
}

}  // namespace
}  // namespace geyser
