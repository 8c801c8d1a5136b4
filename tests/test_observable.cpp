/**
 * @file
 * Pauli-observable tests: single-qubit expectations, entangled
 * correlations, Hamiltonian energies, and energy conservation under
 * Trotter evolution (property sweep over step counts).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "algos/algos.hpp"
#include "metrics/observable.hpp"

namespace geyser {
namespace {

TEST(PauliString, RejectsBadLabels)
{
    EXPECT_THROW(PauliString("XQ"), std::invalid_argument);
    EXPECT_NO_THROW(PauliString("IXYZ"));
}

TEST(PauliString, ZOnBasisStates)
{
    StateVector zero(1);
    EXPECT_NEAR(PauliString("Z").expectation(zero), 1.0, 1e-12);
    StateVector one(1, 1);
    EXPECT_NEAR(PauliString("Z").expectation(one), -1.0, 1e-12);
}

TEST(PauliString, XOnHadamardStates)
{
    Circuit c(1);
    c.h(0);
    StateVector plus(1);
    plus.apply(c);
    EXPECT_NEAR(PauliString("X").expectation(plus), 1.0, 1e-12);
    EXPECT_NEAR(PauliString("Z").expectation(plus), 0.0, 1e-12);
    EXPECT_NEAR(PauliString("Y").expectation(plus), 0.0, 1e-12);
}

TEST(PauliString, BellStateCorrelations)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    StateVector bell(2);
    bell.apply(c);
    EXPECT_NEAR(PauliString("ZZ").expectation(bell), 1.0, 1e-12);
    EXPECT_NEAR(PauliString("XX").expectation(bell), 1.0, 1e-12);
    EXPECT_NEAR(PauliString("YY").expectation(bell), -1.0, 1e-12);
    EXPECT_NEAR(PauliString("ZI").expectation(bell), 0.0, 1e-12);
    EXPECT_NEAR(PauliString("IZ").expectation(bell), 0.0, 1e-12);
}

TEST(PauliString, DampedStateReadsTheNormalisedState)
{
    Circuit c(2);
    c.h(0);
    c.ry(1, 0.7);
    c.cx(0, 1);
    StateVector damped(2);
    damped.apply(c);
    // u >= gamma is a no-jump step: it lowers the tracked weight
    // instead of renormalising the amplitudes.
    ASSERT_FALSE(damped.applyAmplitudeDamping(0, 0.3, 0.9));
    ASSERT_LT(damped.weight(), 0.9);

    StateVector normalised(2);
    const double inv = 1.0 / std::sqrt(damped.normSquared());
    for (size_t i = 0; i < normalised.dim(); ++i)
        normalised.amplitudes()[i] = damped.amplitudes()[i] * inv;

    for (const char *label : {"ZI", "IZ", "ZZ", "XX", "YY", "XZ"})
        EXPECT_NEAR(PauliString(label).expectation(damped),
                    PauliString(label).expectation(normalised), 1e-12)
            << label;
    Hamiltonian h = Hamiltonian::heisenbergChain(2, 1.0, 0.5);
    EXPECT_NEAR(h.expectation(damped), h.expectation(normalised), 1e-12);
}

TEST(PauliString, IdentityOnWiderState)
{
    StateVector sv(3);
    EXPECT_NEAR(PauliString("ZI").expectation(sv), 1.0, 1e-12);
    EXPECT_THROW(PauliString("ZZZZ").expectation(sv),
                 std::invalid_argument);
}

TEST(Hamiltonian, NeelStateEnergyOfHeisenbergChain)
{
    // Neel |0101>: ZZ terms give -J per bond, XX/YY give 0; field term
    // gives h * (+1 -1 +1 -1) = 0.
    const auto h = Hamiltonian::heisenbergChain(4, 1.0, 0.5);
    Circuit neel(4);
    neel.x(1);
    neel.x(3);
    StateVector sv(4);
    sv.apply(neel);
    EXPECT_NEAR(h.expectation(sv), -3.0, 1e-12);
}

/** Energy is approximately conserved by the model's own evolution. */
class TrotterEnergySweep : public ::testing::TestWithParam<int>
{
};

TEST_P(TrotterEnergySweep, EnergyConservedUnderEvolution)
{
    const int steps = GetParam();
    const int n = 4;
    const double dt = 0.05;
    const auto h = Hamiltonian::heisenbergChain(n, 1.0, 0.5);

    StateVector before(n);
    Circuit prep(n);
    prep.x(1);
    prep.x(3);
    before.apply(prep);
    const double e0 = h.expectation(before);

    StateVector after(n);
    after.apply(heisenbergBenchmark(n, steps, dt));
    const double e1 = h.expectation(after);
    // First-order Trotter: O(dt) energy drift per unit time.
    EXPECT_NEAR(e0, e1, 0.25) << "steps=" << steps;
}

INSTANTIATE_TEST_SUITE_P(Steps, TrotterEnergySweep,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace geyser
