/**
 * @file
 * Statevector simulator tests: basis-state evolution, entanglement,
 * agreement between the generic matrix path and the fast paths.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "sim/statevector.hpp"
#include "sim/unitary_sim.hpp"

namespace geyser {
namespace {

TEST(StateVector, InitialStateIsAllZeros)
{
    StateVector sv(3);
    EXPECT_EQ(sv.dim(), 8u);
    EXPECT_EQ(sv.amplitudes()[0], Complex{1.0});
    EXPECT_NEAR(sv.normSquared(), 1.0, 1e-15);
}

TEST(StateVector, XFlipsQubit)
{
    StateVector sv(2);
    sv.applyX(1);
    EXPECT_EQ(sv.amplitudes()[2], Complex{1.0});
    EXPECT_EQ(sv.amplitudes()[0], Complex{0.0});
}

TEST(StateVector, HadamardCreatesUniformSuperposition)
{
    Circuit c(2);
    c.h(0);
    c.h(1);
    const auto p = idealDistribution(c);
    for (const double v : p)
        EXPECT_NEAR(v, 0.25, 1e-12);
}

TEST(StateVector, BellState)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    const auto p = idealDistribution(c);
    EXPECT_NEAR(p[0], 0.5, 1e-12);
    EXPECT_NEAR(p[3], 0.5, 1e-12);
    EXPECT_NEAR(p[1], 0.0, 1e-12);
    EXPECT_NEAR(p[2], 0.0, 1e-12);
}

TEST(StateVector, GhzOnFiveQubits)
{
    Circuit c(5);
    c.h(0);
    for (int q = 0; q + 1 < 5; ++q)
        c.cx(q, q + 1);
    const auto p = idealDistribution(c);
    EXPECT_NEAR(p[0], 0.5, 1e-12);
    EXPECT_NEAR(p[31], 0.5, 1e-12);
}

TEST(StateVector, CxControlIsFirstOperand)
{
    // |10> with qubit1 = 1: CX(1, 0) must flip qubit 0.
    StateVector sv(2);
    sv.applyX(1);
    sv.apply(Gate(GateKind::CX, 1, 0));
    EXPECT_EQ(sv.amplitudes()[3], Complex{1.0});
    // CX(0, 1) on |10>: control (qubit 0) is 0, so nothing happens.
    StateVector sv2(2);
    sv2.applyX(1);
    sv2.apply(Gate(GateKind::CX, 0, 1));
    EXPECT_EQ(sv2.amplitudes()[2], Complex{1.0});
}

TEST(StateVector, ToffoliComputesAnd)
{
    for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
            StateVector sv(3);
            if (a)
                sv.applyX(0);
            if (b)
                sv.applyX(1);
            sv.apply(Gate(GateKind::CCX, 0, 1, 2));
            const size_t expect = static_cast<size_t>(a) |
                                  (static_cast<size_t>(b) << 1) |
                                  (static_cast<size_t>(a & b) << 2);
            EXPECT_NEAR(std::abs(sv.amplitudes()[expect]), 1.0, 1e-12)
                << "a=" << a << " b=" << b;
        }
    }
}

/** The branchy full-range loops the strided fast paths replaced. */
void
branchyX(std::vector<Complex> &a, Qubit q)
{
    const size_t mask = size_t{1} << q;
    for (size_t i = 0; i < a.size(); ++i)
        if (!(i & mask))
            std::swap(a[i], a[i | mask]);
}

void
branchyY(std::vector<Complex> &a, Qubit q)
{
    const size_t mask = size_t{1} << q;
    for (size_t i = 0; i < a.size(); ++i) {
        if (!(i & mask)) {
            const Complex a0 = a[i];
            const Complex a1 = a[i | mask];
            a[i] = -kI * a1;
            a[i | mask] = kI * a0;
        }
    }
}

void
branchyPhase(std::vector<Complex> &a, size_t m)
{
    for (size_t i = 0; i < a.size(); ++i)
        if ((i & m) == m)
            a[i] = -a[i];
}

/** Every operand tuple of `arity` distinct qubits out of n, in order. */
std::vector<std::vector<Qubit>>
operandTuples(int n, int arity)
{
    std::vector<std::vector<Qubit>> out;
    for (Qubit a = 0; a < n; ++a)
        for (Qubit b = 0; b < n; ++b)
            for (Qubit c = 0; c < n; ++c) {
                if (arity == 1 && (b > 0 || c > 0))
                    continue;
                if (arity == 2 && (a == b || c > 0))
                    continue;
                if (arity == 3 && (a == b || b == c || a == c))
                    continue;
                std::vector<Qubit> t{a, b, c};
                t.resize(static_cast<size_t>(arity));
                out.push_back(t);
            }
    return out;
}

Gate
gateOn(GateKind kind, const std::vector<Qubit> &q)
{
    switch (q.size()) {
      case 1:
        return Gate(kind, q[0]);
      case 2:
        return Gate(kind, q[0], q[1]);
      default:
        return Gate(kind, q[0], q[1], q[2]);
    }
}

TEST(StateVector, FastPathsMatchMatrixPath)
{
    // Every operand position (both orders, adjacent or not) of X/Y/Z/CZ/
    // CCZ on a 5-qubit entangled state: the strided fast path must be
    // bit-identical to the branchy full-range loop it replaced, and
    // within rounding of the generic matrix path.
    constexpr int n = 5;
    Circuit prep(n);
    for (Qubit q = 0; q < n; ++q)
        prep.u3(q, 0.4 + 0.3 * q, 0.2 * q - 0.5, 0.7 - 0.1 * q);
    for (Qubit q = 0; q + 1 < n; ++q)
        prep.cx(q, q + 1);
    prep.rx(0, 0.7);
    StateVector start(n);
    start.apply(prep);

    const std::pair<GateKind, int> kinds[] = {
        {GateKind::X, 1}, {GateKind::Y, 1}, {GateKind::Z, 1},
        {GateKind::CZ, 2}, {GateKind::CCZ, 3}};
    int checked = 0;
    for (const auto &[kind, arity] : kinds) {
        for (const auto &qs : operandTuples(n, arity)) {
            const Gate g = gateOn(kind, qs);
            StateVector fast = start;
            fast.apply(g);

            std::vector<Complex> oracle = start.amplitudes();
            if (kind == GateKind::X) {
                branchyX(oracle, qs[0]);
            } else if (kind == GateKind::Y) {
                branchyY(oracle, qs[0]);
            } else {
                size_t m = 0;
                for (const Qubit q : qs)
                    m |= size_t{1} << q;
                branchyPhase(oracle, m);
            }

            StateVector slow = start;
            slow.applyMatrix(g.matrix(), qs);

            for (size_t i = 0; i < fast.dim(); ++i) {
                EXPECT_EQ(fast.amplitudes()[i], oracle[i])
                    << g.toString() << " index " << i;
                EXPECT_NEAR(
                    std::abs(fast.amplitudes()[i] - slow.amplitudes()[i]),
                    0.0, 1e-12)
                    << g.toString();
            }
            ++checked;
        }
    }
    // 3 * 5 single-qubit, 20 ordered pairs, 60 ordered triples.
    EXPECT_EQ(checked, 15 + 20 + 60);
}

/**
 * Reference damping step that renormalises every step: read P(1) over
 * the whole state, then jump or apply K0, and divide every amplitude by
 * the exact norm of the result. (Dividing by the predicted norm
 * sqrt(1 - gamma * P(1)) instead would multiply any norm error by
 * 1 / (1 - gamma * P(1)) per step and drift off at high gamma.)
 */
bool
renormalizingDamping(std::vector<Complex> &a, Qubit q, double gamma, double u)
{
    const size_t mask = size_t{1} << q;
    double total = 0.0, p1 = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        total += std::norm(a[i]);
        if (i & mask)
            p1 += std::norm(a[i]);
    }
    p1 /= total;
    const bool jump = u < gamma * p1;
    for (size_t i = 0; i < a.size(); ++i) {
        if (!(i & mask))
            continue;
        if (jump) {
            a[i & ~mask] = a[i];
            a[i] = 0.0;
        } else {
            a[i] *= std::sqrt(1.0 - gamma);
        }
    }
    double norm = 0.0;
    for (const Complex &v : a)
        norm += std::norm(v);
    const double inv = 1.0 / std::sqrt(norm);
    for (Complex &v : a)
        v *= inv;
    return jump;
}

/** Largest per-outcome gap between sv and the normalised reference. */
double
maxGap(const StateVector &sv, const std::vector<Complex> &ref)
{
    const Distribution p = sv.probabilities();
    double gap = 0.0;
    for (size_t i = 0; i < p.size(); ++i)
        gap = std::max(gap, std::abs(p[i] - std::norm(ref[i])));
    return gap;
}

/** A random 1-qubit gate (U3) or CZ on the register, from `rng`. */
Gate
randomGate(std::mt19937_64 &rng, int n)
{
    std::uniform_real_distribution<double> angle(-3.0, 3.0);
    std::uniform_int_distribution<int> qubit(0, n - 1);
    const Qubit a = qubit(rng);
    if (rng() % 3 == 0) {
        Qubit b = qubit(rng);
        if (b == a)
            b = (a + 1) % n;
        return Gate(GateKind::CZ, a, b);
    }
    return Gate(GateKind::U3, a, angle(rng), angle(rng), angle(rng));
}

TEST(StateVector, AmplitudeDampingMatchesRenormalizingReference)
{
    constexpr int n = 5;
    std::mt19937_64 rng(2022);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const Qubit top = n - 1;
    const double gammas[] = {0.001, 0.05, 0.3, 1.0};
    int jumps = 0, stays = 0, rareStays = 0;
    for (const double gamma : gammas) {
        for (int run = 0; run < 20; ++run) {
            StateVector sv(n);
            for (int k = 0; k < 12; ++k)
                sv.apply(randomGate(rng, n));
            std::vector<Complex> ref = sv.amplitudes();
            for (int step = 0; step < 60; ++step) {
                const Gate g = randomGate(rng, n);
                sv.apply(g);
                StateVector refSv(n);
                refSv.amplitudes() = ref;
                refSv.apply(g);
                ref = refSv.amplitudes();

                // Alternate the end qubits with random ones, and draws
                // at and right around gamma with uniform ones.
                const Qubit q = step % 3 == 0   ? Qubit{0}
                                : step % 3 == 1 ? top
                                                : static_cast<Qubit>(
                                                      rng() % n);
                double u = unit(rng);
                switch (step % 5) {
                  case 0:
                    u = std::nextafter(gamma, 0.0);
                    break;
                  case 1:
                    u = gamma;
                    break;
                  case 2:
                    u = std::nextafter(gamma, 2.0);
                    break;
                  default:
                    break;
                }
                if (u >= 1.0)
                    u = std::nextafter(1.0, 0.0);
                const bool want = renormalizingDamping(ref, q, gamma, u);
                const bool got = sv.applyAmplitudeDamping(q, gamma, u);
                ASSERT_EQ(got, want) << "gamma " << gamma << " step " << step;
                (got ? jumps : stays) += 1;
                if (!got && u < gamma)
                    ++rareStays;
                ASSERT_LE(maxGap(sv, ref), 1e-12)
                    << "gamma " << gamma << " step " << step;
            }
        }
    }
    // Every branch ran: jumps, plain no-jumps, and no-jumps that read
    // P(1) first because u < gamma.
    EXPECT_GT(jumps, 50);
    EXPECT_GT(stays, 50);
    EXPECT_GT(rareStays, 50);
}

TEST(StateVector, AmplitudeDampingNoJumpLeavesZeroHalfBitIdentical)
{
    constexpr int n = 4;
    Circuit prep(n);
    for (Qubit q = 0; q < n; ++q)
        prep.u3(q, 0.9 + 0.2 * q, 0.3, -0.4 * q);
    prep.cz(0, 3);
    for (Qubit q = 0; q < n; ++q) {
        StateVector sv(n);
        sv.apply(prep);
        const std::vector<Complex> before = sv.amplitudes();
        ASSERT_FALSE(sv.applyAmplitudeDamping(q, 0.1, 0.5));
        const size_t mask = size_t{1} << q;
        for (size_t i = 0; i < sv.dim(); ++i) {
            if (!(i & mask)) {
                EXPECT_EQ(sv.amplitudes()[i], before[i])
                    << "qubit " << q << " index " << i;
            }
        }
    }
}

TEST(StateVector, AmplitudeDampingLongRunStaysFiniteAtTheFloor)
{
    // 20k no-jump steps at gamma = 0.2, each after an X that moves the
    // damped population back into |1>. Without the floor the tracked
    // weight would be the product of (1 - gamma * P(1)) over all steps,
    // far below the smallest double; the rescale must keep the state
    // finite, normalised and on the reference.
    constexpr int n = 4;
    constexpr double gamma = 0.2;
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> noJump(gamma, 1.0);
    Circuit prep(n);
    for (Qubit q = 0; q < n; ++q)
        prep.u3(q, 0.5 + 0.4 * q, 0.1, 0.2);
    StateVector sv(n);
    sv.apply(prep);
    StateVector ref(n);
    ref.apply(prep);
    double log2Weight = 0.0;
    for (int step = 0; step < 20000; ++step) {
        const auto q = static_cast<Qubit>(rng() % n);
        sv.applyX(q);
        ref.applyX(q);
        double p1 = 0.0;
        for (size_t i = 0; i < ref.dim(); ++i)
            if (i & (size_t{1} << q))
                p1 += std::norm(ref.amplitudes()[i]);
        log2Weight += std::log2(1.0 - gamma * p1);
        const double u = noJump(rng);
        ASSERT_FALSE(renormalizingDamping(ref.amplitudes(), q, gamma, u));
        ASSERT_FALSE(sv.applyAmplitudeDamping(q, gamma, u));
    }
    EXPECT_LT(log2Weight, -1100.0);  // below DBL_TRUE_MIN = 2^-1074
    const Distribution p = sv.probabilities();
    double sum = 0.0;
    for (const double v : p) {
        ASSERT_TRUE(std::isfinite(v));
        sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_LE(maxGap(sv, ref.amplitudes()), 1e-12);
}

/** K0 * U for a one-qubit gate, as the trajectory engine builds it. */
std::array<Complex, 4>
foldedMatrix(const Gate &g, double gamma)
{
    const double s = std::sqrt(1.0 - gamma);
    const Matrix u = g.matrix();
    return {u(0, 0), u(0, 1), s * u(1, 0), s * u(1, 1)};
}

TEST(StateVector, NoJumpFoldMatchesStepwiseDamping)
{
    // The folded pass against the gate followed by one no-jump step per
    // operand, for 1-qubit gates, CZ and CCZ on every operand position
    // of a 5-qubit register (qubit 0 and the top qubit included).
    constexpr int n = 5;
    constexpr double gamma = 0.07;
    std::mt19937_64 rng(1915);
    std::uniform_real_distribution<double> angle(-3.0, 3.0);
    std::vector<Gate> gates;
    for (Qubit a = 0; a < n; ++a) {
        gates.emplace_back(GateKind::U3, a, angle(rng), angle(rng),
                           angle(rng));
        gates.emplace_back(GateKind::H, a);
        gates.emplace_back(GateKind::X, a);
        for (Qubit b = 0; b < n; ++b) {
            if (b == a)
                continue;
            gates.emplace_back(GateKind::CZ, a, b);
            for (Qubit c = 0; c < n; ++c)
                if (c != a && c != b)
                    gates.emplace_back(GateKind::CCZ, a, b, c);
        }
    }
    StateVector start(n);
    for (Qubit q = 0; q < n; ++q)
        start.apply(Gate(GateKind::U3, q, angle(rng), angle(rng), angle(rng)));
    start.apply(Gate(GateKind::CZ, 0, 4));
    start.apply(Gate(GateKind::CZ, 1, 3));
    for (const Gate &g : gates) {
        ASSERT_TRUE(StateVector::fusesNoJump(g)) << g.toString();
        StateVector fused = start;
        const auto k0u = foldedMatrix(g, gamma);
        fused.applyNoJumpFused(g, gamma, k0u.data());
        StateVector stepwise = start;
        stepwise.apply(g);
        for (int i = 0; i < g.numQubits(); ++i)
            ASSERT_FALSE(
                stepwise.applyAmplitudeDamping(g.qubit(i), gamma, gamma));
        const double scale = std::sqrt(stepwise.weight());
        for (size_t i = 0; i < fused.dim(); ++i)
            EXPECT_LE(std::abs(fused.amplitudes()[i] -
                               stepwise.amplitudes()[i]),
                      1e-15 * scale)
                << g.toString() << " index " << i;
        EXPECT_NEAR(fused.weight(), stepwise.weight(),
                    1e-15 * stepwise.weight())
            << g.toString();
    }
    EXPECT_FALSE(
        StateVector::fusesNoJump(Gate(GateKind::CX, 0, 1)));
    EXPECT_FALSE(
        StateVector::fusesNoJump(Gate(GateKind::CCX, 0, 1, 2)));
}

TEST(StateVector, LazyWeightLongRunStaysOnTheReferenceAtTheFloor)
{
    // 24k damping steps at gamma = 0.2 under the lazy weight: folded
    // X gates (no-jump steps that only scale), with every fifth step a
    // stepwise draw below gamma that reads the exact weight first and
    // may jump. The running bound must trigger the rescale well before
    // anything underflows, and the state must stay on the
    // renormalizing reference.
    constexpr int n = 4;
    constexpr double gamma = 0.2;
    std::mt19937_64 rng(11);
    std::uniform_real_distribution<double> noJump(gamma, 1.0);
    std::uniform_real_distribution<double> low(0.0, gamma);
    Circuit prep(n);
    for (Qubit q = 0; q < n; ++q)
        prep.u3(q, 0.5 + 0.4 * q, 0.1, 0.2);
    StateVector sv(n);
    sv.apply(prep);
    StateVector ref(n);
    ref.apply(prep);
    int jumps = 0, folds = 0;
    for (int step = 0; step < 24000; ++step) {
        const auto q = static_cast<Qubit>(rng() % n);
        const Gate x(GateKind::X, q);
        ref.applyX(q);
        if (step % 5 == 4) {
            sv.applyX(q);
            const double u = low(rng);
            const bool want = renormalizingDamping(ref.amplitudes(), q,
                                                   gamma, u);
            ASSERT_EQ(sv.applyAmplitudeDamping(q, gamma, u), want)
                << "step " << step;
            jumps += want ? 1 : 0;
        } else {
            const auto k0u = foldedMatrix(x, gamma);
            sv.applyNoJumpFused(x, gamma, k0u.data());
            ASSERT_FALSE(renormalizingDamping(ref.amplitudes(), q, gamma,
                                              noJump(rng)));
            ++folds;
        }
        ASSERT_GE(sv.weight(), 0.4) << "step " << step;
    }
    EXPECT_GT(jumps, 100);
    EXPECT_GT(folds, 19000);
    const Distribution p = sv.probabilities();
    double sum = 0.0;
    for (const double v : p) {
        ASSERT_TRUE(std::isfinite(v));
        sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_LE(maxGap(sv, ref.amplitudes()), 1e-12);
}

TEST(StateVector, WeightIsExactlyOneUntilDamped)
{
    StateVector sv(3);
    sv.apply(Gate(GateKind::U3, 0, 0.7, 0.2, -0.4));
    sv.apply(Gate(GateKind::CZ, 0, 2));
    EXPECT_EQ(sv.weight(), 1.0);
    ASSERT_FALSE(sv.applyAmplitudeDamping(0, 0.3, 0.5));
    EXPECT_LT(sv.weight(), 1.0);
    EXPECT_EQ(sv.weight(), sv.normSquared());
}

TEST(StateVector, NonAdjacentQubitOperands)
{
    // CX between qubits 0 and 3 of a 4-qubit register.
    StateVector sv(4);
    sv.applyX(0);
    sv.apply(Gate(GateKind::CX, 0, 3));
    EXPECT_NEAR(std::abs(sv.amplitudes()[0b1001]), 1.0, 1e-12);
}

TEST(StateVector, ReversedOperandOrderMatchesSwappedMatrix)
{
    // CP is symmetric: CP(a, b) == CP(b, a).
    Circuit prep(2);
    prep.h(0);
    prep.h(1);
    StateVector s1(2), s2(2);
    s1.apply(prep);
    s2.apply(prep);
    s1.apply(Gate(GateKind::CP, 0, 1, 0.9));
    s2.apply(Gate(GateKind::CP, 1, 0, 0.9));
    for (size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(std::abs(s1.amplitudes()[i] - s2.amplitudes()[i]), 0.0,
                    1e-12);
}

TEST(StateVector, NormPreservedThroughLongRandomCircuit)
{
    Circuit c(4);
    c.h(0);
    for (int i = 0; i < 50; ++i) {
        c.u3(i % 4, 0.1 * i, 0.2 * i, -0.3 * i);
        c.cx(i % 4, (i + 1) % 4);
        if (i % 3 == 0)
            c.ccx(i % 4, (i + 1) % 4, (i + 2) % 4);
    }
    StateVector sv(4);
    sv.apply(c);
    EXPECT_NEAR(sv.normSquared(), 1.0, 1e-10);
}

TEST(StateVector, InnerProductOfOrthogonalStates)
{
    StateVector a(2, 0), b(2, 3);
    EXPECT_NEAR(std::abs(a.innerProduct(b)), 0.0, 1e-15);
    EXPECT_NEAR(std::abs(a.innerProduct(a)), 1.0, 1e-15);
}

TEST(UnitarySim, SingleGateMatchesGateMatrix)
{
    Circuit c(1);
    c.u3(0, 0.4, 1.2, -0.8);
    const auto u = circuitUnitary(c);
    EXPECT_LT(u.maxAbsDiff(u3Matrix(0.4, 1.2, -0.8)), 1e-12);
}

TEST(UnitarySim, CircuitUnitaryIsUnitary)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.ccz(0, 1, 2);
    c.rzz(1, 2, 0.7);
    const auto u = circuitUnitary(c);
    EXPECT_TRUE(u.isUnitary(1e-10));
}

TEST(UnitarySim, GateOrderMatters)
{
    Circuit ab(1), ba(1);
    ab.h(0);
    ab.t(0);
    ba.t(0);
    ba.h(0);
    EXPECT_GT(circuitHsd(ab, ba), 0.01);
}

TEST(UnitarySim, HsdZeroForEquivalentCircuits)
{
    // HZH = X.
    Circuit hzh(1), x(1);
    hzh.h(0);
    hzh.z(0);
    hzh.h(0);
    x.x(0);
    EXPECT_NEAR(circuitHsd(hzh, x), 0.0, 1e-12);
}

TEST(UnitarySim, KroneckerStructureOfParallelGates)
{
    // Parallel H on both qubits = H (x) H.
    Circuit c(2);
    c.h(0);
    c.h(1);
    const Matrix h = Gate(GateKind::H, 0).matrix();
    EXPECT_LT(circuitUnitary(c).maxAbsDiff(h.kron(h)), 1e-12);
}

}  // namespace
}  // namespace geyser
