/**
 * @file
 * Composable noise-channel tests: the legacy golden-distribution pin,
 * per-channel physics, RNG-stream isolation, order invariance, and the
 * trajectory-request validation contract.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "metrics/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/noise_channel.hpp"
#include "sim/trajectory.hpp"
#include "topology/topology.hpp"
#include "verify/differential.hpp"
#include "verify/noise_reference.hpp"
#include "verify/random_circuit.hpp"

namespace geyser {
namespace {

// ---- Shared fixtures ------------------------------------------------

uint64_t
bitsOf(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

double
marginalOne(const Distribution &p, int q)
{
    const size_t mask = size_t{1} << q;
    double one = 0.0;
    for (size_t i = 0; i < p.size(); ++i)
        if (i & mask)
            one += p[i];
    return one;
}

/** A model with every extended channel on (no crosstalk: no topology). */
NoiseModel
allChannelsModel()
{
    NoiseModel nm = NoiseModel::paperDefault();
    nm.ampDamping = 0.01;
    nm.idleDephasing = 0.002;
    nm.lossPerGate = 0.005;
    nm.correlatedPauli = 0.01;
    nm.readoutError = 0.02;
    return nm;
}

// ---- Golden regression: legacy model is bit-identical ---------------

const std::string kGoldenDir = GEYSER_NOISE_GOLDEN_DIR;

#ifndef __has_feature
#define __has_feature(x) 0
#endif

/**
 * The golden bits were captured on the release preset (-O2) with the
 * default kernel dispatch; that exact configuration — release ctest and
 * the CI noise-ablation `--golden` gate — must stay bit-identical.
 * Other codegen (sanitizer builds at -O1, or a forced GEYSER_BACKEND
 * override) contracts a*b+c differently in the gate-apply kernels and
 * legitimately drifts by a few ULPs, so those runs compare with a tiny
 * ULP tolerance instead: any real draw-order or adapter regression
 * shifts outcomes by ~1e-2, orders of magnitude beyond it.
 */
bool
strictBitIdentity()
{
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return false;
#else
    const char *env = std::getenv("GEYSER_BACKEND");
    return env == nullptr || *env == '\0';
#endif
}

uint64_t
ulpDistance(uint64_t a, uint64_t b)
{
    // Map the sign-magnitude double bit patterns onto a monotone
    // integer line so adjacent doubles differ by 1.
    const auto monotone = [](uint64_t bits) -> int64_t {
        const int64_t s = static_cast<int64_t>(bits);
        return s >= 0 ? s
                      : static_cast<int64_t>(0x8000000000000000ull - bits);
    };
    const int64_t da = monotone(a), db = monotone(b);
    return static_cast<uint64_t>(da > db ? da - db : db - da);
}

void
expectBitIdentical(const std::vector<uint64_t> &golden,
                   const Distribution &got, const std::string &name)
{
    ASSERT_EQ(golden.size(), got.size()) << name;
    const bool strict = strictBitIdentity();
    for (size_t i = 0; i < got.size(); ++i) {
        if (strict)
            EXPECT_EQ(golden[i], bitsOf(got[i]))
                << name << " diverges at outcome " << i;
        else
            EXPECT_LE(ulpDistance(golden[i], bitsOf(got[i])), 8u)
                << name << " diverges at outcome " << i << " (golden "
                << golden[i] << ", got " << bitsOf(got[i]) << ")";
    }
}

TEST(NoiseGolden, LegacyModelsBitIdenticalToPreRefactorCapture)
{
    // Six configurations captured from the simulator BEFORE the
    // NoiseSource refactor. The compatibility adapter must reproduce
    // every probability bit-for-bit; any drift here is a silent break
    // of the paper's published numbers.
    const auto golden =
        verify::loadNoiseReference(kGoldenDir + "/noise_legacy_golden.txt");
    const auto cases = verify::legacyNoiseCases();
    ASSERT_EQ(golden.size(), size_t{6});
    ASSERT_EQ(cases.size(), size_t{6});
    for (const auto &c : cases)
        expectBitIdentical(golden.at(c.name), c.run(), c.name);
}

TEST(NoiseReference, ExtendedChannelsMatchTheirCapture)
{
    // Extended-channel configurations captured before the quiet-gate
    // fold and the once-per-run readout: those re-associate the
    // arithmetic, so outcomes may move by rounding only.
    const auto captured = verify::loadNoiseReference(
        kGoldenDir + "/noise_extended_reference.txt");
    const auto cases = verify::extendedNoiseCases(kGoldenDir);
    ASSERT_EQ(captured.size(), cases.size());
    double worst = 0.0;
    for (const auto &c : cases) {
        const auto &bits = captured.at(c.name);
        const Distribution got = c.run();
        ASSERT_EQ(bits.size(), got.size()) << c.name;
        for (size_t i = 0; i < got.size(); ++i) {
            double want;
            std::memcpy(&want, &bits[i], sizeof want);
            EXPECT_NEAR(got[i], want, verify::kExtendedReferenceTolerance)
                << c.name << " outcome " << i;
            worst = std::max(worst, std::abs(got[i] - want));
        }
    }
    RecordProperty("max_abs_delta", std::to_string(worst));
}

// ---- StreamRng ------------------------------------------------------

TEST(StreamRng, SameKeySameSequence)
{
    StreamRng a(42, NoiseChannelId::AmpDamping, 7);
    StreamRng b(42, NoiseChannelId::AmpDamping, 7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(StreamRng, DistinctKeysDecorrelate)
{
    StreamRng base(42, NoiseChannelId::AmpDamping, 7);
    StreamRng otherSeed(43, NoiseChannelId::AmpDamping, 7);
    StreamRng otherChannel(42, NoiseChannelId::ReadoutError, 7);
    StreamRng otherEvent(42, NoiseChannelId::AmpDamping, 8);
    const double u = base.uniform();
    EXPECT_NE(u, otherSeed.uniform());
    EXPECT_NE(u, otherChannel.uniform());
    EXPECT_NE(u, otherEvent.uniform());
}

TEST(StreamRng, UniformStaysInUnitInterval)
{
    StreamRng rng(1, NoiseChannelId::IdleDephasing, kShotEventIndex);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        const int k = rng.uniformInt(5);
        EXPECT_GE(k, 0);
        EXPECT_LT(k, 5);
    }
}

// ---- Per-channel physics --------------------------------------------

TEST(AmpDamping, CertainDampingCollapsesToGround)
{
    // gamma = 1 makes the jump probability equal P(q = 1) = 1 after an
    // X, so every trajectory relaxes back to |0>.
    Circuit c(1);
    c.x(0);
    TrajectoryConfig cfg{8, 11, false, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::AmpDamping, 1.0), cfg);
    EXPECT_NEAR(p[0], 1.0, 1e-12);
    EXPECT_NEAR(p[1], 0.0, 1e-12);
}

TEST(AmpDamping, JumpRateMatchesGamma)
{
    // One X then a damping step with gamma = 0.25: survive |1> with
    // probability 0.75.
    Circuit c(1);
    c.x(0);
    TrajectoryConfig cfg{20000, 13, true, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::AmpDamping, 0.25),
        cfg);
    EXPECT_NEAR(p[1], 0.75, 0.02);
}

TEST(AmpDamping, PreservesNormalization)
{
    const Circuit c = verify::randomPhysicalCircuit(3, 16, 555);
    TrajectoryConfig cfg{64, 17, false, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::AmpDamping, 0.1), cfg);
    double sum = 0.0;
    for (const double v : p)
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(IdleDephasing, RequiresPhysicalCircuit)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    TrajectoryConfig cfg{32, 19, false, nullptr};
    EXPECT_THROW(
        noisyDistribution(
            c, NoiseModel::singleChannel(NoiseChannelId::IdleDephasing, 0.1),
            cfg),
        ValidationError);
}

TEST(IdleDephasing, DephasesQubitThatSitsIdle)
{
    // q0 goes to |+>, then waits 8 pulses while q1/q2 run three CZs,
    // then interferes back. At a saturating rate the idle window is a
    // p = 1/2 phase flip, so the ideally-deterministic |0> output
    // becomes a coin toss.
    const double kH = 1.5707963267948966;
    Circuit c(3);
    c.u3(0, kH, 0.0, 3.141592653589793);
    c.cz(1, 2);
    c.cz(1, 2);
    c.cz(1, 2);
    c.cz(0, 1);
    c.u3(0, kH, 0.0, 3.141592653589793);
    TrajectoryConfig cfg{4000, 23, true, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::IdleDephasing, 10.0),
        cfg);
    EXPECT_NEAR(marginalOne(p, 0), 0.5, 0.03);
}

TEST(IdleDephasing, NoIdleTimeNoEffect)
{
    // Back-to-back gates on one qubit accumulate zero idle pulses, so
    // even a saturating rate changes nothing.
    const double kH = 1.5707963267948966;
    Circuit c(1);
    c.u3(0, kH, 0.0, 3.141592653589793);
    c.u3(0, kH, 0.0, 3.141592653589793);
    TrajectoryConfig cfg{64, 29, false, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::IdleDephasing, 10.0),
        cfg);
    EXPECT_NEAR(p[0], 1.0, 1e-12);
}

TEST(AtomLoss, CertainLossDepolarizesTouchedQubitsExactly)
{
    // lossPerGate = 1 loses q0 and q1 right before their first gates;
    // q2 has no gates and is never at risk. One trajectory suffices:
    // the lost marginals are *exactly* uniform (engine-level readout
    // depolarization), the untouched qubit is exactly ideal.
    Circuit c(3);
    c.h(0);
    c.x(1);
    TrajectoryConfig cfg{1, 31, false, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::AtomLossTracking, 1.0),
        cfg);
    EXPECT_DOUBLE_EQ(marginalOne(p, 0), 0.5);
    EXPECT_DOUBLE_EQ(marginalOne(p, 1), 0.5);
    EXPECT_DOUBLE_EQ(marginalOne(p, 2), 0.0);
    // Joint structure: uniform over the lost pair, pinned q2 = 0.
    for (size_t i = 0; i < p.size(); ++i)
        EXPECT_DOUBLE_EQ(p[i], (i & 4) ? 0.0 : 0.25) << "outcome " << i;
}

TEST(AtomLoss, StrikesMidCircuit)
{
    // x; x on one qubit with per-gate loss 0.3. Pre-shot loss could
    // only mix {ideal |0>, depolarized}: p(1) = 0.15. Mid-circuit loss
    // can also strike between the two X gates (freezing the qubit in
    // |1> before depolarized readout): p(1) = 0.3*0.5 + 0.7*0.3*0.5
    // = 0.255 — distinguishable from any pre-shot rate at this seed.
    Circuit c(1);
    c.x(0);
    c.x(0);
    TrajectoryConfig cfg{20000, 37, true, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::AtomLossTracking, 0.3),
        cfg);
    EXPECT_NEAR(p[1], 0.255, 0.02);
}

TEST(CorrelatedPauli, OnlyFiresOnEntanglingGates)
{
    Circuit c(2);
    c.u3(0, 0.3, 0.2, 0.1);
    c.u3(1, 0.7, 0.4, 0.5);
    TrajectoryConfig cfg{32, 41, false, nullptr};
    const auto noisy = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::CorrelatedPauli, 1.0),
        cfg);
    const auto ideal = idealDistribution(c);
    for (size_t i = 0; i < noisy.size(); ++i)
        EXPECT_NEAR(noisy[i], ideal[i], 1e-12);
}

TEST(CorrelatedPauli, DrawsUniformNonIdentityPairs)
{
    // CZ on |00> is the identity, so any deviation is the injected
    // pair. Of the 15 non-identity pairs, exactly the 3 in {I,Z}x{I,Z}
    // leave both bits at zero: p(00) = 3/15 = 0.2 at rate 1.
    Circuit c(2);
    c.cz(0, 1);
    TrajectoryConfig cfg{30000, 43, true, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::CorrelatedPauli, 1.0),
        cfg);
    EXPECT_NEAR(p[0], 0.2, 0.015);
}

TEST(Readout, AppliesExactConfusionMatrix)
{
    Circuit c(1);
    c.x(0);
    TrajectoryConfig cfg{16, 47, false, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::ReadoutError, 0.1),
        cfg);
    EXPECT_NEAR(p[0], 0.1, 1e-12);
    EXPECT_NEAR(p[1], 0.9, 1e-12);
}

TEST(Readout, ComposesAsLinearMapOverLegacyNoise)
{
    // Readout is a deterministic linear transform, so adding it to the
    // legacy model must give exactly the confusion matrix applied to
    // the legacy-only distribution (same seed): the legacy channel's
    // draws are untouched by the extra channel.
    const Circuit c = verify::noiseLogicalProbe();
    TrajectoryConfig cfg{64, 53, false, nullptr};
    const auto base =
        noisyDistribution(c, NoiseModel::paperDefault(), cfg);
    NoiseModel withReadout = NoiseModel::paperDefault();
    withReadout.readoutError = 0.07;
    const auto got = noisyDistribution(c, withReadout, cfg);

    Distribution expected = base;
    for (int q = 0; q < c.numQubits(); ++q) {
        const size_t mask = size_t{1} << q;
        for (size_t i = 0; i < expected.size(); ++i) {
            if (i & mask)
                continue;
            const double p0 = expected[i];
            const double p1 = expected[i | mask];
            expected[i] = 0.93 * p0 + 0.07 * p1;
            expected[i | mask] = 0.07 * p0 + 0.93 * p1;
        }
    }
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got[i], expected[i], 1e-12);
}

// ---- RNG-stream isolation and composition ---------------------------

TEST(StreamIsolation, DormantChannelDoesNotPerturbLegacyDraws)
{
    // An enabled-but-never-firing extended channel draws only from its
    // own keyed stream, so the legacy sequential draws — and therefore
    // the whole distribution — are bit-identical. Under a shared
    // sequential RNG this test fails.
    const Circuit c = verify::noiseLogicalProbe();
    TrajectoryConfig cfg{64, 59, false, nullptr};
    const auto base =
        noisyDistribution(c, NoiseModel::paperDefault(), cfg);
    NoiseModel withDormantLoss = NoiseModel::paperDefault();
    withDormantLoss.lossPerGate = 1e-300;  // Draws, never fires.
    const auto got = noisyDistribution(c, withDormantLoss, cfg);
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(bitsOf(base[i]), bitsOf(got[i])) << "outcome " << i;
}

TEST(ChannelOrder, ReversedRegistrationIsBitExact)
{
    const Circuit c = verify::noisePhysicalProbe();
    const NoiseModel nm = allChannelsModel();
    TrajectoryConfig cfg{32, 61, false, nullptr};
    const auto forward = noisyDistribution(c, nm, cfg);
    TrajectoryConfig reversed = cfg;
    reversed.reverseChannelOrder = true;
    const auto backward = noisyDistribution(c, nm, reversed);
    for (size_t i = 0; i < forward.size(); ++i)
        EXPECT_EQ(bitsOf(forward[i]), bitsOf(backward[i]))
            << "outcome " << i;
}

TEST(ChannelOrder, InvariantOnRandomPhysicalCircuits)
{
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        const Circuit c = verify::randomPhysicalCircuit(4, 24, seed);
        const NoiseModel probe =
            verify::allChannelProbeModel(c, NoiseModel::paperDefault());
        EXPECT_EQ(verify::channelOrderGap(c, probe, 12, 1000 + seed), 0.0)
            << "seed " << seed;
    }
}

TEST(Parallelism, SerialMatchesParallelWithEveryChannelEnabled)
{
    // Chunked accumulation makes serial and parallel runs bit-identical
    // even with all six channels (plus crosstalk and per-pulse scaling)
    // live.
    const auto topo = Topology::makeTriangular(2, 2);
    NoiseModel nm = allChannelsModel();
    nm.bitFlip = 0.002;
    nm.phaseFlip = 0.0015;
    nm.perPulse = true;
    nm.atomLoss = 0.05;
    nm.crosstalkPhase = 0.1;
    const Circuit c = verify::noisePhysicalProbe();
    TrajectoryConfig serial{64, 67, false, &topo};
    TrajectoryConfig parallel{64, 67, true, &topo};
    const auto ps = noisyDistribution(c, nm, serial);
    const auto pp = noisyDistribution(c, nm, parallel);
    for (size_t i = 0; i < ps.size(); ++i)
        EXPECT_EQ(bitsOf(ps[i]), bitsOf(pp[i])) << "outcome " << i;
}

/** Every extended channel on, legacy off: the model the fold serves. */
NoiseModel
extendedOnlyModel()
{
    NoiseModel nm = allChannelsModel();
    nm.bitFlip = 0.0;
    nm.phaseFlip = 0.0;
    return nm;
}

/** sim.fused_gates added by one noisyDistribution call. */
long
fusedGatesOf(const Circuit &c, const NoiseModel &nm,
             const TrajectoryConfig &cfg, Distribution *out = nullptr)
{
    obs::EnabledScope scope(true);
    auto &fused = obs::counter("sim.fused_gates");
    const long before = fused.value();
    const Distribution p = noisyDistribution(c, nm, cfg);
    if (out != nullptr)
        *out = p;
    return fused.value() - before;
}

TEST(ChannelOrder, ReversedRegistrationIsBitExactWithLegacyOff)
{
    // With the legacy channel off most gates take the folded path; the
    // quiet decision reads every source, so it cannot depend on order.
    for (const Circuit &c : {verify::noisePhysicalProbe(),
                             verify::randomPhysicalCircuit(5, 40, 71)}) {
        const NoiseModel nm = extendedOnlyModel();
        TrajectoryConfig cfg{48, 63, false, nullptr};
        Distribution forward, backward;
        EXPECT_GT(fusedGatesOf(c, nm, cfg, &forward), 0);
        TrajectoryConfig reversed = cfg;
        reversed.reverseChannelOrder = true;
        EXPECT_GT(fusedGatesOf(c, nm, reversed, &backward), 0);
        for (size_t i = 0; i < forward.size(); ++i)
            EXPECT_EQ(bitsOf(forward[i]), bitsOf(backward[i]))
                << "outcome " << i;
    }
}

TEST(Parallelism, SerialMatchesParallelWithLegacyOff)
{
    const Circuit c = verify::randomPhysicalCircuit(5, 40, 73);
    NoiseModel nm = extendedOnlyModel();
    nm.ampDamping = 0.05;
    TrajectoryConfig serial{64, 69, false, nullptr};
    TrajectoryConfig parallel{64, 69, true, nullptr};
    Distribution ps, pp;
    const long fusedSerial = fusedGatesOf(c, nm, serial, &ps);
    const long fusedParallel = fusedGatesOf(c, nm, parallel, &pp);
    EXPECT_GT(fusedSerial, 0);
    EXPECT_EQ(fusedSerial, fusedParallel);
    for (size_t i = 0; i < ps.size(); ++i)
        EXPECT_EQ(bitsOf(ps[i]), bitsOf(pp[i])) << "outcome " << i;
}

TEST(QuietFold, CountsEveryQuietGateAndNoLegacyGate)
{
    // Damping that never fires: every gate of the physical probe (U3,
    // CZ, CCZ) is quiet and has a folded form. With the legacy channel
    // on, no gate is.
    const Circuit c = verify::noisePhysicalProbe();
    TrajectoryConfig cfg{32, 79, true, nullptr};
    const NoiseModel dormant =
        NoiseModel::singleChannel(NoiseChannelId::AmpDamping, 1e-300);
    EXPECT_EQ(fusedGatesOf(c, dormant, cfg),
              32 * static_cast<long>(c.size()));
    NoiseModel legacy = NoiseModel::paperDefault();
    legacy.ampDamping = 1e-300;
    EXPECT_EQ(fusedGatesOf(c, legacy, cfg), 0);
}

TEST(QuietFold, LogicalGatesWithoutAFoldedFormTakeTheHookPath)
{
    // CX and CCX have no folded form; H and RZ (one-qubit) do.
    const Circuit c = verify::noiseLogicalProbe();
    TrajectoryConfig cfg{16, 83, false, nullptr};
    long foldable = 0;
    for (const Gate &g : c.gates())
        foldable += StateVector::fusesNoJump(g) ? 1 : 0;
    ASSERT_LT(foldable, static_cast<long>(c.size()));
    EXPECT_EQ(fusedGatesOf(c,
                           NoiseModel::singleChannel(
                               NoiseChannelId::AmpDamping, 1e-300),
                           cfg),
              16 * foldable);
}

/** A 3-qubit state with every amplitude nonzero and distinct. */
StateVector
genericState()
{
    StateVector sv(3);
    sv.apply(Gate(GateKind::U3, 0, 0.7, 0.2, -0.4));
    sv.apply(Gate(GateKind::U3, 1, 1.1, -0.3, 0.5));
    sv.apply(Gate(GateKind::U3, 2, 2.3, 0.6, 0.1));
    sv.apply(Gate(GateKind::CZ, 0, 2));
    sv.apply(Gate(GateKind::U3, 0, 0.4, 0.9, 0.3));
    return sv;
}

TEST(QuietFold, QuietHoldsExactlyWhenOnGateIsQuiet)
{
    // For each source and many (seed, gate index) keys: an injection
    // source is quiet exactly when onGate leaves a generic state bit
    // for bit and counts nothing; damping is quiet exactly when onGate
    // is the plain no-jump step on every operand (checked on a generic
    // state) and jumps on none (checked on |111>, where every draw
    // below gamma jumps).
    NoiseModel nm = NoiseModel::noiseless();
    nm.ampDamping = 0.3;
    nm.idleDephasing = 0.5;
    nm.lossPerGate = 0.3;
    nm.correlatedPauli = 0.4;
    nm.readoutError = 0.1;
    const auto sources = buildNoiseSources(nm);
    ASSERT_EQ(sources.size(), size_t{5});
    const Gate gates[] = {Gate(GateKind::U3, 1, 0.3, 0.2, 0.1),
                          Gate(GateKind::CZ, 0, 2),
                          Gate(GateKind::CCZ, 0, 1, 2)};
    const std::array<long, 3> idle{{4, 4, 4}};
    const StateVector generic = genericState();
    std::map<std::string, std::array<int, 2>> seen;  // [quiet, loud]
    for (const auto &src : sources) {
        for (uint64_t seed = 1; seed <= 60; ++seed) {
            for (size_t index = 0; index < 6; ++index) {
                for (const Gate &g : gates) {
                    GateEvent ev;
                    ev.gate = &g;
                    ev.index = index;
                    ev.idlePulses = &idle;
                    ShotContext ctx(seed, 3);
                    const bool quiet = src->quietAt(ev, ctx);
                    ++seen[src->name()][quiet ? 0 : 1];

                    StateVector sv = generic;
                    src->onGate(sv, ev, ctx);
                    uint64_t events = 0;
                    for (const uint64_t e : ctx.events)
                        events += e;
                    StateVector expected = generic;
                    if (src->isRelaxation()) {
                        for (int i = 0; i < g.numQubits(); ++i)
                            expected.applyAmplitudeDamping(g.qubit(i), 0.3,
                                                           0.3);
                        ShotContext excited(seed, 3);
                        StateVector ones(3, 0b111);
                        src->onGate(ones, ev, excited);
                        EXPECT_EQ(quiet, excited.events[static_cast<size_t>(
                                          NoiseChannelId::AmpDamping)] == 0)
                            << src->name() << " seed " << seed;
                    }
                    const bool same =
                        events == 0 &&
                        std::memcmp(sv.amplitudes().data(),
                                    expected.amplitudes().data(),
                                    sv.dim() * sizeof(Complex)) == 0;
                    if (src->isRelaxation())
                        EXPECT_TRUE(!quiet || same)
                            << src->name() << " seed " << seed;
                    else
                        EXPECT_EQ(quiet, same)
                            << src->name() << " seed " << seed
                            << " index " << index << " " << g.toString();
                }
            }
        }
    }
    // Both answers came up for the channels whose onGate can act.
    EXPECT_GT(seen["amp-damp"][0], 0);
    EXPECT_GT(seen["amp-damp"][1], 0);
    EXPECT_GT(seen["correlated-pauli"][0], 0);
    EXPECT_GT(seen["correlated-pauli"][1], 0);
}

TEST(QuietFold, LegacyAdapterIsNeverQuiet)
{
    const auto sources = buildNoiseSources(NoiseModel::paperDefault());
    ASSERT_EQ(sources.size(), size_t{1});
    const Gate g(GateKind::U3, 0, 0.3, 0.2, 0.1);
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        GateEvent ev;
        ev.gate = &g;
        ev.index = seed;
        ShotContext ctx(seed, 1);
        EXPECT_FALSE(sources[0]->quietAt(ev, ctx));
    }
}

TEST(Readout, CountsOneEventPerShotReadOut)
{
    // The confusion matrix acts once on the averaged distribution, but
    // sim.noise.readout_events still counts the shots it read out.
    Circuit c(2);
    c.h(0);
    obs::EnabledScope scope(true);
    auto &events = obs::counter("sim.noise.readout_events");
    const long before = events.value();
    TrajectoryConfig cfg{40, 89, true, nullptr};
    noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::ReadoutError, 0.05),
        cfg);
    EXPECT_EQ(events.value() - before, 40);
}

TEST(VerifyChannels, TrajectoryEngineMatchesStatevectorWhenChannelsOff)
{
    for (uint64_t seed = 10; seed <= 12; ++seed) {
        const Circuit c = verify::randomLogicalCircuit(4, 20, seed);
        EXPECT_LE(verify::channelsOffGap(c, seed), 1e-12)
            << "seed " << seed;
    }
}

// ---- Validation contract (trajectory-request bugfixes) --------------

TEST(Validation, RejectsNonPositiveTrajectoryCounts)
{
    Circuit c(1);
    c.h(0);
    TrajectoryConfig zero{0, 3, false, nullptr};
    EXPECT_THROW(noisyDistribution(c, NoiseModel::paperDefault(), zero),
                 ValidationError);
    TrajectoryConfig negative{-5, 3, false, nullptr};
    EXPECT_THROW(noisyDistribution(c, NoiseModel::paperDefault(), negative),
                 ValidationError);
}

TEST(Validation, RejectsPerPulseNoiseOnLogicalGates)
{
    // perPulse noise on a pulse-less logical gate used to silently
    // yield a zero error probability; it is a validation error naming
    // the offending gate now.
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    NoiseModel nm = NoiseModel::paperDefault();
    nm.perPulse = true;
    TrajectoryConfig cfg{32, 5, false, nullptr};
    try {
        noisyDistribution(c, nm, cfg);
        FAIL() << "expected ValidationError";
    } catch (const ValidationError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("perPulse"), std::string::npos) << what;
        EXPECT_NE(what.find("gate #0"), std::string::npos) << what;
    }
}

TEST(Validation, ForcedNoiselessRunCollapsesToOneShot)
{
    // A noiseless model with forceTrajectories used to burn the full
    // trajectory budget on identical shots; it runs exactly one now.
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    obs::EnabledScope scope(true);
    auto &runs = obs::counter("sim.trajectories_run");
    const long before = runs.value();
    TrajectoryConfig cfg{200, 7, false, nullptr};
    cfg.forceTrajectories = true;
    const auto p = noisyDistribution(c, NoiseModel::noiseless(), cfg);
    EXPECT_EQ(runs.value() - before, 1);
    const auto ideal = idealDistribution(c);
    for (size_t i = 0; i < p.size(); ++i)
        EXPECT_NEAR(p[i], ideal[i], 1e-12);
}

// ---- Channel-name plumbing ------------------------------------------

TEST(ChannelNames, RoundTripAndRejectUnknown)
{
    const auto &names = noiseChannelNames();
    ASSERT_EQ(names.size(), kNumNoiseChannels);
    for (size_t i = 0; i < names.size(); ++i) {
        const auto id = static_cast<NoiseChannelId>(i);
        EXPECT_EQ(noiseChannelName(id), names[i]);
        EXPECT_EQ(noiseChannelFromName(names[i]), id);
    }
    EXPECT_THROW(noiseChannelFromName("thermal-hop"), ValidationError);
}

TEST(ChannelNames, SetChannelRateValidatesAndTargetsOneField)
{
    NoiseModel nm = NoiseModel::noiseless();
    nm.setChannelRate(NoiseChannelId::LegacyPauli, 0.01);
    EXPECT_EQ(nm.bitFlip, 0.01);
    EXPECT_EQ(nm.phaseFlip, 0.01);
    nm.setChannelRate(NoiseChannelId::ReadoutError, 0.05);
    EXPECT_EQ(nm.readoutError, 0.05);
    EXPECT_EQ(nm.ampDamping, 0.0);
    EXPECT_THROW(nm.setChannelRate(NoiseChannelId::AmpDamping, -0.1),
                 ValidationError);
    EXPECT_THROW(nm.setChannelRate(NoiseChannelId::AmpDamping, 1.5),
                 ValidationError);
    // Idle dephasing is a rate per pulse, not a probability: values
    // above 1 are meaningful (the flip probability saturates at 1/2).
    nm.setChannelRate(NoiseChannelId::IdleDephasing, 10.0);
    EXPECT_EQ(nm.idleDephasing, 10.0);
    EXPECT_THROW(nm.setChannelRate(NoiseChannelId::IdleDephasing, -1.0),
                 ValidationError);
    EXPECT_THROW(nm.setChannelRate(NoiseChannelId::AmpDamping,
                                   std::nan("")),
                 ValidationError);
    const NoiseModel single =
        NoiseModel::singleChannel(NoiseChannelId::CorrelatedPauli, 0.3);
    EXPECT_TRUE(single.legacyNoiseless());
    EXPECT_EQ(single.correlatedPauli, 0.3);
}

}  // namespace
}  // namespace geyser
