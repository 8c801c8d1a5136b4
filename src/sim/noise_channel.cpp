#include "sim/noise_channel.hpp"

#include <cmath>

namespace geyser {

namespace {

constexpr uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ull;

/** The splitmix64 output mix (Steele/Lea/Flood). */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

StreamRng::StreamRng(uint64_t shot_seed, NoiseChannelId channel,
                     uint64_t event_index)
{
    // Fold the three key parts through the mixer so that nearby keys
    // (consecutive gates, adjacent channels) land in unrelated states.
    uint64_t s = mix64(shot_seed + kSplitMixGamma);
    s = mix64(s ^ (static_cast<uint64_t>(channel) + kSplitMixGamma));
    s = mix64(s ^ (event_index + kSplitMixGamma));
    state_ = s;
}

uint64_t
StreamRng::next64()
{
    state_ += kSplitMixGamma;
    return mix64(state_);
}

double
StreamRng::uniform()
{
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

int
StreamRng::uniformInt(int n)
{
    return static_cast<int>(next64() % static_cast<uint64_t>(n));
}

namespace {

/**
 * The paper's Sec-4 model plus its Sec-6 extensions, replaying the
 * pre-refactor draw order on the sequential per-shot RNG: (1) pre-shot
 * loss sampling when atomLoss > 0, (2) per fired gate, a bit-flip then
 * a phase-flip Bernoulli per operand — including zero-probability
 * draws whenever any legacy field is nonzero, exactly like the
 * pre-refactor simulator — then (3) a crosstalk Bernoulli per zone atom.
 * Sequential draws cannot be previewed without being consumed, so it
 * keeps the default quietAt (never quiet): legacy models always take
 * the hook path.
 */
class LegacyPauliAdapter final : public NoiseSource
{
  public:
    explicit LegacyPauliAdapter(const NoiseModel &model)
        : model_(model), drawsFlips_(!model.legacyNoiseless())
    {
    }

    NoiseChannelId id() const override
    {
        return NoiseChannelId::LegacyPauli;
    }

    void onShotStart(ShotContext &ctx) const override
    {
        if (model_.atomLoss <= 0.0)
            return;
        for (Qubit q = 0; q < ctx.numQubits; ++q) {
            if (ctx.legacyRng.bernoulli(model_.atomLoss)) {
                ctx.markLost(q);
                ctx.countEvent(id());
            }
        }
    }

    void onGate(StateVector &sv, const GateEvent &ev,
                ShotContext &ctx) const override
    {
        const Gate &g = *ev.gate;
        if (drawsFlips_) {
            const double pb = model_.bitFlipFor(g);
            const double pp = model_.phaseFlipFor(g);
            for (int i = 0; i < g.numQubits(); ++i) {
                const Qubit q = g.qubit(i);
                if (ctx.legacyRng.bernoulli(pb)) {
                    sv.applyX(q);
                    ctx.countEvent(id());
                }
                if (ctx.legacyRng.bernoulli(pp)) {
                    sv.applyZ(q);
                    ctx.countEvent(id());
                }
            }
        }
        if (ev.zone != nullptr && g.numQubits() >= 2) {
            for (const int z : *ev.zone) {
                if (ctx.legacyRng.bernoulli(model_.crosstalkPhase)) {
                    sv.applyZ(z);
                    ctx.countEvent(id());
                }
            }
        }
    }

  private:
    NoiseModel model_;
    bool drawsFlips_;
};

/** T1 decay as quantum jumps, one damping step per operand per gate. */
class AmpDampingSource final : public NoiseSource
{
  public:
    explicit AmpDampingSource(double gamma) : gamma_(gamma) {}

    NoiseChannelId id() const override { return NoiseChannelId::AmpDamping; }

    bool isRelaxation() const override { return true; }

    void onGate(StateVector &sv, const GateEvent &ev,
                ShotContext &ctx) const override
    {
        StreamRng rng(ctx.shotSeed, id(), ev.index);
        const Gate &g = *ev.gate;
        for (int i = 0; i < g.numQubits(); ++i) {
            if (sv.applyAmplitudeDamping(g.qubit(i), gamma_, rng.uniform()))
                ctx.countEvent(id());
        }
    }

    /** Every operand's draw is u >= gamma: a sure no-jump step each. */
    bool quietAt(const GateEvent &ev, const ShotContext &ctx) const override
    {
        StreamRng rng(ctx.shotSeed, id(), ev.index);
        for (int i = 0; i < ev.gate->numQubits(); ++i)
            if (rng.uniform() < gamma_)
                return false;
        return true;
    }

  private:
    double gamma_;
};

/** Z errors with probability 0.5*(1 - exp(-rate * idlePulses)). */
class IdleDephasingSource final : public NoiseSource
{
  public:
    explicit IdleDephasingSource(double rate) : rate_(rate) {}

    NoiseChannelId id() const override
    {
        return NoiseChannelId::IdleDephasing;
    }

    void onIdle(StateVector &sv, const GateEvent &ev,
                ShotContext &ctx) const override
    {
        if (ev.idlePulses == nullptr)
            return;
        StreamRng rng(ctx.shotSeed, id(), ev.index);
        const Gate &g = *ev.gate;
        for (int i = 0; i < g.numQubits(); ++i) {
            const long t = (*ev.idlePulses)[static_cast<size_t>(i)];
            if (t <= 0)
                continue;
            const double p =
                0.5 * (1.0 - std::exp(-rate_ * static_cast<double>(t)));
            if (rng.bernoulli(p)) {
                sv.applyZ(g.qubit(i));
                ctx.countEvent(id());
            }
        }
    }

    /** Acts in onIdle only. */
    bool quietAt(const GateEvent &, const ShotContext &) const override
    {
        return true;
    }

  private:
    double rate_;
};

/** Mid-circuit loss: any operand can drop out right before its gate. */
class AtomLossTrackingSource final : public NoiseSource
{
  public:
    explicit AtomLossTrackingSource(double per_gate) : perGate_(per_gate) {}

    NoiseChannelId id() const override
    {
        return NoiseChannelId::AtomLossTracking;
    }

    void onGateStart(const GateEvent &ev, ShotContext &ctx) const override
    {
        StreamRng rng(ctx.shotSeed, id(), ev.index);
        const Gate &g = *ev.gate;
        for (int i = 0; i < g.numQubits(); ++i) {
            const Qubit q = g.qubit(i);
            if (ctx.isLost(q))
                continue;
            if (rng.bernoulli(perGate_)) {
                ctx.markLost(q);
                ctx.countEvent(id());
            }
        }
    }

    /** Acts in onGateStart only. */
    bool quietAt(const GateEvent &, const ShotContext &) const override
    {
        return true;
    }

  private:
    double perGate_;
};

/** Joint Pauli pairs on entangling gates (Rydberg-blockade errors). */
class CorrelatedPauliSource final : public NoiseSource
{
  public:
    explicit CorrelatedPauliSource(double rate) : rate_(rate) {}

    NoiseChannelId id() const override
    {
        return NoiseChannelId::CorrelatedPauli;
    }

    void onGate(StateVector &sv, const GateEvent &ev,
                ShotContext &ctx) const override
    {
        const Gate &g = *ev.gate;
        if (!g.isEntangling())
            return;
        StreamRng rng(ctx.shotSeed, id(), ev.index);
        if (!rng.bernoulli(rate_))
            return;
        // Pick the affected pair: the operands for a two-qubit gate,
        // one of the three pairs uniformly for a CCZ/CCX.
        int ai = 0, bi = 1;
        if (g.numQubits() == 3) {
            static constexpr int kPairs[3][2] = {{0, 1}, {0, 2}, {1, 2}};
            const int pick = rng.uniformInt(3);
            ai = kPairs[pick][0];
            bi = kPairs[pick][1];
        }
        // Uniform non-identity Pauli pair: index 1..15 as (P_a, P_b)
        // base-4 digits, 0=I 1=X 2=Y 3=Z.
        const int joint = 1 + rng.uniformInt(15);
        applyPauli(sv, g.qubit(ai), joint >> 2);
        applyPauli(sv, g.qubit(bi), joint & 3);
        ctx.countEvent(id());
    }

    /** onGate's first draw: whether a pair fires at all. */
    bool quietAt(const GateEvent &ev, const ShotContext &ctx) const override
    {
        if (!ev.gate->isEntangling())
            return true;
        StreamRng rng(ctx.shotSeed, id(), ev.index);
        return !rng.bernoulli(rate_);
    }

  private:
    static void applyPauli(StateVector &sv, Qubit q, int pauli)
    {
        switch (pauli) {
          case 1:
            sv.applyX(q);
            break;
          case 2:
            sv.applyY(q);
            break;
          case 3:
            sv.applyZ(q);
            break;
          default:
            break;
        }
    }

    double rate_;
};

/**
 * Symmetric per-qubit measurement confusion matrix, applied exactly,
 * once per run: it is linear and the same for every shot, so applying
 * it to the average equals averaging the confused shots.
 */
class ReadoutErrorSource final : public NoiseSource
{
  public:
    explicit ReadoutErrorSource(double flip) : flip_(flip) {}

    NoiseChannelId id() const override
    {
        return NoiseChannelId::ReadoutError;
    }

    bool quietAt(const GateEvent &, const ShotContext &) const override
    {
        return true;
    }

    /** Counts one event per shot read out. */
    uint64_t onReadout(Distribution &p, int num_qubits,
                       uint64_t shots) const override
    {
        for (Qubit q = 0; q < num_qubits; ++q) {
            const size_t mask = size_t{1} << q;
            for (size_t i = 0; i < p.size(); ++i) {
                if (i & mask)
                    continue;
                const double p0 = p[i];
                const double p1 = p[i | mask];
                p[i] = (1.0 - flip_) * p0 + flip_ * p1;
                p[i | mask] = flip_ * p0 + (1.0 - flip_) * p1;
            }
        }
        return shots;
    }

  private:
    double flip_;
};

}  // namespace

std::vector<std::unique_ptr<NoiseSource>>
buildNoiseSources(const NoiseModel &model)
{
    std::vector<std::unique_ptr<NoiseSource>> sources;
    if (!model.legacyNoiseless())
        sources.push_back(std::make_unique<LegacyPauliAdapter>(model));
    if (model.ampDamping > 0.0)
        sources.push_back(
            std::make_unique<AmpDampingSource>(model.ampDamping));
    if (model.idleDephasing > 0.0)
        sources.push_back(
            std::make_unique<IdleDephasingSource>(model.idleDephasing));
    if (model.lossPerGate > 0.0)
        sources.push_back(
            std::make_unique<AtomLossTrackingSource>(model.lossPerGate));
    if (model.correlatedPauli > 0.0)
        sources.push_back(
            std::make_unique<CorrelatedPauliSource>(model.correlatedPauli));
    if (model.readoutError > 0.0)
        sources.push_back(
            std::make_unique<ReadoutErrorSource>(model.readoutError));
    return sources;
}

}  // namespace geyser
