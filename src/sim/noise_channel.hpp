/**
 * @file
 * Composable noise channels for the trajectory simulator.
 *
 * Each channel is a `NoiseSource`: an object with hooks that the
 * trajectory engine calls at fixed points of a shot (shot start, before
 * a gate fires, after it fires, on idle time), plus once per run on the
 * averaged readout distribution. Per-shot
 * mutable state — the lost-atom set, per-channel event tallies, the
 * legacy sequential RNG — lives in a `ShotContext` owned by the engine,
 * so one `NoiseSource` instance is shared by every trajectory across
 * every worker thread without synchronization.
 *
 * RNG discipline: every extended channel draws from a `StreamRng`
 * keyed on (shotSeed, channelId, gateIndex) — a counter-derived
 * splitmix64 stream. Consequences, relied on by tests:
 *  - toggling channel B never changes channel A's draws (streams are
 *    keyed, not sequential), so per-channel ablations at one seed are
 *    directly comparable;
 *  - the distribution is invariant under the order channels are
 *    registered in (TrajectoryConfig::reverseChannelOrder flips the
 *    order; verify asserts bit-identity);
 *  - serial and parallel runs agree bit-for-bit (no draw depends on
 *    scheduling);
 *  - a source can re-derive a gate's draws before the gate fires
 *    (NoiseSource::quietAt), which lets the engine fold the no-jump
 *    damping step into the gate's own pass when nothing fires.
 *
 * The one exception is `LegacyPauliAdapter`: the paper's Sec-4/Sec-6
 * model predates this architecture and its published numbers are pinned
 * to a *sequential* per-shot mt19937_64 (`ShotContext::legacyRng`).
 * The adapter replays exactly the pre-refactor draw order — including
 * degenerate zero-probability draws — so `NoiseModel::paperDefault()`
 * distributions are bit-identical to the pre-refactor simulator
 * (tests/golden/noise_legacy_golden.txt). Being sequential, it cannot
 * answer quietAt without drawing, so it always answers "not quiet" and
 * a model with the legacy channel on never takes the folded path.
 */
#ifndef GEYSER_SIM_NOISE_CHANNEL_HPP
#define GEYSER_SIM_NOISE_CHANNEL_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "sim/noise.hpp"
#include "sim/statevector.hpp"

namespace geyser {

/**
 * Counter-derived random stream: the state is a hash of
 * (shotSeed, channelId, eventIndex) and draws advance it with the
 * splitmix64 sequence. Cheap to construct per event, statistically
 * independent across keys, and independent of how many draws any other
 * stream made.
 */
class StreamRng
{
  public:
    StreamRng(uint64_t shot_seed, NoiseChannelId channel,
              uint64_t event_index);

    /** Uniform double in [0, 1) with 53 random bits. */
    double uniform();

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p) { return uniform() < p; }

    /** Uniform integer in [0, n). Requires n > 0. */
    int uniformInt(int n);

  private:
    uint64_t next64();

    uint64_t state_;
};

/** Reserved event index for per-shot (not per-gate) draws. */
inline constexpr uint64_t kShotEventIndex = ~uint64_t{0};

/** Per-shot mutable state shared by the engine and every channel. */
struct ShotContext
{
    ShotContext(uint64_t shot_seed, int num_qubits)
        : shotSeed(shot_seed), numQubits(num_qubits), legacyRng(shot_seed)
    {
    }

    uint64_t shotSeed;
    int numQubits;
    /**
     * The pre-refactor sequential per-shot stream. Only the legacy
     * compatibility adapter may draw from it; extended channels use
     * StreamRng so they cannot perturb it.
     */
    Rng legacyRng;

    /** Lost-atom flags (lazily sized by markLost). */
    std::vector<char> lost;
    bool anyLost = false;

    /** Events applied per channel this shot (flips, jumps, losses...). */
    std::array<uint64_t, kNumNoiseChannels> events{};

    bool isLost(Qubit q) const
    {
        return anyLost && static_cast<size_t>(q) < lost.size() &&
               lost[static_cast<size_t>(q)] != 0;
    }

    void markLost(Qubit q)
    {
        if (lost.empty())
            lost.assign(static_cast<size_t>(numQubits), 0);
        lost[static_cast<size_t>(q)] = 1;
        anyLost = true;
    }

    void countEvent(NoiseChannelId id, uint64_t n = 1)
    {
        events[static_cast<size_t>(id)] += n;
    }
};

/** One gate occurrence, with the precomputed context channels need. */
struct GateEvent
{
    const Gate *gate = nullptr;
    /** Position in the circuit; keys per-gate RNG streams. */
    size_t index = 0;
    /**
     * Restriction-zone atoms of a multi-qubit gate (crosstalk), or
     * nullptr when crosstalk is off / the gate is single-qubit.
     */
    const std::vector<int> *zone = nullptr;
    /**
     * Idle pulses each operand accumulated since its previous gate
     * (ASAP schedule), or nullptr when idle dephasing is off.
     */
    const std::array<long, 3> *idlePulses = nullptr;
};

/**
 * One noise channel. Hooks default to no-ops; implementations override
 * the ones their physics needs. All hooks must be pure w.r.t. the
 * source object (const methods): per-shot state lives in ShotContext.
 */
class NoiseSource
{
  public:
    virtual ~NoiseSource() = default;

    /** Stable channel identity (keys the RNG stream and counters). */
    virtual NoiseChannelId id() const = 0;

    /** Channel name, for counters and reports. */
    const char *name() const { return noiseChannelName(id()); }

    /**
     * True for relaxation channels (amplitude damping): their onGate
     * action does not commute with Pauli injection, so the engine runs
     * them in a second, canonical phase after every injection channel.
     * With that grouping the composed per-gate map is independent of
     * the order sources are registered in — injection channels commute
     * with each other up to a global phase — which is the
     * order-invariance property the verifier asserts bit-exactly.
     */
    virtual bool isRelaxation() const { return false; }

    /** Once per shot, before any gate (pre-shot loss sampling). */
    virtual void onShotStart(ShotContext &ctx) const { (void)ctx; }

    /**
     * Before `ev.gate` fires (and before the engine decides whether it
     * fires at all): the place to sample mid-circuit atom loss.
     */
    virtual void onGateStart(const GateEvent &ev, ShotContext &ctx) const
    {
        (void)ev;
        (void)ctx;
    }

    /**
     * Idle time elapsing on the gate's operands just before it fires.
     * Only called for gates that actually fire.
     */
    virtual void onIdle(StateVector &sv, const GateEvent &ev,
                        ShotContext &ctx) const
    {
        (void)sv;
        (void)ev;
        (void)ctx;
    }

    /** After the gate's unitary was applied. */
    virtual void onGate(StateVector &sv, const GateEvent &ev,
                        ShotContext &ctx) const
    {
        (void)sv;
        (void)ev;
        (void)ctx;
    }

    /**
     * True when onGate at `ev` would be quiet: an injection channel
     * would leave the state and the tallies untouched, and a relaxation
     * channel would apply only its no-jump step (every damping draw
     * u >= gamma). Derived from the same keyed draws onGate makes, so
     * it never disturbs them. The engine folds the no-jump step into
     * the gate's own pass when every source is quiet. The default,
     * false, is always safe: the gate then takes the hook path.
     */
    virtual bool quietAt(const GateEvent &ev, const ShotContext &ctx) const
    {
        (void)ev;
        (void)ctx;
        return false;
    }

    /**
     * Transform the run's readout distribution (confusion matrices).
     * Called once per noisyDistribution, on the average of the
     * trajectories' distributions (each already depolarized for its
     * lost atoms), so only a map that is linear, the same for every
     * shot and commutes with that per-qubit symmetric depolarization
     * belongs here. Returns the events to count: one per shot read out.
     */
    virtual uint64_t onReadout(Distribution &p, int num_qubits,
                               uint64_t shots) const
    {
        (void)p;
        (void)num_qubits;
        (void)shots;
        return 0;
    }
};

/**
 * Instantiate one NoiseSource per enabled channel of `model`, in
 * NoiseChannelId order (legacy adapter first). The returned sources
 * borrow nothing from `model`; they are safe to use across threads for
 * the lifetime of the simulation.
 */
std::vector<std::unique_ptr<NoiseSource>>
buildNoiseSources(const NoiseModel &model);

}  // namespace geyser

#endif  // GEYSER_SIM_NOISE_CHANNEL_HPP
