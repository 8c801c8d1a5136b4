#include "sim/trajectory.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <string>

#include "circuit/schedule.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "metrics/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/noise_channel.hpp"

namespace geyser {

namespace {

/** Per-channel event tally accumulated across trajectories. */
using ChannelTally = std::array<uint64_t, kNumNoiseChannels>;

/** What one chunk of trajectories counted. */
struct ChunkTally
{
    ChannelTally events{};
    /** Gates whose no-jump damping step was folded into their pass. */
    uint64_t fusedGates = 0;
};

/** Precomputed per-circuit context shared by every trajectory. */
struct EngineContext
{
    /** Sources in application order (already reversed if requested). */
    std::vector<const NoiseSource *> sources;
    /** Restriction zones per gate (empty when crosstalk is off). */
    std::vector<std::vector<int>> zones;
    /** Idle pulses per gate operand (empty when idle dephasing off). */
    std::vector<std::array<long, 3>> idle;
    /**
     * Damping rate of the quiet-gate fold, 0 when damping is off. A
     * gate that fusesNoJump() and at which every source is quietAt()
     * takes one applyNoJumpFused pass instead of the hook path.
     */
    double foldGamma = 0.0;
    /** K0 * U per 1-qubit gate, for the fold (empty when it is off). */
    std::vector<std::array<Complex, 4>> k0u;
};

void
validateRequest(const Circuit &circuit, const NoiseModel &noise,
                const TrajectoryConfig &config)
{
    if (config.trajectories <= 0)
        throw ValidationError(
            "noisyDistribution: trajectory count must be positive (got " +
            std::to_string(config.trajectories) + ")");
    if (noise.crosstalkPhase > 0.0 && config.topology == nullptr)
        throw ValidationError(
            "noisyDistribution: crosstalkPhase > 0 requires a topology "
            "(restriction zones depend on atom positions); supply "
            "TrajectoryConfig::topology or disable the channel");
    const bool needsPulses = noise.perPulse && !noise.legacyNoiseless();
    const bool needsSchedule = noise.idleDephasing > 0.0;
    if (needsPulses || needsSchedule) {
        for (size_t gi = 0; gi < circuit.size(); ++gi) {
            const Gate &g = circuit.gates()[gi];
            if (g.isPhysical())
                continue;
            throw ValidationError(
                std::string("noisyDistribution: ") +
                (needsPulses ? "perPulse noise" : "idle dephasing") +
                " requires a physical circuit, but gate #" +
                std::to_string(gi) + " (" + g.toString() +
                ") has no pulse cost");
        }
    }
}

/**
 * Idle pulses accumulated by each operand of each gate before the gate
 * starts, from the ASAP schedule: a qubit that last finished at pulse
 * r and whose next gate starts at pulse s sat idle for s - r pulses.
 */
std::vector<std::array<long, 3>>
idleDurations(const Circuit &circuit)
{
    const Schedule sched = scheduleAsap(circuit);
    std::vector<std::array<long, 3>> idle(circuit.size(),
                                          {{0, 0, 0}});
    std::vector<long> readyAt(static_cast<size_t>(circuit.numQubits()), 0);
    for (size_t gi = 0; gi < circuit.size(); ++gi) {
        const Gate &g = circuit.gates()[gi];
        const long start = sched.start[gi];
        for (int i = 0; i < g.numQubits(); ++i) {
            const auto q = static_cast<size_t>(g.qubit(i));
            idle[gi][static_cast<size_t>(i)] = start - readyAt[q];
            readyAt[q] = start + g.pulses();
        }
    }
    return idle;
}

/** K0 * U for every 1-qubit gate: U's second row scaled by sqrt(1-g). */
std::vector<std::array<Complex, 4>>
foldedOneQubitMatrices(const Circuit &circuit, double gamma)
{
    const double s = std::sqrt(1.0 - gamma);
    std::vector<std::array<Complex, 4>> out(circuit.size());
    for (size_t gi = 0; gi < circuit.size(); ++gi) {
        const Gate &g = circuit.gates()[gi];
        if (g.numQubits() != 1)
            continue;
        const Matrix u = g.matrix();
        out[gi] = {u(0, 0), u(0, 1), s * u(1, 0), s * u(1, 1)};
    }
    return out;
}

bool
quietGate(const EngineContext &engine, const GateEvent &ev,
          const ShotContext &ctx)
{
    for (const NoiseSource *s : engine.sources)
        if (!s->quietAt(ev, ctx))
            return false;
    return true;
}

void
accumulateTrajectory(const Circuit &circuit, const EngineContext &engine,
                     uint64_t seed, Distribution &acc, ChunkTally &tally)
{
    ShotContext ctx(seed, circuit.numQubits());
    for (const NoiseSource *s : engine.sources)
        s->onShotStart(ctx);

    StateVector sv(circuit.numQubits());
    for (size_t gi = 0; gi < circuit.size(); ++gi) {
        const Gate &g = circuit.gates()[gi];
        GateEvent ev;
        ev.gate = &g;
        ev.index = gi;
        ev.zone = engine.zones.empty() ? nullptr : &engine.zones[gi];
        ev.idlePulses = engine.idle.empty() ? nullptr : &engine.idle[gi];
        for (const NoiseSource *s : engine.sources)
            s->onGateStart(ev, ctx);
        if (ctx.anyLost) {
            bool involvesLost = false;
            for (int i = 0; i < g.numQubits(); ++i)
                if (ctx.isLost(g.qubit(i)))
                    involvesLost = true;
            if (involvesLost)
                continue;
        }
        for (const NoiseSource *s : engine.sources)
            s->onIdle(sv, ev, ctx);
        if (engine.foldGamma > 0.0 && StateVector::fusesNoJump(g) &&
            quietGate(engine, ev, ctx)) {
            sv.applyNoJumpFused(g, engine.foldGamma, engine.k0u[gi].data());
            ++tally.fusedGates;
            continue;
        }
        sv.apply(g);
        // Two canonical phases: Pauli-type injection (commutes up to a
        // global phase), then relaxation (damping, which does not
        // commute with injection) — so registration order cannot
        // change the composed map. See NoiseSource::isRelaxation().
        for (const NoiseSource *s : engine.sources)
            if (!s->isRelaxation())
                s->onGate(sv, ev, ctx);
        for (const NoiseSource *s : engine.sources)
            if (s->isRelaxation())
                s->onGate(sv, ev, ctx);
    }

    auto p = sv.probabilities();
    if (ctx.anyLost) {
        // Depolarized readout: average each lost qubit over both values.
        for (Qubit q = 0; q < circuit.numQubits(); ++q) {
            if (!ctx.isLost(q))
                continue;
            const size_t mask = size_t{1} << q;
            for (size_t i = 0; i < p.size(); ++i) {
                if (!(i & mask)) {
                    const double avg = 0.5 * (p[i] + p[i | mask]);
                    p[i] = p[i | mask] = avg;
                }
            }
        }
    }
    for (size_t i = 0; i < p.size(); ++i)
        acc[i] += p[i];
    for (size_t c = 0; c < kNumNoiseChannels; ++c)
        tally.events[c] += ctx.events[c];
}

/** Per-channel obs counters ("sim.noise.<channel>_events"). */
obs::Counter &
channelCounter(size_t channel)
{
    static std::array<obs::Counter *, kNumNoiseChannels> counters = [] {
        std::array<obs::Counter *, kNumNoiseChannels> out{};
        for (size_t c = 0; c < kNumNoiseChannels; ++c) {
            std::string name =
                noiseChannelName(static_cast<NoiseChannelId>(c));
            for (auto &ch : name)
                if (ch == '-')
                    ch = '_';
            out[c] = &obs::counter("sim.noise." + name + "_events");
        }
        return out;
    }();
    return *counters[channel];
}

}  // namespace

Distribution
noisyDistribution(const Circuit &circuit, const NoiseModel &noise,
                  const TrajectoryConfig &config)
{
    validateRequest(circuit, noise, config);
    const size_t dim = size_t{1} << circuit.numQubits();
    if (noise.isNoiseless() && !config.forceTrajectories)
        return idealDistribution(circuit);

    // A forced noiseless run is deterministic: every trajectory is the
    // plain statevector evolution, so one shot is the whole average.
    const int traj =
        noise.isNoiseless() ? 1 : config.trajectories;
    obs::Span span("sim.trajectories", "sim");
    span.arg("trajectories", traj);
    span.arg("qubits", circuit.numQubits());
    span.arg("parallel", config.parallel ? 1.0 : 0.0);
    static obs::Counter &trajectoriesRun =
        obs::counter("sim.trajectories_run");
    trajectoriesRun.add(traj);

    EngineContext engine;
    const auto owned = buildNoiseSources(noise);
    for (const auto &s : owned)
        engine.sources.push_back(s.get());
    if (config.reverseChannelOrder)
        std::reverse(engine.sources.begin(), engine.sources.end());
    // Precompute restriction zones once when crosstalk is enabled.
    if (noise.crosstalkPhase > 0.0 && config.topology != nullptr) {
        engine.zones.resize(circuit.size());
        for (size_t gi = 0; gi < circuit.size(); ++gi) {
            const Gate &g = circuit.gates()[gi];
            if (g.numQubits() < 2)
                continue;
            std::vector<int> involved;
            for (int i = 0; i < g.numQubits(); ++i)
                involved.push_back(g.qubit(i));
            engine.zones[gi] = config.topology->restrictionZone(involved);
        }
    }
    // Precompute the idle-duration pass when idle dephasing is enabled.
    if (noise.idleDephasing > 0.0)
        engine.idle = idleDurations(circuit);
    if (noise.ampDamping > 0.0) {
        engine.foldGamma = noise.ampDamping;
        engine.k0u = foldedOneQubitMatrices(circuit, noise.ampDamping);
    }

    // Trajectories accumulate in fixed-size chunks and the chunk sums
    // combine in chunk order, so serial and parallel runs (on any worker
    // count) produce bit-identical distributions for the same seed.
    constexpr int kChunk = 16;
    const int chunks = (traj + kChunk - 1) / kChunk;
    std::vector<Distribution> partial(static_cast<size_t>(chunks),
                                      Distribution(dim, 0.0));
    std::vector<ChunkTally> tallies(static_cast<size_t>(chunks));
    auto runChunk = [&](int c) {
        const int begin = c * kChunk;
        const int end = std::min(traj, begin + kChunk);
        for (int t = begin; t < end; ++t)
            accumulateTrajectory(circuit, engine,
                                 config.seed + static_cast<uint64_t>(t),
                                 partial[static_cast<size_t>(c)],
                                 tallies[static_cast<size_t>(c)]);
    };
    if (config.parallel && chunks > 1) {
        globalPool().parallelFor(chunks, runChunk);
    } else {
        for (int c = 0; c < chunks; ++c)
            runChunk(c);
    }
    Distribution total(dim, 0.0);
    for (const auto &p : partial)
        for (size_t i = 0; i < dim; ++i)
            total[i] += p[i];
    for (auto &v : total)
        v /= traj;

    ChannelTally events{};
    uint64_t fusedGates = 0;
    for (const auto &t : tallies) {
        for (size_t c = 0; c < kNumNoiseChannels; ++c)
            events[c] += t.events[c];
        fusedGates += t.fusedGates;
    }
    // Readout maps are linear and the same for every shot, so they act
    // once on the average (see NoiseSource::onReadout).
    for (const NoiseSource *s : engine.sources)
        events[static_cast<size_t>(s->id())] += s->onReadout(
            total, circuit.numQubits(), static_cast<uint64_t>(traj));
    static obs::Counter &fusedCounter = obs::counter("sim.fused_gates");
    fusedCounter.add(static_cast<long>(fusedGates));
    span.arg("fused_gates", static_cast<double>(fusedGates));
    for (size_t c = 0; c < kNumNoiseChannels; ++c) {
        if (events[c] == 0)
            continue;
        channelCounter(c).add(static_cast<long>(events[c]));
        if (span.active())
            span.arg(noiseChannelName(static_cast<NoiseChannelId>(c)),
                     static_cast<double>(events[c]));
    }
    if (span.active()) {
        const double seconds =
            static_cast<double>(span.elapsedMicros()) * 1e-6;
        if (seconds > 0.0)
            span.arg("traj_per_sec", traj / seconds);
    }
    return total;
}

double
noisyTvd(const Circuit &circuit, const Circuit &reference,
         const NoiseModel &noise, const TrajectoryConfig &config)
{
    const auto ideal = idealDistribution(reference);
    const auto noisy = noisyDistribution(circuit, noise, config);
    return totalVariationDistance(ideal, noisy);
}

}  // namespace geyser
