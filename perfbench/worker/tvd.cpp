/**
 * @file
 * Workload tvd-sweep: the noisy TVD of the nine non-heavy Table-1 rows
 * under Baseline, OptiMap and Geyser, each under two noise models — the
 * paper's 0.1% legacy Pauli model (the trajectory engine's legacy
 * adapter) and a model with only the five extended channels on (the
 * NoiseSource hooks). The circuits are compiled during set-up, so the
 * timed rounds are simulator work alone.
 */
#include <cmath>
#include <cstdio>
#include <unistd.h>

#include "algos/suite.hpp"
#include "geyser/pipeline.hpp"
#include "metrics/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectory.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace geyser;

namespace {

constexpr int kTrajectories = 200;
/** Widest physical circuit checked against the density matrix. */
constexpr int kMaxDensityAtoms = 8;

/** One (compiled circuit, noise model) evaluation of the sweep. */
struct Member
{
    const CompileResult *compiled = nullptr;
    std::string row;
    bool legacy = true;  ///< Legacy Pauli model, else extended channels.
    uint64_t seed = 0;
};

NoiseModel
legacyModel()
{
    return NoiseModel::paperDefault();
}

/** Every extended channel on at its Fig-15 ablation rate; legacy off. */
NoiseModel
channelsModel()
{
    NoiseModel m = NoiseModel::noiseless();
    m.ampDamping = 0.001;
    m.idleDephasing = 0.0005;
    m.lossPerGate = 0.0005;
    m.correlatedPauli = 0.003;
    m.readoutError = 0.01;
    return m;
}

TrajectoryConfig
configFor(const Member &m, bool parallel = true)
{
    TrajectoryConfig cfg;
    cfg.trajectories = kTrajectories;
    cfg.seed = m.seed;
    cfg.parallel = parallel;
    return cfg;
}

Distribution
projected(const CompileResult &r, const Distribution &physical)
{
    return projectToLogical(physical, r.finalLayout, r.logical.numQubits(),
                            r.physical.numQubits());
}

/**
 * The output checks of tvd-sweep, run after the timed region against
 * the TVDs `measured` in the first round.
 */
void
checkSweep(const std::vector<Member> &members,
           const std::vector<double> &measured, const NoiseModel &legacy,
           const NoiseModel &channels, Json &failures, Json &info)
{
    for (size_t i = 0; i < members.size(); ++i) {
        const Member &m = members[i];
        const CompileResult &r = *m.compiled;
        const std::string label =
            m.row + " " + techniqueName(r.technique) +
            (m.legacy ? " legacy" : " channels");
        const NoiseModel &model = m.legacy ? legacy : channels;
        const Distribution noisy =
            noisyDistribution(r.physical, model, configFor(m));
        double sum = 0.0;
        bool nonNegative = true;
        for (const double p : noisy) {
            sum += p;
            nonNegative = nonNegative && p >= 0.0;
        }
        if (!nonNegative || std::abs(sum - 1.0) > 1e-9)
            failures.push(label + ": distribution not normalised (sum " +
                          std::to_string(sum) + ")");
        const Distribution ideal = idealDistribution(r.logical);
        const double tvd =
            totalVariationDistance(ideal, projected(r, noisy));
        if (!(tvd >= 0.0 && tvd <= 1.0))
            failures.push(label + ": TVD " + std::to_string(tvd) +
                          " outside [0, 1]");
        // The timed call and this one are the same seeded computation.
        if (tvd != measured[i])
            failures.push(label + ": evaluateTvd gave " +
                          std::to_string(measured[i]) +
                          " but the split path gave " + std::to_string(tvd));

        // Legacy model: trajectory average vs exact density matrix. Each
        // trajectory contributes a probability vector x with E[x_k] = p_k
        // and x_k in [0, 1], so Var(x_k) <= p_k and the average over T
        // trajectories is off by E|.| <= sqrt(p_k / T) per outcome. The
        // bound allows twice that summed expectation.
        if (m.legacy && r.physical.numQubits() <= kMaxDensityAtoms) {
            const Distribution exact =
                projected(r, exactNoisyDistribution(r.physical, model));
            double expected = 0.0;
            for (const double p : exact)
                expected += 0.5 * std::sqrt(p / kTrajectories);
            const double bound = 2.0 * expected;
            const double exactTvd = totalVariationDistance(ideal, exact);
            const double gap = std::abs(tvd - exactTvd);
            Json row = Json::object();
            row.set("member", label);
            row.set("trajectory_tvd", tvd);
            row.set("exact_tvd", exactTvd);
            row.set("bound", bound);
            info.push(std::move(row));
            if (gap > bound)
                failures.push(label + ": trajectory TVD " +
                              std::to_string(tvd) + " vs exact " +
                              std::to_string(exactTvd) + " beyond bound " +
                              std::to_string(bound));
        }
    }
    // Serial and pool runs are bit-identical, on one member per model.
    for (const Member &m : members) {
        if (m.row != "qft-5" || m.compiled->technique != Technique::Geyser)
            continue;
        const NoiseModel &model = m.legacy ? legacy : channels;
        const Circuit &c = m.compiled->physical;
        if (noisyDistribution(c, model, configFor(m, false)) !=
            noisyDistribution(c, model, configFor(m, true)))
            failures.push(m.row + std::string(m.legacy ? " legacy" :
                                                         " channels") +
                          ": serial and pool distributions differ");
    }
}

}  // namespace

int
runTvd(const Args &args)
{
    const uint64_t seed = static_cast<uint64_t>(args.num("seed", 1));
    const double seconds = static_cast<double>(args.num("seconds", 10));
    const bool trace = args.num("trace", 0) != 0;

    // Set-up: compile the 27 circuits and build both noise models.
    const double start = now();
    const Technique techniques[] = {Technique::Baseline, Technique::OptiMap,
                                    Technique::Geyser};
    std::vector<CompileResult> compiled;
    std::vector<std::string> rows;
    for (const auto &spec : benchmarkSuite()) {
        if (spec.heavy)
            continue;
        const Circuit logical = spec.make();
        for (const Technique t : techniques) {
            compiled.push_back(compile(t, logical));
            rows.push_back(spec.name);
        }
    }
    const double compileS = now() - start;
    const NoiseModel legacy = legacyModel();
    const NoiseModel channels = channelsModel();
    // Members in technique-major order, so that one technique's 18
    // evaluations (nine rows under both models) are adjacent.
    std::vector<Member> members;
    long pulses = 0, depthPulses = 0;
    for (const Technique t : techniques) {
        for (size_t i = 0; i < compiled.size(); ++i) {
            if (compiled[i].technique != t)
                continue;
            if (t == Technique::Geyser) {
                pulses += compiled[i].stats.totalPulses;
                depthPulses += compiled[i].stats.depthPulses;
            }
            for (const bool isLegacy : {true, false}) {
                Member m;
                m.compiled = &compiled[i];
                m.row = rows[i];
                m.legacy = isLegacy;
                m.seed = mix(seed * 1000003ULL + members.size());
                members.push_back(m);
            }
        }
    }
    const double setupS = now() - start;

    // One round: every member once, through the public evaluateTvd. A
    // job is one technique's evaluation, the data behind its Fig-15 bars
    // under both models (18 adjacent members); its latency is theirs.
    std::vector<double> latencies;
    std::vector<double> first;
    Json failures = Json::array();
    auto round = [&](std::vector<double> &tvds) {
        double jobStart = now();
        for (size_t i = 0; i < members.size(); ++i) {
            const Member &m = members[i];
            tvds.push_back(evaluateTvd(*m.compiled,
                                       m.legacy ? legacy : channels,
                                       configFor(m)));
            if (i + 1 == members.size() ||
                members[i + 1].compiled->technique !=
                    m.compiled->technique) {
                const double t = now();
                latencies.push_back((t - jobStart) * 1000.0);
                jobStart = t;
            }
        }
    };
    // Whole rounds until the time is up, and at least two.
    std::vector<double> roundS;
    const double measureStart = now();
    do {
        std::vector<double> tvds;
        const double r0 = now();
        round(tvds);
        roundS.push_back(now() - r0);
        if (first.empty())
            first = tvds;
        else if (tvds != first)
            failures.push("round " + std::to_string(roundS.size()) +
                          " TVDs differ from round 1 on the same seeds");
    } while (now() - measureStart < seconds || roundS.size() < 2);
    const double measuredS = now() - measureStart;
    const ProcStats proc = procStats(getpid());

    Json out = Json::object();
    if (trace) {
        // The same round, split into its layers, with obs collection on.
        obs::setEventCapacity(size_t{1} << 20);
        obs::reset();
        obs::setEnabled(true);
        const auto before = counters();
        const PoolStats poolBefore = globalPool().snapshot();
        double idealMs = 0, legacyMs = 0, channelsMs = 0, gates = 0;
        const double t0 = now();
        for (const Member &m : members) {
            const CompileResult &r = *m.compiled;
            double c0 = now();
            const Distribution ideal = idealDistribution(r.logical);
            idealMs += (now() - c0) * 1000.0;
            const long trajBefore = counters()["sim.trajectories_run"];
            c0 = now();
            const Distribution noisy = noisyDistribution(
                r.physical, m.legacy ? legacy : channels, configFor(m));
            (m.legacy ? legacyMs : channelsMs) += (now() - c0) * 1000.0;
            gates += static_cast<double>(counters()["sim.trajectories_run"] -
                                         trajBefore) *
                     static_cast<double>(r.physical.size());
            totalVariationDistance(ideal, projected(r, noisy));
        }
        const double tracedS = now() - t0;
        obs::setEnabled(false);
        const auto after = counters();
        Json layers = Json::object();
        layers.set("sim.ideal_ms", idealMs);
        layers.set("sim.legacy_ms", legacyMs);
        layers.set("sim.channels_ms", channelsMs);
        layers.set("sim.trajectories",
                   static_cast<double>(after.at("sim.trajectories_run") -
                                       before.at("sim.trajectories_run")));
        layers.set("sim.trajectory_gates", gates);
        layers.set("sim.trajectory_gates_per_s",
                   gates / ((legacyMs + channelsMs) / 1000.0));
        addLayerCounters(layers, before, after, obs::events());
        const PoolStats poolAfter = globalPool().snapshot();
        addPoolLayer(layers,
                     static_cast<double>(poolAfter.busyMicros -
                                         poolBefore.busyMicros) / 1000.0,
                     poolWaitMs(),
                     tracedS * 1000.0 * poolAfter.workers);
        layers.set("obs.events_dropped",
                   static_cast<double>(obs::eventsDropped()));
        std::vector<double> sorted = roundS;
        layers.set("trace.overhead_pct",
                   (tracedS / percentile(sorted, 0.5) - 1.0) * 100.0);
        out.set("layers", std::move(layers));
    }

    Json info = Json::array();
    checkSweep(members, first, legacy, channels, failures, info);

    out.set("setup_s", setupS);
    out.set("compile_s", compileS);
    out.set("geyser_pulses", pulses);
    out.set("geyser_depth_pulses", depthPulses);
    Json rounds = Json::array();
    for (const double s : roundS)
        rounds.push(s);
    out.set("round_s", std::move(rounds));
    out.set("measured_s", measuredS);
    Json lat = Json::array();
    for (const double ms : latencies)
        lat.push(ms);
    out.set("latency_ms", std::move(lat));
    out.set("peak_rss_mb", proc.peakRssMb);
    out.set("attempted", static_cast<long>(roundS.size() * members.size()));
    out.set("failed", 0L);
    out.set("density_checks", std::move(info));
    out.set("check_failures", std::move(failures));
    emit(out);
    return 0;
}

}  // namespace perfbench
