/**
 * @file
 * Workload table1-cold: one fresh process compiles the ten Table-1 rows
 * under Baseline, OptiMap and Geyser, once each and in paper order, with
 * default PipelineOptions (no persistent cache). The compose memo lives
 * for the whole process, so every compile here starts from the state a
 * user's first compile sees.
 */
#include <cstdio>
#include <unistd.h>

#include "algos/suite.hpp"
#include "geyser/pipeline.hpp"
#include "io/qasm_parser.hpp"
#include "io/serialize.hpp"
#include "obs/obs.hpp"
#include "verify/equivalence.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace geyser;

namespace {

constexpr Technique kTechniques[] = {Technique::Baseline, Technique::OptiMap,
                                     Technique::Geyser};

/** What the checks of one suite found. */
struct SuiteCheck
{
    double tvdS = 0.0;      ///< Seconds of the Geyser outputs' noisy TVDs.
    long failedOps = 0;     ///< Geyser compiles beyond the Sec-6 bound.
};

/**
 * The output checks of table1-cold, run after the timed region; the
 * unitary checks of Baseline and OptiMap only when `unitaryChecks`. A Geyser
 * compile whose ideal TVD exceeds the paper's Sec-6 bound of 1e-2 is a
 * failed operation (its output is not a usable program); every other
 * check that fails goes to `failures` and marks the run incorrect.
 */
SuiteCheck
checkSuite(const std::vector<BenchmarkSpec> &suite,
           const std::vector<std::vector<CompileResult>> &results,
           bool unitaryChecks, Json &failures, Json &failedOps)
{
    const double threshold = ComposeOptions{}.threshold;
    SuiteCheck out;
    std::vector<const CompileResult *> exact;
    for (size_t row = 0; row < results.size(); ++row) {
        const std::string &name = suite[row].name;
        const auto &byTech = results[row];
        if (byTech.size() != 3)
            continue;  // A compile threw; already counted as failed.
        const CompileResult &optimap = byTech[1];
        const CompileResult &geyser = byTech[2];
        // A block is adopted only if it uses no more pulses.
        if (geyser.stats.totalPulses > optimap.stats.totalPulses)
            failures.push(name + ": Geyser pulses " +
                          std::to_string(geyser.stats.totalPulses) +
                          " > OptiMap " +
                          std::to_string(optimap.stats.totalPulses));
        if (geyser.maxBlockHsd > threshold)
            failures.push(name + ": maxBlockHsd " +
                          std::to_string(geyser.maxBlockHsd) +
                          " > threshold");
        const verify::EquivalenceReport report =
            verify::checkCompileResult(geyser);
        if (report.method != "distribution")
            failures.push(name + " Geyser: checked by " + report.method);
        else if (!report.equivalent) {
            ++out.failedOps;
            failedOps.push(name + " Geyser: " + report.detail);
        }
        if (unitaryChecks && suite[row].numQubits <= 10) {
            exact.push_back(&byTech[0]);
            exact.push_back(&byTech[1]);
        }
    }
    // tvd_s: what evaluating the outputs costs a user, the noisy TVD
    // under the paper's 0.1% Pauli model (200 trajectories) of the
    // Geyser outputs of the nine non-heavy rows, on one thread: on the
    // pool the pass swung by ±20% from process to process with the
    // shared host's load, on one thread by ±9%. (The
    // ideal-TVD check above is bound by memory bandwidth on
    // heisenberg-16 and swung by ±20% between runs.)
    TrajectoryConfig serial;
    serial.parallel = false;
    const double t0 = now();
    for (size_t row = 0; row < results.size(); ++row) {
        if (suite[row].heavy || results[row].size() != 3)
            continue;
        const double tvd = evaluateTvd(results[row][2],
                                       NoiseModel::paperDefault(), serial);
        if (!(tvd >= 0.0 && tvd <= 1.0))
            failures.push(suite[row].name + " Geyser: noisy TVD " +
                          std::to_string(tvd) + " outside [0, 1]");
    }
    out.tvdS = now() - t0;

    // Baseline and OptiMap: unitary equivalence up to layout. These
    // dominate the checking time, so they run on the pool.
    std::vector<verify::EquivalenceReport> reports(exact.size());
    globalPool().parallelFor(static_cast<int>(exact.size()), [&](int i) {
        reports[static_cast<size_t>(i)] =
            verify::checkCompileResult(*exact[static_cast<size_t>(i)]);
    });
    for (size_t i = 0; i < exact.size(); ++i)
        if (!reports[i].equivalent || reports[i].method != "routed-unitary")
            failures.push(std::to_string(exact[i]->logical.numQubits()) +
                          "-qubit " + techniqueName(exact[i]->technique) +
                          ": " + reports[i].method +
                          " check failed: " + reports[i].detail);
    return out;
}

}  // namespace

int
runTable1(const Args &args)
{
    const double start = now();
    const bool trace = args.num("trace", 0) != 0;
    // --check 0: none; 1: every check but the unitary equivalence of
    // Baseline and OptiMap; 2: all of them.
    const long check = args.num("check", 2);

    // Set-up: read the ten programs from their OpenQASM text, as a
    // user's compile starts (the text round trip is exact for these
    // circuits). The first compile starts the global pool, as it does in
    // a user's process.
    const std::vector<BenchmarkSpec> &suite = benchmarkSuite();
    std::vector<Circuit> logical;
    for (const auto &spec : suite)
        logical.push_back(circuitFromQasm(circuitToQasm(spec.make())));
    const double setupS = now() - start;
    if (args.num("compile", 1) == 0) {
        // Set-up only: a probe that gives run.py one more set-up sample
        // without starting the pool.
        Json out = Json::object();
        out.set("setup_s", setupS);
        emit(out);
        return 0;
    }

    PoolStats poolBefore;
    if (trace) {
        poolBefore = globalPool().snapshot();
        obs::setEventCapacity(size_t{1} << 20);
        obs::reset();
        obs::setEnabled(true);
    }
    const auto countersBefore = counters();
    Json calls = Json::array();
    Json layers = Json::object();
    std::vector<std::vector<CompileResult>> results(suite.size());
    long attempted = 0, failed = 0;
    long pulses = 0, depthPulses = 0;
    double transpileMs = 0, blockingMs = 0, composeMs = 0;
    const double t0 = now();
    for (size_t row = 0; row < suite.size(); ++row) {
        for (const Technique technique : kTechniques) {
            ++attempted;
            const long evalsBefore =
                trace ? counters()["compose.evaluations"] : 0;
            const double c0 = now();
            CompileResult result;
            try {
                result = compile(technique, logical[row]);
            } catch (const std::exception &e) {
                ++failed;
                std::fprintf(stderr, "compile %s/%s failed: %s\n",
                             suite[row].name.c_str(),
                             techniqueName(technique), e.what());
                continue;
            }
            const double ms = (now() - c0) * 1000.0;
            Json call = Json::object();
            call.set("row", suite[row].name);
            call.set("technique", techniqueName(technique));
            call.set("ms", ms);
            calls.push(std::move(call));
            transpileMs += result.transpileMs;
            blockingMs += result.blockingMs;
            composeMs += result.composeMs;
            if (technique == Technique::Geyser) {
                pulses += result.stats.totalPulses;
                depthPulses += result.stats.depthPulses;
                layers.set("compose.row_ms." + suite[row].name,
                           result.composeMs);
                if (suite[row].name == "heisenberg-16" && trace) {
                    // compositionEvaluations replays memo hits' counts;
                    // the counter holds only work actually spent.
                    layers.set("compose.result_evaluations.heisenberg-16",
                               static_cast<double>(
                                   result.compositionEvaluations));
                    layers.set("compose.evaluations.heisenberg-16",
                               static_cast<double>(
                                   counters()["compose.evaluations"] -
                                   evalsBefore));
                }
            }
            results[row].push_back(std::move(result));
        }
    }
    const double compileS = now() - t0;
    const ProcStats proc = procStats(getpid());

    Json out = Json::object();
    if (trace) {
        obs::setEnabled(false);
        layers.set("pipeline.transpile_ms", transpileMs);
        layers.set("pipeline.blocking_ms", blockingMs);
        layers.set("pipeline.compose_ms", composeMs);
        addLayerCounters(layers, countersBefore, counters(), obs::events());
        const PoolStats poolAfter = globalPool().snapshot();
        addPoolLayer(layers,
                     static_cast<double>(poolAfter.busyMicros -
                                         poolBefore.busyMicros) / 1000.0,
                     poolWaitMs(),
                     compileS * 1000.0 * poolAfter.workers);
        layers.set("obs.events_dropped",
                   static_cast<double>(obs::eventsDropped()));
        out.set("layers", std::move(layers));
    }
    Json failures = Json::array();
    Json failedOps = Json::array();
    SuiteCheck checked;
    if (check > 0)
        checked = checkSuite(suite, results, check > 1, failures, failedOps);

    out.set("setup_s", setupS);
    out.set("compile_s", compileS);
    out.set("geyser_pulses", pulses);
    out.set("geyser_depth_pulses", depthPulses);
    out.set("tvd_s", checked.tvdS);
    out.set("peak_rss_mb", proc.peakRssMb);
    out.set("attempted", attempted);
    out.set("failed", failed + checked.failedOps);
    out.set("failed_ops", std::move(failedOps));
    out.set("calls", std::move(calls));
    out.set("check_failures", std::move(failures));
    emit(out);
    return 0;
}

}  // namespace perfbench
