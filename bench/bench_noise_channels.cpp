/**
 * @file
 * Per-channel noise ablations and the legacy golden-distribution gate.
 *
 * Default mode runs the Fig 15 protocol with one channel enabled at a
 * time (at its default ablation rate), over the TVD suite and all three
 * compilation techniques, so each channel's contribution to circuit
 * infidelity is visible in isolation — the per-channel RNG streams make
 * the rows seed-comparable across ablations.
 *
 *   bench_noise_channels [--channel <name>[=<rate>]] [--json <file>]
 *   bench_noise_channels --golden <file>
 *
 * --golden replays every configuration of a capture file
 * (src/verify/noise_reference.hpp) and exits nonzero on any drift:
 * tests/golden/noise_legacy_golden.txt holds the six pre-refactor
 * legacy-model cases, compared bit for bit;
 * tests/golden/noise_extended_reference.txt the extended channels,
 * compared to 1e-12 per outcome. CI runs both on every push.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/trajectory.hpp"
#include "verify/noise_reference.hpp"

using namespace geyser;
using namespace geyser::bench;

namespace {

// ---- Golden gate ----------------------------------------------------

/**
 * Replays every case of a capture file: legacy cases must match bit for
 * bit, extended-channel cases to verify::kExtendedReferenceTolerance per
 * outcome. Prints the largest gap of each case.
 */
int
runGoldenGate(const std::string &path)
{
    const auto captured = verify::loadNoiseReference(path);
    const size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    std::map<std::string, std::pair<verify::NoiseReferenceCase, double>>
        known;
    for (auto &c : verify::legacyNoiseCases())
        known.emplace(c.name, std::make_pair(c, 0.0));
    // The extended cases read a circuit from the capture's directory:
    // build them only for a file that names a case beyond the legacy six.
    const bool extended = std::any_of(
        captured.begin(), captured.end(),
        [&](const auto &entry) { return known.count(entry.first) == 0; });
    if (extended)
        for (auto &c : verify::extendedNoiseCases(dir))
            known.emplace(c.name, std::make_pair(
                                      c, verify::kExtendedReferenceTolerance));
    std::printf("Noise reference gate (%zu cases, %s)\n\n", captured.size(),
                path.c_str());

    bool ok = true;
    for (const auto &[name, bits] : captured) {
        const auto it = known.find(name);
        if (it == known.end()) {
            std::printf("  %-30s UNKNOWN case\n", name.c_str());
            ok = false;
            continue;
        }
        const auto &[config, tolerance] = it->second;
        const Distribution got = config.run();
        if (got.size() != bits.size()) {
            std::printf("  %-30s DIMENSION mismatch\n", name.c_str());
            ok = false;
            continue;
        }
        double gap = 0.0;
        bool identical = true;
        for (size_t i = 0; i < got.size(); ++i) {
            double want;
            std::memcpy(&want, &bits[i], sizeof want);
            identical = identical && want == got[i];
            gap = std::max(gap, std::abs(want - got[i]));
        }
        const bool pass = tolerance == 0.0 ? identical : gap <= tolerance;
        std::printf("  %-30s %s (%zu outcomes, max |delta| %.3g, bound %s)\n",
                    name.c_str(), pass ? "ok" : "MISMATCH", got.size(), gap,
                    tolerance == 0.0 ? "bit-identical" : "1e-12");
        ok = ok && pass;
    }
    std::printf("\n%s\n", ok ? "all cases within their bounds"
                             : "REFERENCE MISMATCH: the noise model no "
                               "longer reproduces its captured outputs");
    return ok ? 0 : 1;
}

// ---- Per-channel ablation sweep -------------------------------------

const char *
flagValue(int argc, char **argv, const char *flag)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return nullptr;
}

int
runAblations(int argc, char **argv)
{
    ReportSession session(argc, argv, "bench_noise_channels");
    const ChannelFlag only = parseChannelFlag(argc, argv);
    const char *jsonPath = flagValue(argc, argv, "--json");

    std::printf("Per-channel noise ablations, Fig 15 protocol "
                "(%d trajectories)\n\n",
                trajectoryConfig(0).trajectories);
    const std::vector<int> widths{18, 14, 10, 10, 10};
    printRow({"Channel", "Benchmark", "Baseline", "OptiMap", "Geyser"},
             widths);
    printRule(widths);

    obs::Json rows = obs::Json::array();
    for (size_t ci = 0; ci < kNumNoiseChannels; ++ci) {
        const auto id = static_cast<NoiseChannelId>(ci);
        if (only.set && only.id != id)
            continue;
        const double rate = only.set && only.rate >= 0.0
                                ? only.rate
                                : defaultChannelRate(id);
        const NoiseModel nm = NoiseModel::singleChannel(id, rate);
        for (const auto &spec : tvdSuite()) {
            const auto cfg =
                trajectoryConfig(7000 + spec.numQubits + 131 * ci);
            const double base = evaluateTvd(
                compileCached(spec, Technique::Baseline), nm, cfg);
            const double opti = evaluateTvd(
                compileCached(spec, Technique::OptiMap), nm, cfg);
            const double gey = evaluateTvd(
                compileCached(spec, Technique::Geyser), nm, cfg);
            printRow({noiseChannelName(id), spec.name, fmtTvd(base),
                      fmtTvd(opti), fmtTvd(gey)},
                     widths);
            obs::Json row = obs::Json::object();
            row.set("channel", noiseChannelName(id));
            row.set("rate", rate);
            row.set("benchmark", spec.name);
            row.set("baseline", base);
            row.set("optimap", opti);
            row.set("geyser", gey);
            if (session.active())
                session.addRow(row);
            rows.push(std::move(row));
        }
    }

    if (jsonPath != nullptr) {
        obs::Json out = obs::Json::object();
        out.set("bench", "noise-channels");
        out.set("trajectories", trajectoryConfig(0).trajectories);
        out.set("rows", std::move(rows));
        std::ofstream f(jsonPath);
        f << out.dump(2) << "\n";
        std::printf("\nwrote %s\n", jsonPath);
    }
    std::printf("\nExpected shape: each channel's TVD shrinks from "
                "Baseline to Geyser\n(fewer pulses, less idle time, fewer "
                "entangling gates to strike),\nexcept readout, which "
                "depends only on the final layout width.\n");
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (const char *golden = flagValue(argc, argv, "--golden"))
        return runGoldenGate(golden);
    return runAblations(argc, argv);
}
