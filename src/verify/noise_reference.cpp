#include "verify/noise_reference.hpp"

#include <sstream>

#include "common/error.hpp"
#include "io/framing.hpp"
#include "io/serialize.hpp"

namespace geyser {
namespace verify {

namespace {

NoiseReferenceCase
makeCase(std::string name, Circuit circuit, NoiseModel model, int trajectories,
         uint64_t seed, bool parallel,
         std::shared_ptr<const Topology> topology = nullptr)
{
    const TrajectoryConfig config{trajectories, seed, parallel,
                                  topology.get()};
    return {std::move(name), std::move(circuit), model, config,
            std::move(topology)};
}

/** Every extended channel at its Fig-15 ablation rate, legacy off. */
NoiseModel
channelsSweepModel()
{
    NoiseModel m = NoiseModel::noiseless();
    m.ampDamping = 0.001;
    m.idleDephasing = 0.0005;
    m.lossPerGate = 0.0005;
    m.correlatedPauli = 0.003;
    m.readoutError = 0.01;
    return m;
}

NoiseModel
dampingModel(double gamma)
{
    return NoiseModel::singleChannel(NoiseChannelId::AmpDamping, gamma);
}

}  // namespace

Circuit
noiseLogicalProbe()
{
    Circuit c(4);
    c.h(0);
    c.cx(0, 1);
    c.u3(2, 0.3, 0.1, 0.7);
    c.ccx(0, 1, 2);
    c.rz(3, 0.25);
    c.cz(2, 3);
    c.h(3);
    c.ccz(1, 2, 3);
    c.cx(3, 0);
    c.h(2);
    return c;
}

Circuit
noisePhysicalProbe()
{
    Circuit c(4);
    c.u3(0, 1.5707963267948966, 0.0, 3.141592653589793);
    c.cz(0, 1);
    c.u3(1, 0.4, 0.2, 0.9);
    c.ccz(0, 1, 2);
    c.u3(2, 0.8, 0.0, 0.1);
    c.cz(2, 3);
    c.u3(3, 0.6, 0.3, 0.2);
    c.ccz(1, 2, 3);
    c.u3(0, 0.2, 0.5, 0.4);
    c.cz(1, 3);
    return c;
}

std::vector<NoiseReferenceCase>
legacyNoiseCases()
{
    const auto topo =
        std::make_shared<const Topology>(Topology::makeTriangular(2, 2));
    NoiseModel perPulse = NoiseModel::paperDefault();
    perPulse.perPulse = true;
    NoiseModel loss = NoiseModel::paperDefault();
    loss.atomLoss = 0.2;
    NoiseModel crosstalk = NoiseModel::paperDefault();
    crosstalk.crosstalkPhase = 0.3;
    const NoiseModel kitchenSink{0.002, 0.0015, true, 0.1, 0.05};

    std::vector<NoiseReferenceCase> cases;
    cases.push_back(makeCase("paper-default-logical", noiseLogicalProbe(),
                             NoiseModel::paperDefault(), 64, 20260808,
                             false));
    cases.push_back(makeCase("paper-default-physical", noisePhysicalProbe(),
                             NoiseModel::paperDefault(), 64, 4242, true));
    cases.push_back(makeCase("per-pulse-physical", noisePhysicalProbe(),
                             perPulse, 64, 31337, false));
    cases.push_back(makeCase("atom-loss", noiseLogicalProbe(), loss, 64, 77,
                             false));
    cases.push_back(makeCase("crosstalk", noiseLogicalProbe(), crosstalk, 64,
                             99, false, topo));
    cases.push_back(makeCase("kitchen-sink-legacy", noisePhysicalProbe(),
                             kitchenSink, 48, 5150, true, topo));
    return cases;
}

std::vector<NoiseReferenceCase>
extendedNoiseCases(const std::string &golden_dir)
{
    const std::string qftPath = golden_dir + "/geyser_qft10.circuit";
    const auto text = io::readFileBytes(qftPath);
    if (!text)
        throw IoError(SourceContext{qftPath, 0, -1}, "cannot read circuit");
    const Circuit qft10 = circuitFromText(*text);

    NoiseModel dampedPauli = dampingModel(0.05);
    dampedPauli.correlatedPauli = 0.1;
    NoiseModel lossReadout = NoiseModel::noiseless();
    lossReadout.lossPerGate = 0.05;
    lossReadout.readoutError = 0.02;
    NoiseModel all = NoiseModel::paperDefault();
    all.ampDamping = 0.01;
    all.idleDephasing = 0.002;
    all.lossPerGate = 0.005;
    all.correlatedPauli = 0.01;
    all.readoutError = 0.02;

    const Circuit probe = noisePhysicalProbe();
    std::vector<NoiseReferenceCase> cases;
    cases.push_back(makeCase("channels-sweep-physical", probe,
                             channelsSweepModel(), 64, 101, true));
    cases.push_back(makeCase("damping-0.001-physical", probe,
                             dampingModel(0.001), 64, 102, false));
    cases.push_back(makeCase("damping-0.2-physical", probe,
                             dampingModel(0.2), 64, 103, true));
    cases.push_back(makeCase("damping-1-physical", probe, dampingModel(1.0),
                             64, 104, false));
    cases.push_back(makeCase("damping-corr-pauli-physical", probe,
                             dampedPauli, 64, 105, true));
    cases.push_back(makeCase("loss-readout-physical", probe, lossReadout, 64,
                             106, false));
    cases.push_back(
        makeCase("all-channels-physical", probe, all, 64, 107, true));
    cases.push_back(makeCase("channels-sweep-geyser-qft10", qft10,
                             channelsSweepModel(), 64, 108, true));
    cases.push_back(makeCase("damping-0.2-geyser-qft10", qft10,
                             dampingModel(0.2), 32, 109, true));
    return cases;
}

std::map<std::string, std::vector<uint64_t>>
loadNoiseReference(const std::string &path)
{
    const auto text = io::readFileBytes(path);
    if (!text)
        throw IoError(SourceContext{path, 0, -1}, "cannot read reference");
    std::istringstream in(*text);
    std::map<std::string, std::vector<uint64_t>> cases;
    std::string word;
    while (in >> word) {
        std::string name;
        size_t dim = 0;
        if (word != "case" || !(in >> name >> dim))
            throw ParseError(SourceContext{path, 0, -1},
                             "expected `case <name> <dim>`");
        auto &values = cases[name];
        for (size_t i = 0; i < dim; ++i) {
            std::string hex;
            if (!(in >> hex))
                throw ParseError(SourceContext{path, 0, -1},
                                 "case " + name + " is truncated");
            values.push_back(std::stoull(hex, nullptr, 16));
        }
    }
    return cases;
}

}  // namespace verify
}  // namespace geyser
