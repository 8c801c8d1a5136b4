/**
 * @file
 * Pinned noisy-output configurations of the trajectory simulator and
 * the text format their captured distributions are stored in
 * (tests/golden/). Two sets:
 *
 *  - the legacy set (noise_legacy_golden.txt): the paper's Pauli model
 *    in six configurations, captured before the NoiseSource refactor
 *    and compared bit for bit;
 *  - the extended set (noise_extended_reference.txt): the composable
 *    channels (damping, dephasing, loss, correlated Pauli, readout),
 *    compared to kExtendedReferenceTolerance per outcome, since a
 *    faster but re-associated kernel may move them by rounding.
 *
 * The unit tests and `bench_noise_channels --golden <file>` both replay
 * these tables, so the configurations live in one place.
 *
 * File format: per case a line `case <name> <dim>`, then `dim` lines,
 * each the IEEE-754 bit pattern of one probability as 16 hex digits.
 */
#ifndef GEYSER_VERIFY_NOISE_REFERENCE_HPP
#define GEYSER_VERIFY_NOISE_REFERENCE_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/noise.hpp"
#include "sim/trajectory.hpp"
#include "topology/topology.hpp"

namespace geyser {
namespace verify {

/** Largest |Δ| per outcome allowed against the extended reference. */
inline constexpr double kExtendedReferenceTolerance = 1e-12;

/** One pinned noisyDistribution call. */
struct NoiseReferenceCase
{
    std::string name;
    Circuit circuit;
    NoiseModel model;
    /** config.topology, when set, points into `topology`. */
    TrajectoryConfig config;
    std::shared_ptr<const Topology> topology;

    Distribution run() const
    {
        return noisyDistribution(circuit, model, config);
    }
};

/** The 4-qubit logical probe circuit of the legacy capture. */
Circuit noiseLogicalProbe();

/** The 4-qubit physical probe circuit (U3/CZ/CCZ) of both captures. */
Circuit noisePhysicalProbe();

/** The six legacy-model configurations (noise_legacy_golden.txt). */
std::vector<NoiseReferenceCase> legacyNoiseCases();

/**
 * The extended-channel configurations (noise_extended_reference.txt).
 * `golden_dir` holds geyser_qft10.circuit, the stored Geyser
 * compilation of qft-10 (native text format), so the reference does
 * not move when the compiler does.
 */
std::vector<NoiseReferenceCase>
extendedNoiseCases(const std::string &golden_dir);

/** Case name -> probability bit patterns; throws IoError/ParseError. */
std::map<std::string, std::vector<uint64_t>>
loadNoiseReference(const std::string &path);

}  // namespace verify
}  // namespace geyser

#endif  // GEYSER_VERIFY_NOISE_REFERENCE_HPP
