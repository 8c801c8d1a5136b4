/**
 * @file
 * Dense statevector simulator: exact ideal-output computation for the
 * TVD evaluation and the engine behind the unitary builder and the noisy
 * trajectory simulator.
 */
#ifndef GEYSER_SIM_STATEVECTOR_HPP
#define GEYSER_SIM_STATEVECTOR_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace geyser {

/**
 * State of an n-qubit register. Basis index bit k is the value of qubit
 * k (qubit 0 = least-significant bit).
 */
class StateVector
{
  public:
    /** |0...0> over n qubits. */
    explicit StateVector(int num_qubits);

    /** Basis state |index> over n qubits. */
    StateVector(int num_qubits, size_t basis_index);

    int numQubits() const { return numQubits_; }
    size_t dim() const { return amps_.size(); }

    /**
     * The raw amplitudes: the state scaled by sqrt(w), where w is a
     * tracked squared weight. w is 1 at construction and after a
     * damping jump, gates and Pauli injections leave it alone, and a
     * no-jump damping step lowers it instead of renormalizing, so the
     * normalised state is amplitudes() / sqrt(w). Until a damping step
     * runs, w is exactly 1 and the amplitudes are the state itself.
     * Writing through the mutable overload does not update w.
     */
    const std::vector<Complex> &amplitudes() const { return amps_; }
    std::vector<Complex> &amplitudes() { return amps_; }

    /** The tracked squared weight w, see amplitudes(). */
    double weight() const { return weight_; }

    /** Apply an arbitrary gate (logical or physical, 1-3 qubits). */
    void apply(const Gate &gate);

    /** Apply every gate of a circuit in order. */
    void apply(const Circuit &circuit);

    /**
     * Apply a k-qubit matrix to the given qubits; qubits[0] is the local
     * least-significant bit. The matrix must be 2^k x 2^k.
     */
    void applyMatrix(const Matrix &m, const std::vector<Qubit> &qubits);

    /** Fast Pauli-X on one qubit (used by the noise trajectory sim). */
    void applyX(Qubit q);

    /** Fast Pauli-Z on one qubit. */
    void applyZ(Qubit q);

    /** Fast Pauli-Y on one qubit. */
    void applyY(Qubit q);

    /**
     * One amplitude-damping (T1) trajectory step on qubit q: with
     * probability gamma * P(q = 1) the state jumps (K1, the qubit
     * collapses to |0>); otherwise the no-jump Kraus K0 =
     * diag(1, sqrt(1 - gamma)) is applied. `u` is the caller's uniform
     * [0, 1) draw deciding the branch (passed in so the RNG stream
     * stays with the noise channel). Returns true when the jump
     * occurred.
     *
     * Only the q = 1 half is touched. The jump renormalizes and resets
     * w to 1; the no-jump step scales the q = 1 half by sqrt(1 - gamma)
     * and lowers w by gamma times that half's prior squared weight,
     * leaving the q = 0 half bit-identical. Since
     * gamma * P(1) <= gamma, a draw u >= gamma is a no-jump without
     * reading P(1) first. Once w falls below a fixed floor (1/2)
     * the amplitudes are rescaled to weight 1 by an exact sum, so the
     * weight's rounding error stays near one ulp and long runs cannot
     * underflow.
     */
    bool applyAmplitudeDamping(Qubit q, double gamma, double u);

    /**
     * Probability per basis state: |amplitude|^2 / w. Dividing by
     * w = 1 is exact, so an undamped state reads its amplitudes' norms
     * bit for bit.
     */
    Distribution probabilities() const;

    /** Inner product <this|other> of the raw amplitudes (not divided
     *  by either weight). */
    Complex innerProduct(const StateVector &other) const;

    /**
     * Sum of |amplitude|^2 of the raw amplitudes: the tracked weight w
     * up to rounding, so 1 for a state that no damping step has touched.
     */
    double normSquared() const;

  private:
    /** Scale the amplitudes to weight 1 with one exact sum pass. */
    void renormalize();

    int numQubits_ = 0;
    std::vector<Complex> amps_;
    double weight_ = 1.0;  ///< w, see amplitudes()
};

/** Ideal output distribution of a circuit started from |0...0>. */
Distribution idealDistribution(const Circuit &circuit);

}  // namespace geyser

#endif  // GEYSER_SIM_STATEVECTOR_HPP
