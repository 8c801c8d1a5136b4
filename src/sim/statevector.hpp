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
     * The raw amplitudes: the state scaled by sqrt(w), where the weight
     * w is their squared norm. w is 1 at construction, after a damping
     * jump and after a rescale; gates and Pauli injections leave it
     * alone, and a no-jump damping step lowers it instead of
     * renormalizing, so the normalised state is amplitudes() / sqrt(w).
     * Until a damping step runs, w is exactly 1 and the amplitudes are
     * the state itself. Writing through the mutable overload keeps
     * whatever w the state had: only write a state of the same weight.
     */
    const std::vector<Complex> &amplitudes() const { return amps_; }
    std::vector<Complex> &amplitudes() { return amps_; }

    /**
     * The weight w, see amplitudes(): exactly 1 until a no-jump damping
     * step runs, then the exact sum of |amplitude|^2, computed here in
     * one pass (a no-jump step only scales and does not track it).
     */
    double weight() const { return damped_ ? normSquared() : 1.0; }

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
     * Only the q = 1 half is touched. Since gamma * P(1) <= gamma, a
     * draw u >= gamma is a no-jump without reading anything: the step
     * scales the q = 1 half by sqrt(1 - gamma) and leaves the weight
     * lazy (see weight()). Only a draw u < gamma sums the q = 1 half,
     * and the rest of the state when w is not known to be 1, to decide;
     * a jump renormalizes and resets w to 1.
     *
     * The weight is never below a running bound, the product of
     * (1 - gamma) over the no-jump steps since it was last 1. Once the
     * bound falls below a fixed floor (1/2) the amplitudes are rescaled
     * to weight 1 by an exact sum, so long runs cannot underflow.
     */
    bool applyAmplitudeDamping(Qubit q, double gamma, double u);

    /** True for the gates applyNoJumpFused() takes: 1-qubit, CZ, CCZ. */
    static bool fusesNoJump(const Gate &gate);

    /**
     * `gate`, then the no-jump damping step (u >= gamma, see
     * applyAmplitudeDamping) on each of its operands, as one pass:
     * for a 1-qubit gate the caller's K0 * U (`k0u`, row-major 2x2,
     * computed once per circuit) through the dispatched svApply1q; for
     * CZ the diagonal diag(1, s, s, -s^2) with s = sqrt(1 - gamma), and
     * its 3-qubit analogue for CCZ (`k0u` unused). Agrees with apply()
     * followed by the stepwise no-jump steps up to rounding. Requires
     * fusesNoJump(gate).
     */
    void applyNoJumpFused(const Gate &gate, double gamma, const Complex *k0u);

    /**
     * Probability per basis state: |amplitude|^2 / w (one extra pass
     * for w only after a no-jump damping step). Dividing by w = 1 is
     * exact, so an undamped state reads its amplitudes' norms bit for
     * bit.
     */
    Distribution probabilities() const;

    /** Inner product <this|other> of the raw amplitudes (not divided
     *  by either weight). */
    Complex innerProduct(const StateVector &other) const;

    /**
     * Sum of |amplitude|^2 of the raw amplitudes: the weight w, so 1 up
     * to rounding for a state that no damping step has touched.
     */
    double normSquared() const;

  private:
    /** Lower the weight bound by `steps` no-jump steps at gamma. */
    void noteNoJump(double gamma, int steps);

    /** Scale the amplitudes to weight 1 with one exact sum pass. */
    void renormalize();

    int numQubits_ = 0;
    std::vector<Complex> amps_;
    bool damped_ = false;  ///< A no-jump step ran since w was last 1.
    double bound_ = 1.0;   ///< Lower bound on w, see applyAmplitudeDamping.
};

/** Ideal output distribution of a circuit started from |0...0>. */
Distribution idealDistribution(const Circuit &circuit);

}  // namespace geyser

#endif  // GEYSER_SIM_STATEVECTOR_HPP
