/**
 * @file
 * Pauli-string observables and expectation values — the measurement
 * layer for variational workloads (VQE energies, Heisenberg
 * magnetization) on top of the statevector simulator.
 */
#ifndef GEYSER_METRICS_OBSERVABLE_HPP
#define GEYSER_METRICS_OBSERVABLE_HPP

#include <string>
#include <vector>

#include "sim/statevector.hpp"

namespace geyser {

/**
 * A tensor product of Pauli operators, written with qubit 0 first:
 * "XZI" means X on qubit 0, Z on qubit 1, identity on qubit 2.
 */
class PauliString
{
  public:
    /** Parse from a label of {I, X, Y, Z} characters. */
    explicit PauliString(const std::string &label);

    int numQubits() const { return static_cast<int>(ops_.size()); }
    char op(int qubit) const { return ops_[static_cast<size_t>(qubit)]; }
    const std::string &label() const { return ops_; }

    /** <state| P |state> of the normalised state (the raw amplitudes'
     *  value divided by the tracked weight, so a damped state reads
     *  correctly). The state must have >= numQubits() qubits
     *  (identity on the rest). Always real for Hermitian P. */
    double expectation(const StateVector &state) const;

  private:
    std::string ops_;
};

/** One term of a Hamiltonian: coefficient times a Pauli string. */
struct PauliTerm
{
    double coefficient = 0.0;
    PauliString pauli;
};

/** A weighted sum of Pauli strings. */
class Hamiltonian
{
  public:
    Hamiltonian() = default;

    void add(double coefficient, const std::string &label)
    {
        terms_.push_back({coefficient, PauliString(label)});
    }

    const std::vector<PauliTerm> &terms() const { return terms_; }

    /** <state| H |state>. */
    double expectation(const StateVector &state) const;

    /**
     * The 1-D Heisenberg XXX chain with transverse field used by the
     * heisenberg benchmark: sum_bonds J (XX + YY + ZZ) + sum_i h Z_i.
     */
    static Hamiltonian heisenbergChain(int num_qubits, double coupling,
                                       double field);

  private:
    std::vector<PauliTerm> terms_;
};

}  // namespace geyser

#endif  // GEYSER_METRICS_OBSERVABLE_HPP
