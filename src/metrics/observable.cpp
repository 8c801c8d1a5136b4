#include "metrics/observable.hpp"

#include <stdexcept>

namespace geyser {

PauliString::PauliString(const std::string &label) : ops_(label)
{
    for (const char c : ops_)
        if (c != 'I' && c != 'X' && c != 'Y' && c != 'Z')
            throw std::invalid_argument("PauliString: bad operator " +
                                        std::string(1, c));
}

double
PauliString::expectation(const StateVector &state) const
{
    if (numQubits() > state.numQubits())
        throw std::invalid_argument("PauliString: state too narrow");
    // Apply P to a copy and take the inner product with the original.
    StateVector transformed = state;
    for (int q = 0; q < numQubits(); ++q) {
        switch (op(q)) {
          case 'X':
            transformed.applyX(q);
            break;
          case 'Y':
            transformed.applyY(q);
            break;
          case 'Z':
            transformed.applyZ(q);
            break;
          default:
            break;
        }
    }
    // The raw amplitudes are the state scaled by sqrt(w).
    return state.innerProduct(transformed).real() / state.weight();
}

double
Hamiltonian::expectation(const StateVector &state) const
{
    double total = 0.0;
    for (const auto &term : terms_)
        total += term.coefficient * term.pauli.expectation(state);
    return total;
}

Hamiltonian
Hamiltonian::heisenbergChain(int num_qubits, double coupling, double field)
{
    Hamiltonian h;
    for (int q = 0; q + 1 < num_qubits; ++q) {
        std::string xx(static_cast<size_t>(num_qubits), 'I');
        std::string yy = xx, zz = xx;
        xx[static_cast<size_t>(q)] = xx[static_cast<size_t>(q) + 1] = 'X';
        yy[static_cast<size_t>(q)] = yy[static_cast<size_t>(q) + 1] = 'Y';
        zz[static_cast<size_t>(q)] = zz[static_cast<size_t>(q) + 1] = 'Z';
        h.add(coupling, xx);
        h.add(coupling, yy);
        h.add(coupling, zz);
    }
    for (int q = 0; q < num_qubits; ++q) {
        std::string z(static_cast<size_t>(num_qubits), 'I');
        z[static_cast<size_t>(q)] = 'Z';
        h.add(field, z);
    }
    return h;
}

}  // namespace geyser
