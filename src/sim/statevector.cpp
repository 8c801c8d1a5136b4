#include "sim/statevector.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "linalg/kernels/backend.hpp"

namespace geyser {

namespace {

/**
 * Weight bound below which a damped state is rescaled to weight 1 by an
 * exact sum. The bound is the product of (1 - gamma) over the no-jump
 * steps since the weight was last 1, a lower bound on the weight, so a
 * rescale comes before the amplitudes can underflow. At the Fig-15
 * damping rate (0.001) a rescale, two full passes, comes once per ~690
 * no-jump steps.
 */
constexpr double kWeightFloor = 0.5;

/**
 * Calls f(i), in increasing order, for every index i in [0, dim) whose
 * bits in `masks` (single-bit masks, ascending) are all clear. Each
 * mask is one level of nested strides, so only the dim >> N visited
 * indices cost a loop step.
 */
template <size_t N, typename F>
void
forEachClear(size_t dim, const std::array<size_t, N> &masks, F &&f)
{
    if constexpr (N == 0) {
        for (size_t i = 0; i < dim; ++i)
            f(i);
    } else {
        const size_t top = masks[N - 1];
        std::array<size_t, N - 1> lower{};
        std::copy_n(masks.begin(), N - 1, lower.begin());
        for (size_t base = 0; base < dim; base += 2 * top)
            forEachClear(top, lower, [&](size_t i) { f(base + i); });
    }
}

/** Ascending single-bit masks of distinct qubits. */
template <size_t N>
std::array<size_t, N>
sortedMasks(const std::array<Qubit, N> &qubits)
{
    std::array<size_t, N> masks{};
    for (size_t k = 0; k < N; ++k)
        masks[k] = size_t{1} << qubits[k];
    std::sort(masks.begin(), masks.end());
    for (size_t k = 1; k < N; ++k)
        assert(masks[k - 1] != masks[k]);
    return masks;
}

}  // namespace

StateVector::StateVector(int num_qubits)
    : StateVector(num_qubits, 0)
{
}

StateVector::StateVector(int num_qubits, size_t basis_index)
    : numQubits_(num_qubits), amps_(size_t{1} << num_qubits)
{
    if (num_qubits < 0 || num_qubits > 28)
        throw std::invalid_argument("StateVector: unsupported qubit count");
    if (basis_index >= amps_.size())
        throw std::out_of_range("StateVector: basis index out of range");
    amps_[basis_index] = 1.0;
}

void
StateVector::apply(const Gate &gate)
{
    // Fast paths for the common physical gates.
    switch (gate.kind()) {
      case GateKind::X:
        applyX(gate.qubit(0));
        return;
      case GateKind::Z:
        applyZ(gate.qubit(0));
        return;
      case GateKind::Y:
        applyY(gate.qubit(0));
        return;
      case GateKind::CZ: {
        const auto m = sortedMasks<2>({gate.qubit(0), gate.qubit(1)});
        Complex *const a11 = amps_.data() + (m[0] | m[1]);
        forEachClear(amps_.size(), m, [&](size_t i) { a11[i] = -a11[i]; });
        return;
      }
      case GateKind::CCZ: {
        const auto m =
            sortedMasks<3>({gate.qubit(0), gate.qubit(1), gate.qubit(2)});
        Complex *const a111 = amps_.data() + (m[0] | m[1] | m[2]);
        forEachClear(amps_.size(), m, [&](size_t i) { a111[i] = -a111[i]; });
        return;
      }
      default:
        break;
    }
    std::vector<Qubit> qs;
    qs.reserve(static_cast<size_t>(gate.numQubits()));
    for (int i = 0; i < gate.numQubits(); ++i)
        qs.push_back(gate.qubit(i));
    applyMatrix(gate.matrix(), qs);
}

void
StateVector::apply(const Circuit &circuit)
{
    if (circuit.numQubits() > numQubits_)
        throw std::invalid_argument("StateVector::apply: circuit too wide");
    for (const auto &g : circuit.gates())
        apply(g);
}

void
StateVector::applyMatrix(const Matrix &m, const std::vector<Qubit> &qubits)
{
    const int k = static_cast<int>(qubits.size());
    const size_t sub = size_t{1} << k;
    if (m.rows() != static_cast<int>(sub) || m.cols() != static_cast<int>(sub))
        throw std::invalid_argument("applyMatrix: matrix/qubit mismatch");

    // Masks of the target qubits, and the mask of all of them.
    size_t qmask = 0;
    for (Qubit q : qubits) {
        assert(q >= 0 && q < numQubits_);
        qmask |= size_t{1} << q;
    }

    // One- and two-qubit gates — the overwhelmingly common cases — go
    // through the dispatched compute backend instead of the generic
    // gather/scatter loop below.
    if (k == 1) {
        Complex u[4];
        for (int r = 0; r < 2; ++r)
            for (int c = 0; c < 2; ++c)
                u[r * 2 + c] = m(r, c);
        kernels::active().svApply1q(amps_.data(), amps_.size(), qubits[0],
                                    u);
        return;
    }
    if (k == 2 && qubits[0] != qubits[1]) {
        Complex u[16];
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                u[r * 4 + c] = m(r, c);
        kernels::active().svApply2q(amps_.data(), amps_.size(), qubits[0],
                                    qubits[1], u);
        return;
    }

    Complex local[8], out[8];
    const size_t outer = amps_.size() >> k;
    for (size_t o = 0; o < outer; ++o) {
        // Scatter the outer index bits into the non-target positions.
        size_t base = 0;
        size_t rem = o;
        for (int bit = 0; bit < numQubits_; ++bit) {
            const size_t bmask = size_t{1} << bit;
            if (qmask & bmask)
                continue;
            if (rem & 1)
                base |= bmask;
            rem >>= 1;
        }
        // Gather the 2^k amplitudes of this subspace.
        for (size_t v = 0; v < sub; ++v) {
            size_t idx = base;
            for (int b = 0; b < k; ++b)
                if (v & (size_t{1} << b))
                    idx |= size_t{1} << qubits[static_cast<size_t>(b)];
            local[v] = amps_[idx];
        }
        for (size_t r = 0; r < sub; ++r) {
            Complex acc{};
            for (size_t c = 0; c < sub; ++c)
                acc += m(static_cast<int>(r), static_cast<int>(c)) * local[c];
            out[r] = acc;
        }
        for (size_t v = 0; v < sub; ++v) {
            size_t idx = base;
            for (int b = 0; b < k; ++b)
                if (v & (size_t{1} << b))
                    idx |= size_t{1} << qubits[static_cast<size_t>(b)];
            amps_[idx] = out[v];
        }
    }
}

void
StateVector::applyX(Qubit q)
{
    const size_t mask = size_t{1} << q;
    Complex *const a0 = amps_.data();
    Complex *const a1 = a0 + mask;  // a1[i] is the q=1 partner of a0[i]
    forEachClear<1>(amps_.size(), {mask},
                    [&](size_t i) { std::swap(a0[i], a1[i]); });
}

void
StateVector::applyZ(Qubit q)
{
    const size_t mask = size_t{1} << q;
    Complex *const a1 = amps_.data() + mask;
    forEachClear<1>(amps_.size(), {mask}, [&](size_t i) { a1[i] = -a1[i]; });
}

void
StateVector::applyY(Qubit q)
{
    const size_t mask = size_t{1} << q;
    Complex *const a0 = amps_.data();
    Complex *const a1 = a0 + mask;
    forEachClear<1>(amps_.size(), {mask}, [&](size_t i) {
        const Complex v0 = a0[i];
        const Complex v1 = a1[i];
        a0[i] = -kI * v1;
        a1[i] = kI * v0;
    });
}

bool
StateVector::applyAmplitudeDamping(Qubit q, double gamma, double u)
{
    const size_t mask = size_t{1} << q;
    Complex *const a0 = amps_.data();
    Complex *const a1 = a0 + mask;
    // The jump probability gamma * S1 / w never exceeds gamma, so only
    // a draw below gamma needs the q=1 half's weight S1 (and w, when a
    // no-jump step has left it lazy) before deciding.
    if (u < gamma) {
        double s0 = 0.0, s1 = 0.0;
        forEachClear<1>(amps_.size(), {mask}, [&](size_t i) {
            s0 += std::norm(a0[i]);
            s1 += std::norm(a1[i]);
        });
        const double w = damped_ ? s0 + s1 : 1.0;
        if (u < gamma * s1 / w) {
            // Jump (K1): every q=1 amplitude moves to its q=0 partner —
            // K1|psi> has no other support, so overwriting the old q=0
            // amplitudes is exactly the channel's action.
            const double inv = 1.0 / std::sqrt(s1);
            forEachClear<1>(amps_.size(), {mask}, [&](size_t i) {
                a0[i] = a1[i] * inv;
                a1[i] = 0.0;
            });
            damped_ = false;
            bound_ = 1.0;
            return true;
        }
    }
    // No jump (K0 = diag(1, sqrt(1 - gamma))): scale the q=1 half. The
    // q=0 half is not touched; the weight carries the renormalization.
    const double scale = std::sqrt(1.0 - gamma);
    forEachClear<1>(amps_.size(), {mask}, [&](size_t i) { a1[i] *= scale; });
    noteNoJump(gamma, 1);
    return false;
}

bool
StateVector::fusesNoJump(const Gate &gate)
{
    return gate.numQubits() == 1 || gate.kind() == GateKind::CZ ||
           gate.kind() == GateKind::CCZ;
}

void
StateVector::applyNoJumpFused(const Gate &gate, double gamma,
                              const Complex *k0u)
{
    Complex *const a = amps_.data();
    const double s = std::sqrt(1.0 - gamma);
    const double s2 = s * s;
    switch (gate.numQubits()) {
      case 1:
        kernels::active().svApply1q(a, amps_.size(), gate.qubit(0), k0u);
        break;
      case 2: {
        assert(gate.kind() == GateKind::CZ);
        const auto m = sortedMasks<2>({gate.qubit(0), gate.qubit(1)});
        forEachClear(amps_.size(), m, [&](size_t i) {
            a[i | m[0]] *= s;
            a[i | m[1]] *= s;
            a[i | m[0] | m[1]] *= -s2;
        });
        break;
      }
      default: {
        assert(gate.kind() == GateKind::CCZ);
        const double s3 = s2 * s;
        const auto m =
            sortedMasks<3>({gate.qubit(0), gate.qubit(1), gate.qubit(2)});
        forEachClear(amps_.size(), m, [&](size_t i) {
            a[i | m[0]] *= s;
            a[i | m[1]] *= s;
            a[i | m[2]] *= s;
            a[i | m[0] | m[1]] *= s2;
            a[i | m[0] | m[2]] *= s2;
            a[i | m[1] | m[2]] *= s2;
            a[i | m[0] | m[1] | m[2]] *= -s3;
        });
        break;
      }
    }
    noteNoJump(gamma, gate.numQubits());
}

void
StateVector::noteNoJump(double gamma, int steps)
{
    damped_ = true;
    for (int k = 0; k < steps; ++k)
        bound_ *= 1.0 - gamma;
    if (bound_ < kWeightFloor)
        renormalize();
}

void
StateVector::renormalize()
{
    const double inv = 1.0 / std::sqrt(normSquared());
    for (auto &a : amps_)
        a *= inv;
    damped_ = false;
    bound_ = 1.0;
}

Distribution
StateVector::probabilities() const
{
    const double w = weight();
    Distribution p(amps_.size());
    for (size_t i = 0; i < amps_.size(); ++i)
        p[i] = std::norm(amps_[i]) / w;
    return p;
}

Complex
StateVector::innerProduct(const StateVector &other) const
{
    if (dim() != other.dim())
        throw std::invalid_argument("innerProduct: dimension mismatch");
    Complex acc{};
    for (size_t i = 0; i < amps_.size(); ++i)
        acc += std::conj(amps_[i]) * other.amps_[i];
    return acc;
}

double
StateVector::normSquared() const
{
    double s = 0.0;
    for (const auto &a : amps_)
        s += std::norm(a);
    return s;
}

Distribution
idealDistribution(const Circuit &circuit)
{
    StateVector sv(circuit.numQubits());
    sv.apply(circuit);
    return sv.probabilities();
}

}  // namespace geyser
