/**
 * @file
 * Cross-backend parity property suite for the SIMD compute backends
 * (src/linalg/kernels): every compiled-in backend the host can execute
 * must match the scalar reference to 1e-12 on randomized inputs —
 * including unaligned buffers (offset pointers; every kernel documents
 * unaligned tolerance) and tail dimensions (d = 2/4/8/16 plus odd d
 * for the scalar-tail paths). Runs under Sanitize like the rest of
 * the suite, so vector-load overreads or scratch-buffer overflows in a
 * backend show up as ASan faults here.
 *
 * Also covers the dispatch surface: availableBackends() structure,
 * the default (auto) dispatch, the avx2 -> scalar fallback, which
 * requests count as honoured, ScopedBackend save/restore, and the
 * full evaluator-vs-dense-oracle cross-check (verify/kernel_check)
 * once per backend.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "linalg/kernels/backend.hpp"
#include "verify/kernel_check.hpp"

namespace {

using namespace geyser;
using kernels::ComputeBackend;

constexpr double kTol = 1e-12;

/** Usable non-scalar backends (compiled in AND host-supported). */
std::vector<const ComputeBackend *>
simdBackends()
{
    std::vector<const ComputeBackend *> out;
    for (const auto &info : kernels::availableBackends())
        if (info.backend != nullptr && info.name != "scalar")
            out.push_back(info.backend);
    return out;
}

/**
 * Random split buffer with a deliberate misalignment: the returned
 * pointer is `offset` doubles past the allocation start, so a 64-byte
 * aligned vector yields an 8-byte aligned (SIMD-unaligned) pointer.
 */
struct OffsetBuf
{
    std::vector<double> storage;
    double *p = nullptr;

    OffsetBuf(Rng &rng, size_t n, size_t offset)
        : storage(n + offset)
    {
        for (auto &v : storage)
            v = rng.uniform(-1.0, 1.0);
        p = storage.data() + offset;
    }
};

double
maxAbsDiff(const double *a, const double *b, size_t n)
{
    double m = 0.0;
    for (size_t i = 0; i < n; ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

/** Dims exercising full vectors, scalar tail columns, and sub-vector d. */
const int kDims[] = {2, 3, 4, 5, 7, 8, 12, 16};

TEST(BackendDispatch, AvailableBackendsListsBothBestFirst)
{
    const auto backends = kernels::availableBackends();
    ASSERT_EQ(backends.size(), 2u);
    EXPECT_EQ(backends[0].name, "avx2");
    EXPECT_EQ(backends[1].name, "scalar");
    // Scalar is unconditional.
    EXPECT_TRUE(backends[1].compiled);
    EXPECT_TRUE(backends[1].supported);
    ASSERT_NE(backends[1].backend, nullptr);
    EXPECT_STREQ(backends[1].backend->name, "scalar");
    for (const auto &info : backends) {
        // usable <=> compiled && supported.
        EXPECT_EQ(info.backend != nullptr, info.compiled && info.supported)
            << info.name;
        if (info.backend != nullptr) {
            EXPECT_EQ(info.name, info.backend->name);
        }
    }
}

TEST(BackendDispatch, ActiveIsOneOfTheUsableBackends)
{
    const ComputeBackend &active = kernels::active();
    bool found = false;
    for (const auto &info : kernels::availableBackends())
        if (info.backend == &active)
            found = true;
    EXPECT_TRUE(found);
    EXPECT_STREQ(kernels::activeName(), active.name);
}

TEST(BackendDispatch, AutoDispatchPicksTheFirstUsableBackend)
{
    const ComputeBackend *first = nullptr;
    for (const auto &info : kernels::availableBackends()) {
        if (info.backend != nullptr) {
            first = info.backend;
            break;
        }
    }
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(&kernels::resolveBackend("auto"), first);
    if (kernels::requestedName() == "auto") {
        EXPECT_EQ(&kernels::active(), first) << kernels::activeName();
    }
}

TEST(BackendDispatch, ResolveFallsDownTheChain)
{
    // Scalar always resolves to itself.
    EXPECT_STREQ(kernels::resolveBackend("scalar").name, "scalar");
    // avx2 resolves to avx2 where it is usable, else scalar.
    bool avx2Usable = false;
    for (const auto &info : kernels::availableBackends())
        if (info.name == "avx2" && info.backend != nullptr)
            avx2Usable = true;
    EXPECT_STREQ(kernels::resolveBackend("avx2").name,
                 avx2Usable ? "avx2" : "scalar");
}

TEST(BackendDispatch, ScopedBackendOverridesAndRestores)
{
    const std::string before = kernels::activeName();
    {
        kernels::ScopedBackend scoped("scalar");
        EXPECT_TRUE(scoped.honoured());
        EXPECT_STREQ(kernels::activeName(), "scalar");
    }
    EXPECT_EQ(kernels::activeName(), before);
    // Unknown names — including "avx512", whose backend was removed —
    // run the dispatch default but are not reported as honoured.
    for (const char *unknown : {"no-such-isa", "avx512"}) {
        kernels::ScopedBackend scoped(unknown);
        EXPECT_FALSE(scoped.honoured()) << unknown;
        EXPECT_EQ(&kernels::active(), &kernels::resolveBackend("auto"))
            << unknown;
    }
    EXPECT_EQ(kernels::activeName(), before);
    {
        kernels::ScopedBackend scoped("auto");
        EXPECT_TRUE(scoped.honoured());
    }
    EXPECT_EQ(kernels::activeName(), before);
}

TEST(BackendParity, MatmulAndDagger)
{
    Rng rng(2025);
    for (const ComputeBackend *backend : simdBackends()) {
        for (const int d : kDims) {
            for (const size_t offset : {size_t{0}, size_t{1}, size_t{3}}) {
                const size_t n = static_cast<size_t>(d) * d;
                OffsetBuf aRe(rng, n, offset), aIm(rng, n, offset);
                OffsetBuf bRe(rng, n, offset), bIm(rng, n, offset);
                std::vector<double> refRe(n), refIm(n);
                OffsetBuf outRe(rng, n, offset), outIm(rng, n, offset);

                kernels::reference().matmul(aRe.p, aIm.p, bRe.p, bIm.p,
                                            refRe.data(), refIm.data(), d);
                backend->matmul(aRe.p, aIm.p, bRe.p, bIm.p, outRe.p,
                                outIm.p, d);
                EXPECT_LT(maxAbsDiff(refRe.data(), outRe.p, n), kTol)
                    << backend->name << " matmul d=" << d
                    << " offset=" << offset;
                EXPECT_LT(maxAbsDiff(refIm.data(), outIm.p, n), kTol);

                kernels::reference().matmulDagger(aRe.p, aIm.p, bRe.p,
                                                  bIm.p, refRe.data(),
                                                  refIm.data(), d);
                backend->matmulDagger(aRe.p, aIm.p, bRe.p, bIm.p, outRe.p,
                                      outIm.p, d);
                EXPECT_LT(maxAbsDiff(refRe.data(), outRe.p, n), kTol)
                    << backend->name << " matmulDagger d=" << d
                    << " offset=" << offset;
                EXPECT_LT(maxAbsDiff(refIm.data(), outIm.p, n), kTol);
            }
        }
    }
}

TEST(BackendParity, TraceContractions)
{
    Rng rng(2026);
    for (const ComputeBackend *backend : simdBackends()) {
        for (const int d : kDims) {
            for (const size_t offset : {size_t{0}, size_t{1}, size_t{3}}) {
                const size_t n = static_cast<size_t>(d) * d;
                OffsetBuf aRe(rng, n, offset), aIm(rng, n, offset);
                OffsetBuf bRe(rng, n, offset), bIm(rng, n, offset);

                double refR = 0.0, refI = 0.0, gotR = 0.0, gotI = 0.0;
                kernels::reference().traceProduct(aRe.p, aIm.p, bRe.p,
                                                  bIm.p, d, &refR, &refI);
                backend->traceProduct(aRe.p, aIm.p, bRe.p, bIm.p, d, &gotR,
                                      &gotI);
                EXPECT_NEAR(refR, gotR, kTol)
                    << backend->name << " traceProduct d=" << d;
                EXPECT_NEAR(refI, gotI, kTol);

                kernels::reference().traceConjDot(aRe.p, aIm.p, bRe.p,
                                                  bIm.p, n, &refR, &refI);
                backend->traceConjDot(aRe.p, aIm.p, bRe.p, bIm.p, n, &gotR,
                                      &gotI);
                EXPECT_NEAR(refR, gotR, kTol)
                    << backend->name << " traceConjDot n=" << n;
                EXPECT_NEAR(refI, gotI, kTol);
            }
        }
    }
}

TEST(BackendParity, Apply2x2RowsAndCols)
{
    Rng rng(2027);
    for (const ComputeBackend *backend : simdBackends()) {
        for (const int d : {2, 4, 8, 16}) {
            for (int bit = 1; bit < d; bit <<= 1) {
                for (const size_t offset :
                     {size_t{0}, size_t{1}, size_t{3}}) {
                    const size_t n = static_cast<size_t>(d) * d;
                    OffsetBuf re(rng, n, offset), im(rng, n, offset);
                    double uRe[4], uIm[4];
                    for (int i = 0; i < 4; ++i) {
                        uRe[i] = rng.uniform(-1.0, 1.0);
                        uIm[i] = rng.uniform(-1.0, 1.0);
                    }
                    std::vector<double> refRe(re.p, re.p + n);
                    std::vector<double> refIm(im.p, im.p + n);

                    kernels::reference().apply2x2Rows(refRe.data(),
                                                      refIm.data(), uRe,
                                                      uIm, bit, d);
                    backend->apply2x2Rows(re.p, im.p, uRe, uIm, bit, d);
                    EXPECT_LT(maxAbsDiff(refRe.data(), re.p, n), kTol)
                        << backend->name << " apply2x2Rows d=" << d
                        << " bit=" << bit << " offset=" << offset;
                    EXPECT_LT(maxAbsDiff(refIm.data(), im.p, n), kTol);

                    kernels::reference().apply2x2Cols(refRe.data(),
                                                      refIm.data(), uRe,
                                                      uIm, bit, d);
                    backend->apply2x2Cols(re.p, im.p, uRe, uIm, bit, d);
                    EXPECT_LT(maxAbsDiff(refRe.data(), re.p, n), kTol)
                        << backend->name << " apply2x2Cols d=" << d
                        << " bit=" << bit << " offset=" << offset;
                    EXPECT_LT(maxAbsDiff(refIm.data(), im.p, n), kTol);
                }
            }
        }
    }
}

TEST(BackendParity, FlipRowsAndCols)
{
    Rng rng(2028);
    for (const ComputeBackend *backend : simdBackends()) {
        for (const int d : {2, 4, 8, 16}) {
            for (const int mask : {1, 3, d - 1}) {
                const size_t n = static_cast<size_t>(d) * d;
                OffsetBuf re(rng, n, 1), im(rng, n, 1);
                std::vector<double> refRe(re.p, re.p + n);
                std::vector<double> refIm(im.p, im.p + n);

                kernels::reference().flipRows(refRe.data(), refIm.data(),
                                              mask, d);
                backend->flipRows(re.p, im.p, mask, d);
                EXPECT_LT(maxAbsDiff(refRe.data(), re.p, n), kTol)
                    << backend->name << " flipRows d=" << d;

                kernels::reference().flipCols(refRe.data(), refIm.data(),
                                              mask, d);
                backend->flipCols(re.p, im.p, mask, d);
                EXPECT_LT(maxAbsDiff(refRe.data(), re.p, n), kTol)
                    << backend->name << " flipCols d=" << d;
            }
        }
    }
}

TEST(BackendParity, FoldW)
{
    Rng rng(2029);
    for (const ComputeBackend *backend : simdBackends()) {
        for (int numQubits = 1; numQubits <= 4; ++numQubits) {
            const int dim = 1 << numQubits;
            const size_t n = static_cast<size_t>(dim) * dim;
            for (int qubit = 0; qubit < numQubits; ++qubit) {
                for (const size_t offset : {size_t{0}, size_t{1}}) {
                    OffsetBuf envRe(rng, n, offset), envIm(rng, n, offset);
                    double u3Re[4][4], u3Im[4][4];
                    for (int q = 0; q < 4; ++q)
                        kernels::u3Entries(rng.uniform(0.0, 2.0 * kPi),
                                           rng.uniform(0.0, 2.0 * kPi),
                                           rng.uniform(0.0, 2.0 * kPi),
                                           u3Re[q], u3Im[q]);
                    double refRe[4], refIm[4], gotRe[4], gotIm[4];
                    kernels::reference().foldW(envRe.p, envIm.p, u3Re,
                                               u3Im, numQubits, qubit,
                                               refRe, refIm);
                    backend->foldW(envRe.p, envIm.p, u3Re, u3Im, numQubits,
                                   qubit, gotRe, gotIm);
                    EXPECT_LT(maxAbsDiff(refRe, gotRe, 4), kTol)
                        << backend->name << " foldW n=" << numQubits
                        << " q=" << qubit;
                    EXPECT_LT(maxAbsDiff(refIm, gotIm, 4), kTol);
                }
            }
        }
    }
}

TEST(BackendParity, ProbeBatch)
{
    Rng rng(2030);
    for (const ComputeBackend *backend : simdBackends()) {
        for (const int count : {1, 2, 3, 6}) {
            for (const size_t offset : {size_t{0}, size_t{1}}) {
                OffsetBuf wRe(rng, 4, offset), wIm(rng, 4, offset);
                OffsetBuf u3Re(rng, static_cast<size_t>(count) * 4, offset);
                OffsetBuf u3Im(rng, static_cast<size_t>(count) * 4, offset);
                std::vector<double> refRe(static_cast<size_t>(count));
                std::vector<double> refIm(static_cast<size_t>(count));
                std::vector<double> gotRe(static_cast<size_t>(count));
                std::vector<double> gotIm(static_cast<size_t>(count));
                kernels::reference().probeBatch(wRe.p, wIm.p, u3Re.p,
                                                u3Im.p, count,
                                                refRe.data(), refIm.data());
                backend->probeBatch(wRe.p, wIm.p, u3Re.p, u3Im.p, count,
                                    gotRe.data(), gotIm.data());
                EXPECT_LT(maxAbsDiff(refRe.data(), gotRe.data(),
                                     static_cast<size_t>(count)),
                          kTol)
                    << backend->name << " probeBatch count=" << count;
                EXPECT_LT(maxAbsDiff(refIm.data(), gotIm.data(),
                                     static_cast<size_t>(count)),
                          kTol);
            }
        }
    }
}

TEST(BackendParity, StatevectorKernels)
{
    Rng rng(2031);
    for (const ComputeBackend *backend : simdBackends()) {
        for (int numQubits = 1; numQubits <= 6; ++numQubits) {
            const size_t dim = size_t{1} << numQubits;
            std::vector<Complex> base(dim);
            for (auto &a : base)
                a = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};

            Complex u1[4];
            for (auto &v : u1)
                v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
            for (int q = 0; q < numQubits; ++q) {
                std::vector<Complex> ref = base, got = base;
                kernels::reference().svApply1q(ref.data(), dim, q, u1);
                backend->svApply1q(got.data(), dim, q, u1);
                for (size_t i = 0; i < dim; ++i)
                    EXPECT_LT(std::abs(ref[i] - got[i]), kTol)
                        << backend->name << " svApply1q n=" << numQubits
                        << " q=" << q;
            }

            if (numQubits < 2)
                continue;
            Complex u2[16];
            for (auto &v : u2)
                v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
            for (int q0 = 0; q0 < numQubits; ++q0) {
                for (int q1 = 0; q1 < numQubits; ++q1) {
                    if (q0 == q1)
                        continue;
                    std::vector<Complex> ref = base, got = base;
                    kernels::reference().svApply2q(ref.data(), dim, q0, q1,
                                                   u2);
                    backend->svApply2q(got.data(), dim, q0, q1, u2);
                    for (size_t i = 0; i < dim; ++i)
                        EXPECT_LT(std::abs(ref[i] - got[i]), kTol)
                            << backend->name << " svApply2q n=" << numQubits
                            << " q0=" << q0 << " q1=" << q1;
                }
            }
        }
    }
}

/** Randomized ansatz shapes/angles, full evaluator vs the dense oracle
 *  (pinned to the scalar reference) once per usable backend. */
TEST(BackendParity, EvaluatorMatchesDenseOracleOnEveryBackend)
{
    for (const auto &info : kernels::availableBackends()) {
        if (info.backend == nullptr)
            continue;
        kernels::ScopedBackend scoped(info.name);
        ASSERT_TRUE(scoped.honoured()) << info.name;
        verify::KernelCheckOptions options;
        options.trials = 6;
        options.seed = 777;
        const auto report = verify::checkComposeKernel(options);
        EXPECT_TRUE(report.pass)
            << info.name << ": " << report.detail;
        EXPECT_LT(report.maxDeviation, options.tolerance) << info.name;
    }
}

}  // namespace
