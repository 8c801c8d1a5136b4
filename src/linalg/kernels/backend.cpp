/**
 * @file
 * Backend dispatch: picks AVX2 when it is compiled in and the host CPU
 * supports it, else scalar, once, at first use — overridable with
 * GEYSER_BACKEND and, for tests, ScopedBackend. Compiled with the
 * default (portable) flags; the only ISA-specific code it touches is
 * behind the CPUID check below.
 *
 * GEYSER_HAVE_AVX2 is defined by the build when the AVX2 TU is
 * compiled in (x86-64 and the compiler accepts the flags); on other
 * architectures only the scalar backend exists.
 */
#include "linalg/kernels/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>

namespace geyser {
namespace kernels {

#if defined(GEYSER_HAVE_AVX2)
const ComputeBackend &avx2Backend();
#endif

namespace {

bool
hostSupportsAvx2()
{
#if defined(GEYSER_HAVE_AVX2)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

const ComputeBackend *
avx2OrNull()
{
#if defined(GEYSER_HAVE_AVX2)
    if (hostSupportsAvx2())
        return &avx2Backend();
#endif
    return nullptr;
}

/** Best usable backend on this host (the "auto" resolution). */
const ComputeBackend *
bestBackend()
{
    if (const ComputeBackend *b = avx2OrNull())
        return b;
    return &scalarBackend();
}

/**
 * Resolve a name to the backend that would run. `honoured` reports
 * whether the request was served as asked: true for "auto" and for an
 * exact backend name the host can run; false for an unusable or
 * unknown name, which runs the dispatch default instead (for "avx2"
 * on a host without it, that default is scalar).
 */
const ComputeBackend *
resolveOrFallback(const std::string &name, bool *honoured)
{
    const ComputeBackend *backend = nullptr;
    if (name == "scalar")
        backend = &scalarBackend();
    else if (name == "avx2")
        backend = avx2OrNull();
    else if (name == "auto")
        backend = bestBackend();
    if (honoured)
        *honoured = backend != nullptr;
    return backend ? backend : bestBackend();
}

std::atomic<const ComputeBackend *> &
activeSlot()
{
    static std::atomic<const ComputeBackend *> slot{nullptr};
    return slot;
}

std::string &
requestedSlot()
{
    static std::string requested;
    return requested;
}

std::once_flag &
initFlag()
{
    static std::once_flag flag;
    return flag;
}

void
initDispatch()
{
    const char *env = std::getenv("GEYSER_BACKEND");
    const std::string name = env && *env ? env : "auto";
    requestedSlot() = name;
    activeSlot().store(resolveOrFallback(name, nullptr),
                       std::memory_order_release);
}

void
ensureInit()
{
    std::call_once(initFlag(), initDispatch);
}

}  // namespace

const ComputeBackend &
active()
{
    ensureInit();
    return *activeSlot().load(std::memory_order_acquire);
}

const char *
activeName()
{
    return active().name;
}

const std::string &
requestedName()
{
    ensureInit();
    return requestedSlot();
}

const ComputeBackend &
resolveBackend(const std::string &name)
{
    return *resolveOrFallback(name, nullptr);
}

bool
setActive(const std::string &name)
{
    ensureInit();
    bool honoured = false;
    const ComputeBackend *backend = resolveOrFallback(name, &honoured);
    activeSlot().store(backend, std::memory_order_release);
    return honoured;
}

std::vector<BackendInfo>
availableBackends()
{
    std::vector<BackendInfo> out;
    {
        BackendInfo info;
        info.name = "avx2";
#if defined(GEYSER_HAVE_AVX2)
        info.compiled = true;
#endif
        info.supported = hostSupportsAvx2();
        info.backend = avx2OrNull();
        out.push_back(info);
    }
    {
        BackendInfo info;
        info.name = "scalar";
        info.compiled = true;
        info.supported = true;
        info.backend = &scalarBackend();
        out.push_back(info);
    }
    return out;
}

ScopedBackend::ScopedBackend(const std::string &name)
    : previous_(&active()), honoured_(setActive(name))
{
}

ScopedBackend::~ScopedBackend()
{
    activeSlot().store(previous_, std::memory_order_release);
}

}  // namespace kernels
}  // namespace geyser
