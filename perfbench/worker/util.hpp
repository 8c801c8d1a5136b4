/**
 * @file
 * Shared plumbing for the benchmark worker: argument parsing, timing,
 * process statistics from /proc, and reading the program's own obs
 * counters and spans. Nothing here adds tracing to the program; it only
 * reads what the library already records.
 */
#ifndef PERFBENCH_WORKER_UTIL_HPP
#define PERFBENCH_WORKER_UTIL_HPP

#include <chrono>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace perfbench {

using geyser::obs::Json;

/** "--key value" pairs after the mode word; flags without a value throw. */
class Args
{
  public:
    Args(int argc, char **argv, int first);
    std::string str(const std::string &key, const std::string &fallback) const;
    long num(const std::string &key, long fallback) const;

  private:
    std::map<std::string, std::string> values_;
};

/** Seconds on the monotonic clock. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Resource figures of one process, read from /proc/<pid>. */
struct ProcStats
{
    double peakRssMb = 0.0;  ///< VmHWM.
    double vmMb = 0.0;       ///< VmSize.
    long threads = 0;
    long mappings = 0;       ///< Lines of /proc/<pid>/maps.
    long sockets = 0;        ///< fds that are sockets.
};
ProcStats procStats(pid_t pid);

/** splitmix64: derives every seeded choice the benchmark makes. */
uint64_t mix(uint64_t x);

/** Value of the sample at rank ceil(q * n) (1-based); 0 when empty. */
double percentile(std::vector<double> values, double q);

/** Snapshot of the obs counters by name. */
std::map<std::string, long> counters();

/** Summed wall time (ms) of recorded spans named `name`. */
double spanMs(const std::vector<geyser::obs::TraceEvent> &events,
              const std::string &name);

/**
 * Summed wall time (ms) of `name` spans whose numeric arg `key`
 * equals `value`.
 */
double spanMsWhere(const std::vector<geyser::obs::TraceEvent> &events,
                   const std::string &name, const std::string &key,
                   double value);

/**
 * Per-layer figures common to every workload, from counter values
 * before and after a traced stretch of work and the spans it recorded:
 * the transpile, blocking, compose, kernel and cache layers.
 */
void addLayerCounters(Json &layers, const std::map<std::string, long> &before,
                      const std::map<std::string, long> &after,
                      const std::vector<geyser::obs::TraceEvent> &events);

/**
 * The thread-pool layer: time inside tasks, time tasks waited in the
 * queue, and busy time as a share of `capacityMs` (workers x wall).
 */
void addPoolLayer(Json &layers, double busyMs, double waitMs,
                  double capacityMs);

/** Summed pool.task_wait_us of the in-process obs registry, in ms. */
double poolWaitMs();

/** Print the worker's result object as the last line of stdout. */
void emit(const Json &result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKER_UTIL_HPP
