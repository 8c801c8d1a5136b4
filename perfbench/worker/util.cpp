#include "util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <stdexcept>
#include <unistd.h>

#include "obs/obs.hpp"

namespace perfbench {

Args::Args(int argc, char **argv, int first)
{
    for (int i = first; i < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            throw std::invalid_argument("expected --key value, got '" + key +
                                        "'");
        values_[key.substr(2)] = argv[i + 1];
    }
}

std::string
Args::str(const std::string &key, const std::string &fallback) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

long
Args::num(const std::string &key, long fallback) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stol(it->second);
}

ProcStats
procStats(pid_t pid)
{
    ProcStats stats;
    const std::string dir = "/proc/" + std::to_string(pid);
    std::ifstream status(dir + "/status");
    std::string line;
    while (std::getline(status, line)) {
        const auto kb = [&](const char *key) {
            return line.rfind(key, 0) == 0
                       ? std::stod(line.substr(std::string(key).size())) /
                             1024.0
                       : -1.0;
        };
        if (const double v = kb("VmHWM:"); v >= 0.0)
            stats.peakRssMb = v;
        else if (const double v = kb("VmSize:"); v >= 0.0)
            stats.vmMb = v;
        else if (line.rfind("Threads:", 0) == 0)
            stats.threads = std::stol(line.substr(8));
    }
    std::ifstream maps(dir + "/maps");
    while (std::getline(maps, line))
        ++stats.mappings;
    if (DIR *fds = opendir((dir + "/fd").c_str())) {
        while (const dirent *entry = readdir(fds)) {
            char target[64] = {};
            const std::string path = dir + "/fd/" + entry->d_name;
            const ssize_t n =
                readlink(path.c_str(), target, sizeof(target) - 1);
            if (n > 0 && std::string(target, static_cast<size_t>(n))
                                 .rfind("socket:", 0) == 0)
                ++stats.sockets;
        }
        closedir(fds);
    }
    return stats;
}

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
    return values[std::min(index, values.size() - 1)];
}

std::map<std::string, long>
counters()
{
    std::map<std::string, long> out;
    for (const auto &[name, value] : geyser::obs::metricsSnapshot().counters)
        out[name] = value;
    return out;
}

double
spanMs(const std::vector<geyser::obs::TraceEvent> &events,
       const std::string &name)
{
    double us = 0.0;
    for (const auto &e : events)
        if (e.phase == 'X' && e.name == name)
            us += static_cast<double>(e.durMicros);
    return us / 1000.0;
}

double
spanMsWhere(const std::vector<geyser::obs::TraceEvent> &events,
            const std::string &name, const std::string &key, double value)
{
    double us = 0.0;
    for (const auto &e : events) {
        if (e.phase != 'X' || e.name != name)
            continue;
        for (const auto &[k, v] : e.numArgs)
            if (k == key && v == value)
                us += static_cast<double>(e.durMicros);
    }
    return us / 1000.0;
}

void
addLayerCounters(Json &layers, const std::map<std::string, long> &before,
                 const std::map<std::string, long> &after,
                 const std::vector<geyser::obs::TraceEvent> &events)
{
    const auto delta = [&](const std::string &name) {
        const auto a = after.find(name);
        const auto b = before.find(name);
        return static_cast<double>((a == after.end() ? 0 : a->second) -
                                   (b == before.end() ? 0 : b->second));
    };
    layers.set("compose.evaluations", delta("compose.evaluations"));
    layers.set("compose.annealing_evaluations",
               delta("compose.annealing_evaluations"));
    layers.set("compose.memo_hits", delta("compose.memo_hits"));
    layers.set("compose.memo_misses", delta("compose.memo_misses"));
    layers.set("compose.splits", delta("compose.splits"));
    layers.set("compose.blocks_composed", delta("compose.blocks_composed"));
    const double composedMs =
        spanMsWhere(events, "compose.block", "composed", 1.0);
    const double failedMs =
        spanMsWhere(events, "compose.block", "composed", 0.0);
    layers.set("compose.composed_block_ms", composedMs);
    layers.set("compose.failed_block_ms", failedMs);
    const double probes = delta("compose.kernel_probes");
    layers.set("kernel.probes", probes);
    layers.set("kernel.full_traces", delta("compose.kernel_full_traces"));
    // Derived: probes over the summed compose.block time.
    const double blockS = (composedMs + failedMs) / 1000.0;
    layers.set("kernel.probes_per_s", blockS > 0.0 ? probes / blockS : 0.0);
    layers.set("transpile.route_ms", spanMs(events, "transpile.route"));
    layers.set("blocking.blocks", delta("blocking.blocks_formed"));
    layers.set("cache.hits", delta("cache.hit"));
    layers.set("cache.misses", delta("cache.miss"));
    layers.set("cache.singleflight_waits", delta("cache.singleflight_wait"));
    layers.set("cache.load_ms", spanMs(events, "cache.load"));
    layers.set("cache.store_ms", spanMs(events, "cache.store"));
}

void
addPoolLayer(Json &layers, double busyMs, double waitMs, double capacityMs)
{
    layers.set("pool.busy_ms", busyMs);
    layers.set("pool.wait_ms", waitMs);
    layers.set("pool.utilization", capacityMs > 0.0 ? busyMs / capacityMs : 0.0);
}

double
poolWaitMs()
{
    for (const auto &[name, h] : geyser::obs::metricsSnapshot().histograms)
        if (name == "pool.task_wait_us")
            return h.sum / 1000.0;
    return 0.0;
}

void
emit(const Json &result)
{
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
}

}  // namespace perfbench
