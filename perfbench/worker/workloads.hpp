/**
 * @file
 * The worker's three workloads. Each prints one JSON object (raw
 * samples, counts and check failures) as its last line of stdout;
 * run.py turns those into the benchmark's metrics.
 */
#ifndef PERFBENCH_WORKER_WORKLOADS_HPP
#define PERFBENCH_WORKER_WORKLOADS_HPP

#include "util.hpp"

namespace perfbench {

int runTable1(const Args &args);
int runTvd(const Args &args);
int runService(const Args &args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKER_WORKLOADS_HPP
