/**
 * @file
 * perfbench_worker: the in-process half of the Geyser benchmark.
 *
 *   perfbench_worker table1  [--trace 0|1] [--check 0|1]
 *   perfbench_worker tvd     --seed <n> --seconds <s> [--trace 0|1]
 *   perfbench_worker service --seed <n> --seconds <s> --geyserd <path>
 *                            --workdir <dir> [--trace 0|1]
 *
 * Each mode prints one JSON object as the last line of stdout and exits
 * 0, or prints a diagnostic to stderr and exits 1.
 */
#include <cstdio>
#include <cstring>
#include <exception>

#include "workloads.hpp"

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s table1|tvd|service [--key value]...\n",
                     argv[0]);
        return 2;
    }
    try {
        const perfbench::Args args(argc, argv, 2);
        if (std::strcmp(argv[1], "table1") == 0)
            return perfbench::runTable1(args);
        if (std::strcmp(argv[1], "tvd") == 0)
            return perfbench::runTvd(args);
        if (std::strcmp(argv[1], "service") == 0)
            return perfbench::runService(args);
        std::fprintf(stderr, "unknown mode '%s'\n", argv[1]);
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_worker: %s\n", e.what());
        return 1;
    }
}
