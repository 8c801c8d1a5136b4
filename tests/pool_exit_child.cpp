/**
 * @file
 * A process whose first library call creates the global thread pool and
 * which returns at once, while the pool's workers may still be starting
 * (ThreadPool.ProcessExitRightAfterFirstUseIsClean runs it in a loop).
 */
#include "common/thread_pool.hpp"

int
main()
{
    return geyser::globalPool().snapshot().workers > 0 ? 0 : 1;
}
