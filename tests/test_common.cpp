/**
 * @file
 * Tests for the common substrate: RNG determinism and distribution
 * shapes, thread-pool behaviour under load and at process exit.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace geyser {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(9);
    std::vector<int> histogram(5, 0);
    for (int i = 0; i < 5000; ++i) {
        const int v = rng.uniformInt(5);
        ASSERT_GE(v, 0);
        ASSERT_LT(v, 5);
        ++histogram[static_cast<size_t>(v)];
    }
    for (const int h : histogram)
        EXPECT_GT(h, 800);  // Roughly uniform.
}

TEST(Rng, BernoulliEdgeProbabilities)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, NormalHasZeroMeanUnitVariance)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, UniformVectorShape)
{
    Rng rng(17);
    const auto v = rng.uniformVector(8, 1.0, 2.0);
    ASSERT_EQ(v.size(), 8u);
    for (const double x : v) {
        EXPECT_GE(x, 1.0);
        EXPECT_LT(x, 2.0);
    }
}

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(3);
    std::atomic<int> counter{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&counter] { ++counter; });
    pool.waitIdle();
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately)
{
    ThreadPool pool(2);
    pool.waitIdle();
    SUCCEED();
}

TEST(ThreadPool, ParallelForHandlesZeroItems)
{
    ThreadPool pool(2);
    pool.parallelFor(0, [](int) { FAIL() << "must not be called"; });
    SUCCEED();
}

TEST(ThreadPool, SizeReflectsWorkerCount)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int batch = 0; batch < 5; ++batch) {
        pool.parallelFor(10, [&counter](int) { ++counter; });
    }
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForPropagatesFirstException)
{
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    // Before the fix this std::terminate'd the process from workerLoop.
    EXPECT_THROW(pool.parallelFor(20,
                                  [&ran](int i) {
                                      ++ran;
                                      if (i == 7)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The whole batch still drained (no task abandoned mid-queue).
    EXPECT_EQ(ran.load(), 20);
    // In-flight bookkeeping stayed exact: the pool is still usable and
    // waitIdle() does not hang.
    std::atomic<int> counter{0};
    pool.parallelFor(10, [&counter](int) { ++counter; });
    EXPECT_EQ(counter.load(), 10);
    pool.waitIdle();
}

TEST(ThreadPool, SubmittedTaskExceptionIsSwallowedAndCounted)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("unobserved"); });
    // Before the fix the skipped --inFlight_ made this hang forever.
    pool.waitIdle();
    EXPECT_EQ(pool.snapshot().exceptions, 1);
    EXPECT_EQ(pool.snapshot().inFlight, 0);
}

TEST(ThreadPool, NestedParallelForOnSingleWorkerPoolRunsInline)
{
    ThreadPool pool(1);
    std::atomic<int> counter{0};
    // A task re-entering parallelFor on its own 1-worker pool used to
    // deadlock: the inner batch could never be scheduled.
    pool.parallelFor(4, [&](int) {
        pool.parallelFor(4, [&](int) { ++counter; });
    });
    EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, NestedParallelForPropagatesInnerException)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(2,
                                  [&](int) {
                                      pool.parallelFor(2, [](int j) {
                                          if (j == 1)
                                              throw std::runtime_error("in");
                                      });
                                  }),
                 std::runtime_error);
    pool.waitIdle();  // Bookkeeping still exact.
}

TEST(ThreadPool, ConcurrentBatchesCompleteIndependently)
{
    ThreadPool pool(2);
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<bool> slowStarted{false};

    // One caller's batch parks a task on the gate...
    std::thread slowCaller([&] {
        pool.parallelFor(1, [&](int) {
            slowStarted = true;
            gate.wait();
        });
    });
    while (!slowStarted)
        std::this_thread::yield();

    // ...and a second caller's batch must still complete: with the old
    // global waitIdle() it would block on the parked task and deadlock,
    // since the gate is only released afterwards.
    std::atomic<int> counter{0};
    pool.parallelFor(8, [&counter](int) { ++counter; });
    EXPECT_EQ(counter.load(), 8);

    release.set_value();
    slowCaller.join();
    pool.waitIdle();
}

TEST(ThreadPool, ProcessExitRightAfterFirstUseIsClean)
{
    // The child's first library call creates the global pool and it
    // returns at once, while the workers may still be starting: the obs
    // registry they touch must outlive the pool's static.
    for (int run = 0; run < 150; ++run) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::execl(GEYSER_POOL_EXIT_CHILD, GEYSER_POOL_EXIT_CHILD,
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "run " << run << ": wait status " << status;
    }
}

}  // namespace
}  // namespace geyser
