/**
 * @file
 * Unit tests for the common/thread_pool engine: job-count resolution,
 * index coverage and slot placement under parallelFor, exception
 * propagation to the calling thread, drain-on-destruct, the
 * utilization accounting, and that the workers really run at once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hh"

using namespace lbp;

TEST(ResolveJobs, ExplicitRequestWins)
{
    ASSERT_EQ(setenv("REPRO_JOBS", "7", 1), 0);
    EXPECT_EQ(resolveJobs(3), 3u);
    unsetenv("REPRO_JOBS");
    // Capped like REPRO_JOBS: a wrapped -1 never reaches a pool.
    EXPECT_EQ(resolveJobs(4294967295u), 1024u);
}

TEST(ResolveJobs, ReadsReproJobsEnv)
{
    ASSERT_EQ(setenv("REPRO_JOBS", "5", 1), 0);
    EXPECT_EQ(resolveJobs(0), 5u);
    ASSERT_EQ(setenv("REPRO_JOBS", "999999", 1), 0);
    EXPECT_EQ(resolveJobs(0), 1024u);  // sanity clamp
    ASSERT_EQ(setenv("REPRO_JOBS", "0", 1), 0);
    EXPECT_GE(resolveJobs(0), 1u);     // 0 falls through to hardware
    unsetenv("REPRO_JOBS");
    EXPECT_GE(resolveJobs(0), 1u);
}

TEST(ThreadPool, WorkerCountClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    constexpr std::size_t kN = 500;
    ThreadPool pool(4);
    std::vector<std::atomic<unsigned>> hits(kN);
    std::vector<std::size_t> slot(kN, 0);
    pool.parallelFor(kN, [&](std::size_t i) {
        hits[i].fetch_add(1);
        slot[i] = i * i;  // each index writes only its own slot
    });
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
        EXPECT_EQ(slot[i], i * i) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForZeroIsNoop)
{
    ThreadPool pool(2);
    bool ran = false;
    pool.parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, ExceptionPropagatesThroughWait)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);

    // The error is cleared on rethrow: the pool stays usable.
    std::atomic<int> ok{0};
    pool.submit([&] { ++ok; });
    pool.wait();
    EXPECT_EQ(ok.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesThroughParallelFor)
{
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallelFor(16,
                                  [&](std::size_t i) {
                                      if (i == 7)
                                          throw std::logic_error("bad");
                                  }),
                 std::logic_error);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 32; ++i)
            pool.submit([&] { ++done; });
        // No wait(): destruction must still run every queued task.
    }
    EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, BusySecondsTracksEachWorker)
{
    ThreadPool pool(3);
    std::atomic<std::uint64_t> sink{0};
    pool.parallelFor(6, [&](std::size_t) {
        std::uint64_t x = 0;
        for (int i = 0; i < 100000; ++i)
            x += static_cast<std::uint64_t>(i);
        sink += x;  // keep the loop observable
    });
    const std::vector<double> busy = pool.busySeconds();
    ASSERT_EQ(busy.size(), 3u);
    for (const double b : busy)
        EXPECT_GE(b, 0.0);
    const double total =
        std::accumulate(busy.begin(), busy.end(), 0.0);
    EXPECT_GT(total, 0.0);
}

TEST(ThreadPool, WorkersRunConcurrently)
{
    // Each of four tasks waits until all four have started, which only
    // happens when four workers run them at once. Deterministic on any
    // host: time-slicing delays the rendezvous but cannot prevent it.
    // The wait is bounded so a pool that serialises its workers fails
    // instead of hanging. (Bit-identical results at any worker count
    // are Determinism.ParallelMatchesSerial's job.)
    constexpr std::size_t kTasks = 4;
    ThreadPool pool(kTasks);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t started = 0;
    std::size_t metAll = 0;
    std::vector<int> worker(kTasks, -1);
    pool.parallelFor(kTasks, [&](std::size_t i) {
        worker[i] = ThreadPool::currentIndex();
        std::unique_lock<std::mutex> lk(mu);
        ++started;
        cv.notify_all();
        if (cv.wait_for(lk, std::chrono::seconds(60),
                        [&] { return started == kTasks; }))
            ++metAll;
    });
    EXPECT_EQ(metAll, kTasks) << "tasks timed out waiting for the others";
    std::sort(worker.begin(), worker.end());
    EXPECT_EQ(worker, (std::vector<int>{0, 1, 2, 3}))
        << "each task must run on its own worker";
}
