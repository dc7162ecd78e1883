#include "common/thread_pool.hh"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/count.hh"
#include "common/telemetry.hh"

namespace lbp {

unsigned
resolveJobs(unsigned requested)
{
    std::uint64_t jobs = requested;
    if (!jobs)
        jobs = envCount("REPRO_JOBS", 0,
                        std::numeric_limits<unsigned>::max());
    if (!jobs)
        jobs = std::thread::hardware_concurrency();
    return jobs ? static_cast<unsigned>(
                      std::min<std::uint64_t>(jobs, 1024))
                : 1;
}

ThreadPool::ThreadPool(unsigned workers)
{
    const unsigned n = std::max(1u, workers);
    busy_.assign(n, 0.0);
    threads_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cvTask_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        queue_.push_back(std::move(task));
    }
    cvTask_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lk(mu_);
    cvIdle_.wait(lk, [&] { return queue_.empty() && active_ == 0; });
    if (firstError_) {
        std::exception_ptr err = firstError_;
        firstError_ = nullptr;
        lk.unlock();
        std::rethrow_exception(err);
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    // Each lane pulls the next unclaimed index until none remain;
    // capturing body by reference is safe because wait() below does
    // not return before every lane has finished.
    const auto next = std::make_shared<std::atomic<std::size_t>>(0);
    const std::size_t lanes =
        std::min<std::size_t>(workerCount(), n);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        submit([next, n, &body] {
            for (std::size_t i = next->fetch_add(1); i < n;
                 i = next->fetch_add(1))
                body(i);
        });
    }
    wait();
}

std::vector<double>
ThreadPool::busySeconds() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return busy_;
}

namespace {
// -1 off-pool; workers set their index for the thread's lifetime.
thread_local int tlsWorkerIndex = -1;
} // namespace

int
ThreadPool::currentIndex()
{
    return tlsWorkerIndex;
}

void
ThreadPool::workerLoop(unsigned idx)
{
    tlsWorkerIndex = static_cast<int>(idx);
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        cvTask_.wait(lk, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty())
            return;  // stop_ set and nothing left to drain
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
        lk.unlock();

        Stopwatch sw;
        std::exception_ptr err;
        try {
            task();
        } catch (...) {
            err = std::current_exception();
        }
        const double elapsed = sw.seconds();

        lk.lock();
        busy_[idx] += elapsed;
        if (err && !firstError_)
            firstError_ = err;
        --active_;
        if (queue_.empty() && active_ == 0)
            cvIdle_.notify_all();
    }
}

} // namespace lbp
