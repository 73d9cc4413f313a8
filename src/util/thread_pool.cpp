#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace waco {

ThreadPool::ThreadPool(u32 workers)
{
    ensureWorkers(workers);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> l(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto& t : threads_)
        t.join();
}

u32
ThreadPool::workers() const
{
    std::lock_guard<std::mutex> l(mutex_);
    return static_cast<u32>(threads_.size());
}

void
ThreadPool::ensureWorkers(u32 n)
{
    std::lock_guard<std::mutex> l(mutex_);
    n = std::min(n, kMaxWorkers);
    while (threads_.size() < n)
        threads_.emplace_back([this, id = static_cast<u32>(threads_.size())] {
            workerLoop(id);
        });
    WACO_GAUGE("pool.workers", threads_.size());
}

void
ThreadPool::runChunks(Job& job)
{
    for (;;) {
        u64 begin = job.next.fetch_add(job.chunk);
        if (begin >= job.total)
            return;
        (*job.body)(begin, std::min(job.total, begin + job.chunk));
    }
}

void
ThreadPool::workerLoop(u32 id)
{
    u64 seen = 0;
    for (;;) {
        Job* job = nullptr;
        {
            std::unique_lock<std::mutex> l(mutex_);
            wake_.wait(l, [&] { return stop_ || generation_ != seen; });
            if (stop_)
                return;
            seen = generation_;
            if (id < invited_)
                job = job_;
        }
        if (job) {
            {
                // Attribute this worker's share of the job to the span the
                // submitting caller was in (cross-thread parent handoff).
                WACO_ADOPT_PARENT(job->traceParent);
                WACO_SPAN("pool.worker");
                runChunks(*job);
            }
            if (job->pending.fetch_sub(1) == 1) {
                // Lock so the notify cannot slip between the waiter's
                // predicate check and its wait.
                std::lock_guard<std::mutex> l(mutex_);
                done_.notify_all();
            }
        }
    }
}

void
ThreadPool::parallelFor(u64 total, u64 chunk, u32 maxThreads,
                        const std::function<void(u64, u64)>& body)
{
    if (total == 0)
        return;
    chunk = std::max<u64>(1, chunk);
    maxThreads = std::max<u32>(1, maxThreads);
    // Cap participants at the number of available chunks: a 3-chunk job
    // uses at most 3 threads no matter how many were requested.
    u64 num_chunks = ceilDiv(total, chunk);
    u32 participants = static_cast<u32>(
        std::min<u64>(maxThreads, std::min<u64>(num_chunks, kMaxWorkers + 1)));

    // Queue depth: callers (from different threads) serialized behind the
    // in-flight job. Updated around the lock so the gauge reflects actual
    // waiting time, not hold time.
    u32 depth = waiting_.fetch_add(1, std::memory_order_relaxed) + 1;
    WACO_GAUGE("pool.queue_depth", depth);
    std::lock_guard<std::mutex> caller_lock(callerMutex_);
    depth = waiting_.fetch_sub(1, std::memory_order_relaxed) - 1;
    WACO_GAUGE("pool.queue_depth", depth);
    (void)depth;
    u32 helpers = std::min(participants - 1, workers());
    if (helpers == 0) {
        body(0, total);
        return;
    }

    WACO_SPAN("pool.job");
    WACO_COUNT("pool.jobs", 1);
    WACO_HIST("pool.participants", helpers + 1);
    Job job;
    job.total = total;
    job.chunk = chunk;
    job.body = &body;
    job.traceParent = WACO_CURRENT_SPAN();
    job.pending.store(helpers);
    {
        std::lock_guard<std::mutex> l(mutex_);
        job_ = &job;
        invited_ = helpers;
        ++generation_;
    }
    wake_.notify_all();
    runChunks(job); // the caller is always a participant
    {
        std::unique_lock<std::mutex> l(mutex_);
        done_.wait(l, [&] { return job.pending.load() == 0; });
        job_ = nullptr;
    }
}

ThreadPool&
globalPool()
{
    static ThreadPool pool;
    return pool;
}

u32
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace waco
