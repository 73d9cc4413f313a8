/**
 * @file
 * Persistent worker thread pool with OpenMP-style dynamic chunking.
 *
 * The auto-tuner's hot path runs thousands of small kernel invocations and
 * oracle measurements; spawning and joining std::threads per call (the old
 * pattern in exec/scheduled.cpp and exec/kernels.cpp) pays thread-creation
 * cost every time. This pool keeps a fixed set of workers parked on a
 * condition variable and hands them one parallelFor job at a time: workers
 * atomically claim chunks of the iteration space, exactly like
 * `#pragma omp parallel for schedule(dynamic, chunk)`.
 *
 * The number of participating workers is capped at the number of available
 * chunks, so a 3-chunk job never wakes 48 threads (the old dynamicTopLevel
 * oversubscription bug). The calling thread always participates, so a job
 * makes progress even with an empty pool.
 *
 * globalPool() is the process-wide instance; it starts empty and grows on
 * demand up to the largest ParallelConfig-style request seen (bounded by
 * kMaxWorkers), so the pool is sized by actual use, not guessed up front.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/common.hpp"

namespace waco {

/** Fixed-worker pool running dynamically-chunked parallel loops. */
class ThreadPool
{
  public:
    /** @param workers resident worker threads (0 = start empty and rely on
     *  ensureWorkers / the calling thread). */
    explicit ThreadPool(u32 workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Resident worker threads (excluding callers). */
    u32 workers() const;

    /** Grow (never shrink) the pool to at least @p n workers. */
    void ensureWorkers(u32 n);

    /**
     * Run @p body over [0, total) in dynamic chunks of @p chunk iterations:
     * body(begin, end) per claimed chunk. Uses at most @p maxThreads
     * threads including the caller, further capped by the number of chunks
     * and the pool size. Blocks until every chunk has run. Serial execution
     * (one participant) degenerates to a single body(0, total) call.
     * Concurrent parallelFor calls from different threads are serialized.
     */
    void parallelFor(u64 total, u64 chunk, u32 maxThreads,
                     const std::function<void(u64, u64)>& body);

    /** Hard cap on resident workers of the global pool. */
    static constexpr u32 kMaxWorkers = 64;

  private:
    struct Job
    {
        std::atomic<u64> next{0};
        u64 total = 0;
        u64 chunk = 1;
        const std::function<void(u64, u64)>* body = nullptr;
        std::atomic<u32> pending{0}; ///< Workers still inside the job.
        u64 traceParent = 0; ///< Caller's span, adopted by the workers.
    };

    void workerLoop(u32 id);
    static void runChunks(Job& job);

    std::atomic<u32> waiting_{0};       ///< Callers queued on callerMutex_.
    mutable std::mutex mutex_;          ///< Guards job hand-off + threads_.
    std::condition_variable wake_;      ///< Workers park here.
    std::condition_variable done_;      ///< parallelFor waits here.
    std::mutex callerMutex_;            ///< Serializes parallelFor calls.
    std::vector<std::thread> threads_;
    Job* job_ = nullptr;
    u64 generation_ = 0;
    u32 invited_ = 0; ///< Workers that may join the current generation.
    bool stop_ = false;
};

/** The process-wide pool shared by the executor and the oracle. */
ThreadPool& globalPool();

/** Hardware threads of this host (std::thread::hardware_concurrency),
 *  at least 1 when the runtime cannot tell. */
u32 hardwareThreads();

} // namespace waco
