/**
 * @file
 * Memoization store for JIT-compiled loop-nest kernels.
 *
 * A CompiledKernel owns one dlopen'd shared object holding the C-ABI
 * entrypoint the kernel emitter generated for a single lowered nest
 * (see emitKernelC in codegen/emit.hpp for the ABI). The KernelCache is
 * a thread-safe LRU map from the nest's structural cache key — the
 * compiled-code identity of (algorithm, canonicalKey(schedule),
 * shape-class, dense-operand layouts) — to a shared_ptr<CompiledKernel>,
 * so HNSW top-k measurement and service-layer repeat queries pay the
 * compiler exactly once per distinct kernel and hit warm function
 * pointers afterwards.
 *
 * Entries are handed out as shared_ptr: an evicted kernel stays mapped
 * (and its .so stays loaded) until the last in-flight execution drops
 * its reference, so eviction can never unmap code under a running call.
 */
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "exec/loopnest_exec.hpp"

namespace waco {

/**
 * Generated entrypoint: execute the nest for top-loop range
 * [begin, end) — coordinates for a Dense/U outermost loop, absolute crd
 * positions for a Compressed one. driveLoopNest (exec/loopnest_exec.hpp)
 * calls it once per chunk, exactly as it calls the interpreter; @p scratch
 * is that chunk's private workspace for fused nests (null otherwise).
 */
using WacoKernelFn = void (*)(const WacoKernelArgs* args, std::int64_t begin,
                              std::int64_t end, float* scratch);

/**
 * One loaded kernel: the dlopen handle, the resolved entrypoint, and the
 * on-disk artifacts. Closing the handle and deleting the artifacts
 * happens at destruction (i.e. once the cache slot AND every in-flight
 * execution released the shared_ptr).
 */
class CompiledKernel
{
  public:
    CompiledKernel(void* handle, WacoKernelFn fn, std::string soPath,
                   std::string srcPath);
    ~CompiledKernel();

    CompiledKernel(const CompiledKernel&) = delete;
    CompiledKernel& operator=(const CompiledKernel&) = delete;

    WacoKernelFn fn() const { return fn_; }
    const std::string& sourcePath() const { return srcPath_; }
    const std::string& objectPath() const { return soPath_; }

    /** Cache-unit-test hook: an entry with no dlopen handle behind it. */
    static std::shared_ptr<CompiledKernel> forTesting(WacoKernelFn fn);

  private:
    void* handle_ = nullptr;
    WacoKernelFn fn_ = nullptr;
    std::string soPath_;
    std::string srcPath_;
};

/** Monotonic counters of one KernelCache (snapshot, not synchronized
 *  with concurrent mutation). */
struct KernelCacheStats
{
    u64 hits = 0;
    u64 misses = 0;
    u64 insertions = 0;
    u64 evictions = 0;
};

/**
 * Thread-safe LRU cache of compiled kernels. get() promotes to
 * most-recently-used; put() evicts the least-recently-used entry once
 * size exceeds capacity. Capacity 0 degenerates to "never retain"
 * (every put is immediately evicted), which the fallback tests use.
 */
class KernelCache
{
  public:
    explicit KernelCache(std::size_t capacity = 64);

    /** Look up @p key; null on miss. Hits move the entry to MRU. */
    std::shared_ptr<CompiledKernel> get(const std::string& key);
    /** Insert (or replace) @p key, evicting LRU entries over capacity. */
    void put(const std::string& key, std::shared_ptr<CompiledKernel> kernel);

    std::size_t size() const;
    std::size_t capacity() const;
    /** Shrink/grow the capacity, evicting LRU entries as needed. */
    void setCapacity(std::size_t capacity);
    void clear();

    KernelCacheStats stats() const;

  private:
    void evictOverCapacityLocked();

    mutable std::mutex mu_;
    std::size_t capacity_;
    /** MRU-first recency list; map values point into it. */
    std::list<std::pair<std::string, std::shared_ptr<CompiledKernel>>> lru_;
    std::unordered_map<
        std::string,
        std::list<std::pair<std::string,
                            std::shared_ptr<CompiledKernel>>>::iterator>
        map_;
    KernelCacheStats stats_;
};

} // namespace waco
