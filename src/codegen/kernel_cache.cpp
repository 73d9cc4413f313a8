#include "codegen/kernel_cache.hpp"

#include <cstdio>

#include <dlfcn.h>

#include "util/metrics.hpp"

namespace waco {

CompiledKernel::CompiledKernel(void* handle, WacoKernelFn fn,
                               std::string soPath, std::string srcPath)
    : handle_(handle), fn_(fn), soPath_(std::move(soPath)),
      srcPath_(std::move(srcPath))
{
}

CompiledKernel::~CompiledKernel()
{
    if (handle_ != nullptr)
        dlclose(handle_);
    if (!soPath_.empty())
        std::remove(soPath_.c_str());
    if (!srcPath_.empty())
        std::remove(srcPath_.c_str());
}

std::shared_ptr<CompiledKernel>
CompiledKernel::forTesting(WacoKernelFn fn)
{
    return std::make_shared<CompiledKernel>(nullptr, fn, "", "");
}

KernelCache::KernelCache(std::size_t capacity) : capacity_(capacity) {}

std::shared_ptr<CompiledKernel>
KernelCache::get(const std::string& key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++stats_.misses;
        WACO_COUNT("codegen.cache_misses", 1);
        return nullptr;
    }
    ++stats_.hits;
    WACO_COUNT("codegen.cache_hits", 1);
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
}

void
KernelCache::put(const std::string& key,
                 std::shared_ptr<CompiledKernel> kernel)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        it->second->second = std::move(kernel);
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(key, std::move(kernel));
    map_[key] = lru_.begin();
    ++stats_.insertions;
    evictOverCapacityLocked();
}

std::size_t
KernelCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

std::size_t
KernelCache::capacity() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
}

void
KernelCache::setCapacity(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = capacity;
    evictOverCapacityLocked();
}

void
KernelCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
}

KernelCacheStats
KernelCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
KernelCache::evictOverCapacityLocked()
{
    while (map_.size() > capacity_) {
        map_.erase(lru_.back().first);
        lru_.pop_back();
        ++stats_.evictions;
        WACO_COUNT("codegen.evictions", 1);
    }
}

} // namespace waco
