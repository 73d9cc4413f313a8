/**
 * @file
 * Kernel execution backends: the seam between "what a lowered nest
 * means" and "how it runs".
 *
 * KernelBackend is the interface both engines implement:
 *
 *  - InterpreterBackend delegates to the generic interpreter in
 *    exec/loopnest_exec.cpp — always available, the semantic reference.
 *  - CompiledBackend JIT-compiles the nest: emitKernelC prints a
 *    warning-free C translation unit behind the fixed waco_kernel ABI,
 *    the system C compiler (discovered at runtime; overridable with
 *    $WACO_CC) builds it as a shared object with
 *    `-O3 -march=native -ffp-contract=off -fPIC -shared -Wall -Wextra
 *    -Werror` (dropping to -O2 when the probe rejects the tuned set;
 *    contraction stays off so FMA fusion can never break bitwise
 *    identity with the interpreter), dlopen resolves the
 *    entrypoint, and the function pointer is memoized in an LRU
 *    KernelCache keyed by the nest's structural identity — compiled-code
 *    equivalent of (algorithm, canonicalKey(schedule), shape-class,
 *    dense layouts). Parallelism stays host-driven: execute hands the
 *    kernel to driveLoopNest, the driver the interpreter runs through
 *    too, which chunks the top loop over the global ThreadPool and
 *    calls it per chunk, so compiled results are bitwise identical to
 *    interpreted ones, serial and parallel.
 *
 * Failure ladder: no compiler found -> compile/dlopen failure (after
 * maxConsecutiveFailures the compiler is quarantined for this backend
 * instance) -> every rung falls back to the interpreter, counted in
 * stats() and the codegen.* metrics. Execution never fails because
 * compilation did.
 */
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "codegen/kernel_cache.hpp"
#include "exec/loopnest_exec.hpp"

namespace waco {

/** One way of executing lowered loop nests. */
class KernelBackend
{
  public:
    virtual ~KernelBackend() = default;
    /** Short name for logs/metrics ("interp", "compiled"). */
    virtual std::string name() const = 0;
    /** Execute @p nest; same contract as executeLoopNest. */
    virtual LoopNestResult execute(const LoopNest& nest,
                                   const LoopNestArgs& args,
                                   const ParallelConfig& par = {1, 128},
                                   double budgetSeconds = kUnbounded) = 0;
};

/** The generic interpreter behind the KernelBackend interface. */
class InterpreterBackend final : public KernelBackend
{
  public:
    std::string name() const override { return "interp"; }
    LoopNestResult execute(const LoopNest& nest, const LoopNestArgs& args,
                           const ParallelConfig& par = {1, 128},
                           double budgetSeconds = kUnbounded) override;
};

struct CompiledBackendOptions
{
    /** Compiler command; empty = $WACO_CC, else probe cc, gcc, clang. */
    std::string compiler;
    /** Extra flags appended to kernel compiles only (not the discovery
     *  probe) — lets tests force compile failures past a good probe. */
    std::string extraFlags;
    /** Directory for generated .c/.so files; empty = a per-process dir
     *  under the system temp directory. */
    std::string tempDir;
    std::size_t cacheCapacity = 64;
    /** Quarantine the compiler after this many consecutive failures. */
    u32 maxConsecutiveFailures = 3;
};

/** Monotonic counters of one CompiledBackend (best-effort snapshot). */
struct CompiledBackendStats
{
    u64 compiles = 0;        ///< Successful compile+load cycles.
    u64 compileFailures = 0; ///< Compiler or dlopen/dlsym failures.
    u64 cacheHits = 0;       ///< Executions served by a memoized kernel.
    u64 cacheMisses = 0;     ///< Executions that had to compile first.
    u64 fallbacks = 0;       ///< Executions routed to the interpreter.
    u64 launches = 0;        ///< Executions run through compiled code.
};

/** JIT-compiling backend. Thread-safe; compilation is serialized so
 *  concurrent executions of the same nest compile exactly once. */
class CompiledBackend final : public KernelBackend
{
  public:
    explicit CompiledBackend(CompiledBackendOptions opt = {});
    ~CompiledBackend() override;

    std::string name() const override { return "compiled"; }
    LoopNestResult execute(const LoopNest& nest, const LoopNestArgs& args,
                           const ParallelConfig& par = {1, 128},
                           double budgetSeconds = kUnbounded) override;

    /** Probe (once) and report whether a working compiler exists. */
    bool compilerAvailable();
    /** Resolved compiler command ("" when unavailable). */
    std::string compilerPath();

    /**
     * Compile (or fetch from cache) the kernel for @p nest specialized
     * to the given dense input layouts. Null when no compiler is
     * available or compilation failed — callers fall back to the
     * interpreter.
     */
    std::shared_ptr<CompiledKernel>
    kernelFor(const LoopNest& nest, const std::vector<bool>& inputRowMajor);

    CompiledBackendStats stats() const;
    /** Last compile/load error (compiler stderr or dlerror). */
    std::string lastError() const;
    KernelCache& cache() { return cache_; }

  private:
    bool resolveCompilerLocked();

    CompiledBackendOptions opt_;
    KernelCache cache_;

    std::mutex mu_; ///< Serializes probing + compilation.
    bool probed_ = false;
    std::string compiler_; ///< Empty after a failed probe.
    std::string optFlags_; ///< Probe-accepted optimization flag set.
    std::string tempDir_;
    u32 consecutiveFailures_ = 0;
    std::string lastError_;

    mutable std::mutex statsMu_;
    CompiledBackendStats stats_;
};

/**
 * Structural cache key of a lowered nest: algorithm, shape extents,
 * splits, level formats/order, every loop node with its locates, the
 * consumer walk and workspace of fused nests, and the dense input
 * layouts. Schedules with equal canonicalKey() lower to structurally
 * identical nests, so this is the compiled-code identity of (algorithm,
 * canonicalKey(schedule), shape-class, layouts) — including nests
 * assembled via fromRaw that never had a schedule.
 */
std::string kernelCacheKey(const LoopNest& nest,
                           const std::vector<bool>& inputRowMajor);

/** Row-major flags of the dense input operands actually passed in
 *  @p args, in KernelEmitOptions::inputRowMajor order. */
std::vector<bool> inputLayoutsOf(const LoopNestArgs& args, Algorithm alg);

/** Backend names a command line can select (tune_cli --backend). */
enum class KernelBackendKind
{
    Interpreter,
    Compiled,
};

/** Parse a CLI-style backend name ("interp", "interpreter", "compiled").
 *  Returns false when nothing matches. */
bool kernelBackendFromName(const std::string& name, KernelBackendKind& out);

/** The process-wide interpreter backend. */
KernelBackend& interpreterBackend();
/** The process-wide compiled backend (shared kernel cache). */
CompiledBackend& compiledBackend();

} // namespace waco
