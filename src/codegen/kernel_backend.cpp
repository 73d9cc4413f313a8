#include "codegen/kernel_backend.hpp"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

#include <dlfcn.h>
#include <unistd.h>

#include "codegen/emit.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace waco {

namespace {

/** pos/crd slots in WacoKernelArgs. */
constexpr u32 kMaxAbiLevels = std::extent_v<decltype(WacoKernelArgs::pos)>;

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * The tuned optimization set kernels are compiled with when the probe
 * accepts it. -march=native widens the vector units the emitted dense
 * loops run on; -ffp-contract=off forbids the FMA contraction that
 * -march=native would otherwise license in C, because a fused
 * multiply-add rounds once where the interpreter rounds twice — the
 * bitwise-identity contract is non-negotiable. Plain wider
 * vectorization of independent float lanes is IEEE-exact, so it stays.
 */
const char* const kTunedOptFlags =
    "-O3 -march=native -ffp-contract=off -mprefer-vector-width=256";
/** Tuned set minus the x86-only vector-width cap (the cap matters on
 *  AVX-512 parts, where 512-bit scalar/vector mixing slows the serial
 *  reduction chains measurably). */
const char* const kPortableTunedFlags = "-O3 -march=native -ffp-contract=off";
/** Conservative fallback when the resolved compiler rejects the tuned
 *  sets (older toolchains, unusual architectures). */
const char* const kBaseOptFlags = "-O2";

/** The compile invocation shared by the probe and real kernels. The
 *  -Werror battery is deliberate: generated code that warns is a bug
 *  (satellite contract), and a warning-free gate catches emitter drift
 *  the moment it happens. */
std::string
compileCommand(const std::string& compiler, const std::string& optFlags,
               const std::string& extraFlags, const std::string& src,
               const std::string& out, const std::string& log)
{
    std::string cmd = compiler;
    if (!optFlags.empty())
        cmd += " " + optFlags;
    cmd += " -fPIC -shared -Wall -Wextra -Werror";
    if (!extraFlags.empty())
        cmd += " " + extraFlags;
    cmd += " -x c \"" + src + "\" -o \"" + out + "\" 2>\"" + log + "\"";
    return cmd;
}

} // namespace

LoopNestResult
InterpreterBackend::execute(const LoopNest& nest, const LoopNestArgs& args,
                            const ParallelConfig& par, double budgetSeconds)
{
    return executeLoopNest(nest, args, par, budgetSeconds);
}

CompiledBackend::CompiledBackend(CompiledBackendOptions opt)
    : opt_(std::move(opt)), cache_(opt_.cacheCapacity)
{
}

CompiledBackend::~CompiledBackend()
{
    // Kernels unlink their own artifacts as they are released, so release
    // this backend's first; the per-process directory itself goes away only
    // once it is empty (another live backend may still hold kernels there).
    cache_.clear();
    if (!tempDir_.empty() && opt_.tempDir.empty()) {
        std::error_code ec;
        std::filesystem::remove(tempDir_, ec);
    }
}

bool
CompiledBackend::resolveCompilerLocked()
{
    if (probed_)
        return !compiler_.empty();
    probed_ = true;

    if (opt_.tempDir.empty()) {
        std::error_code ec;
        auto dir = std::filesystem::temp_directory_path(ec);
        if (ec)
            dir = "/tmp";
        tempDir_ = (dir / ("waco-kernels-" + std::to_string(getpid())))
                       .string();
    } else {
        tempDir_ = opt_.tempDir;
    }
    {
        std::error_code ec;
        std::filesystem::create_directories(tempDir_, ec);
        if (ec) {
            lastError_ = "cannot create kernel temp dir " + tempDir_;
            return false;
        }
    }

    std::vector<std::string> candidates;
    if (!opt_.compiler.empty()) {
        candidates.push_back(opt_.compiler);
    } else if (const char* env = std::getenv("WACO_CC");
               env != nullptr && env[0] != '\0') {
        // An explicit override is trusted verbatim — a bogus WACO_CC is
        // how the fallback tests force the "no working compiler" rung.
        candidates.push_back(env);
    } else {
        candidates = {"cc", "gcc", "clang"};
    }

    const std::string src = tempDir_ + "/probe.c";
    const std::string so = tempDir_ + "/probe.so";
    const std::string log = tempDir_ + "/probe.log";
    {
        std::ofstream out(src);
        out << "int waco_probe(void) { return 0; }\n";
    }
    // Each candidate is probed with the tuned flag set first; a compiler
    // that rejects it (but works with the conservative set) is still
    // usable, just without the vector-width upside.
    for (const std::string& cand : candidates) {
        bool found = false;
        for (const char* flags :
             {kTunedOptFlags, kPortableTunedFlags, kBaseOptFlags}) {
            int rc = std::system(
                compileCommand(cand, flags, "", src, so, log).c_str());
            if (rc == 0) {
                compiler_ = cand;
                optFlags_ = flags;
                found = true;
                break;
            }
            lastError_ = readFile(log);
        }
        if (found)
            break;
    }
    std::remove(src.c_str());
    std::remove(so.c_str());
    std::remove(log.c_str());
    return !compiler_.empty();
}

bool
CompiledBackend::compilerAvailable()
{
    std::lock_guard<std::mutex> lock(mu_);
    return resolveCompilerLocked();
}

std::string
CompiledBackend::compilerPath()
{
    std::lock_guard<std::mutex> lock(mu_);
    resolveCompilerLocked();
    return compiler_;
}

std::shared_ptr<CompiledKernel>
CompiledBackend::kernelFor(const LoopNest& nest,
                           const std::vector<bool>& inputRowMajor)
{
    if (nest.numLevels() > kMaxAbiLevels)
        return nullptr; // cannot be expressed in the fixed ABI
    const std::string key = kernelCacheKey(nest, inputRowMajor);
    if (auto k = cache_.get(key)) {
        std::lock_guard<std::mutex> slock(statsMu_);
        ++stats_.cacheHits;
        return k;
    }
    {
        std::lock_guard<std::mutex> slock(statsMu_);
        ++stats_.cacheMisses;
    }

    // Serialize compilation: a racing execution of the same nest waits
    // here, then finds the freshly inserted kernel instead of invoking
    // the compiler a second time.
    std::lock_guard<std::mutex> lock(mu_);
    if (auto k = cache_.get(key))
        return k;
    if (!resolveCompilerLocked())
        return nullptr;
    if (consecutiveFailures_ >= opt_.maxConsecutiveFailures)
        return nullptr; // compiler quarantined for this backend

    WACO_SPAN("codegen.compile");
    KernelEmitOptions eo;
    eo.inputRowMajor = inputRowMajor;
    eo.cacheKey = key;
    const std::string source = emitKernelC(nest, eo);

    // Artifact names are unique per process, not per backend: every
    // backend shares the per-process temp dir, and dlopen of a path that
    // another live backend still has loaded returns that old library.
    static std::atomic<u64> next_artifact{0};
    const std::string stem =
        tempDir_ + "/k" + std::to_string(next_artifact.fetch_add(1));
    const std::string src = stem + ".c";
    const std::string so = stem + ".so";
    const std::string log = stem + ".log";
    {
        // Another backend that shares the per-process dir removes it when
        // it is destroyed with the dir empty; bring it back.
        std::error_code ec;
        std::filesystem::create_directories(tempDir_, ec);
        std::ofstream out(src);
        out << source;
    }

    auto fail = [&](const std::string& why) -> std::shared_ptr<CompiledKernel> {
        lastError_ = why;
        ++consecutiveFailures_;
        std::remove(so.c_str());
        std::remove(log.c_str());
        std::remove(src.c_str());
        {
            std::lock_guard<std::mutex> slock(statsMu_);
            ++stats_.compileFailures;
        }
        WACO_COUNT("codegen.compile_failures", 1);
        return nullptr;
    };

    int rc = std::system(
        compileCommand(compiler_, optFlags_, opt_.extraFlags, src, so, log)
            .c_str());
    if (rc != 0)
        return fail("kernel compile failed:\n" + readFile(log));
    std::remove(log.c_str());

    void* handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
        const char* err = dlerror();
        return fail(std::string("dlopen failed: ") +
                    (err != nullptr ? err : "unknown"));
    }
    void* sym = dlsym(handle, "waco_kernel");
    if (sym == nullptr) {
        dlclose(handle);
        return fail("dlsym: waco_kernel entrypoint missing");
    }

    consecutiveFailures_ = 0;
    {
        std::lock_guard<std::mutex> slock(statsMu_);
        ++stats_.compiles;
    }
    WACO_COUNT("codegen.compiles", 1);
    auto kernel = std::make_shared<CompiledKernel>(
        handle, reinterpret_cast<WacoKernelFn>(sym), so, src);
    cache_.put(key, kernel);
    return kernel;
}

LoopNestResult
CompiledBackend::execute(const LoopNest& nest, const LoopNestArgs& args,
                         const ParallelConfig& par, double budgetSeconds)
{
    checkLoopNestArgs(nest, args); // before paying for a compile
    auto kernel = kernelFor(nest, inputLayoutsOf(args, nest.alg()));
    if (kernel == nullptr) {
        {
            std::lock_guard<std::mutex> slock(statsMu_);
            ++stats_.fallbacks;
        }
        WACO_COUNT("codegen.fallbacks", 1);
        return executeLoopNest(nest, args, par, budgetSeconds);
    }

    {
        std::lock_guard<std::mutex> slock(statsMu_);
        ++stats_.launches;
    }
    WACO_COUNT("codegen.launches", 1);
    const WacoKernelFn fn = kernel->fn();
    return driveLoopNest(nest, args, par,
                         [fn](const WacoKernelArgs& buf, u64 begin, u64 end,
                              float* scratch) {
                             fn(&buf, static_cast<std::int64_t>(begin),
                                static_cast<std::int64_t>(end), scratch);
                         },
                         budgetSeconds);
}

CompiledBackendStats
CompiledBackend::stats() const
{
    std::lock_guard<std::mutex> lock(statsMu_);
    return stats_;
}

std::string
CompiledBackend::lastError() const
{
    // lastError_ is written under mu_; a torn read here would only
    // affect a diagnostic string, but take the lock for cleanliness.
    std::lock_guard<std::mutex> lock(
        const_cast<CompiledBackend*>(this)->mu_);
    return lastError_;
}

std::string
kernelCacheKey(const LoopNest& nest, const std::vector<bool>& inputRowMajor)
{
    std::ostringstream os;
    os << algorithmName(nest.alg()) << "|e";
    for (u32 i = 0; i < 4; ++i)
        os << (i ? "," : "") << nest.shape().indexExtent[i];
    os << "|s";
    for (u32 i = 0; i < 4; ++i)
        os << (i ? "," : "") << nest.splitOf(i);
    os << "|L";
    for (bool rm : inputRowMajor)
        os << (rm ? 'r' : 'c');
    os << "|F";
    for (u32 l = 0; l < nest.numLevels(); ++l)
        os << (nest.levelFormat(l) == LevelFormat::Uncompressed ? 'U' : 'C')
           << nest.levelSlot(l) << (nest.levelConcordant(l) ? 't' : 'd');
    auto walk = [&](const std::vector<LoopNode>& loops) {
        for (const LoopNode& n : loops) {
            os << (n.kind == LoopKind::Dense ? 'D' : 'S') << n.slot << 'x'
               << n.extent << 'l' << n.level;
            for (const LocateStep& ls : n.locates)
                os << "(" << ls.level << "," << ls.slot << ","
                   << (ls.binarySearch ? 'b' : 'u') << ")";
            os << ';';
        }
    };
    os << "|N:";
    walk(nest.loops());
    if (nest.fused()) {
        os << "|C:";
        walk(nest.consumerLoops());
        const WorkspaceDecl& ws = nest.workspace();
        os << "|W" << ws.index << 'x' << ws.extent << '@' << ws.scopeDepth;
    }
    os << "|v" << nest.leaf().vectorIndex;
    if (nest.fused())
        os << "," << nest.consumerLeaf().vectorIndex;
    return os.str();
}

std::vector<bool>
inputLayoutsOf(const LoopNestArgs& args, Algorithm alg)
{
    std::vector<bool> layouts; // a vector input has no layout
    forEachDenseInput(alg, [&](std::size_t k, const DenseOperand& op) {
        if (op.indices.size() == 2) {
            const DenseMatrix* m = args.matrix(k);
            layouts.push_back(m == nullptr || m->layout() == Layout::RowMajor);
        }
    });
    return layouts;
}

bool
kernelBackendFromName(const std::string& name, KernelBackendKind& out)
{
    if (name == "interp" || name == "interpreter") {
        out = KernelBackendKind::Interpreter;
        return true;
    }
    if (name == "compiled" || name == "jit") {
        out = KernelBackendKind::Compiled;
        return true;
    }
    return false;
}

KernelBackend&
interpreterBackend()
{
    static InterpreterBackend backend;
    return backend;
}

CompiledBackend&
compiledBackend()
{
    static CompiledBackend backend;
    return backend;
}

} // namespace waco
