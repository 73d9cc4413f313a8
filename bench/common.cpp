#include "common.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace waco::bench {

namespace {

std::string g_trace_path;
std::string g_metrics_path;

} // namespace

int
parseObservabilityFlags(int argc, char** argv)
{
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string* dst = nullptr;
        if (!std::strcmp(argv[i], "--trace-out"))
            dst = &g_trace_path;
        else if (!std::strcmp(argv[i], "--metrics-out"))
            dst = &g_metrics_path;
        if (dst && i + 1 < argc) {
            *dst = argv[++i];
            continue;
        }
        argv[out++] = argv[i];
    }
    if (!g_trace_path.empty())
        trace::setEnabled(true);
    if (!g_metrics_path.empty())
        metrics::setEnabled(true);
    for (int i = out; i < argc; ++i)
        argv[i] = nullptr;
    return out;
}

void
writeObservabilityOutputs()
{
    if (!g_trace_path.empty()) {
        trace::writeChromeTrace(g_trace_path);
        std::printf("wrote Chrome trace to %s\n", g_trace_path.c_str());
    }
    if (!g_metrics_path.empty()) {
        metrics::writeMetricsJson(g_metrics_path);
        std::printf("wrote metrics to %s\n", g_metrics_path.c_str());
    }
}

void
printHeader(const std::string& experiment_id, const std::string& title)
{
    std::printf("\n================================================================\n");
    std::printf("%s — %s\n", experiment_id.c_str(), title.c_str());
    std::printf("================================================================\n");
}

void
printRow(const std::vector<std::string>& cells, const std::vector<int>& widths)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        int w = i < widths.size() ? widths[i] : 12;
        std::printf("%-*s", w, cells[i].c_str());
    }
    std::printf("\n");
}

std::string
speedupCell(double x)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", x);
    return buf;
}

std::string
numCell(double x, int digits)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, x);
    return buf;
}

std::string
timeCell(double seconds)
{
    char buf[32];
    if (seconds >= 1.0)
        std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
    else if (seconds >= 1e-3)
        std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
    return buf;
}

WacoOptions
benchOptions()
{
    // Paper scale: 14 layers / 32 channels / 128-d features, 100 schedules
    // per matrix, 70 epochs. Scaled for one CPU core (see EXPERIMENTS.md).
    WacoOptions opt;
    opt.extractorConfig.channels = 16;
    opt.extractorConfig.numLayers = 8;
    opt.extractorConfig.featureDim = 64;
    opt.schedulesPerMatrix = 30;
    opt.train.epochs = 8;
    opt.train.batchSchedules = 14;
    opt.topK = 10;
    opt.efSearch = 32;
    opt.seed = 424242;
    return opt;
}

namespace {

/** A few LLC-stressing matrices in the same families as the motivation
 *  set, so corpora cover the cache-sensitive regime (the paper's matrices
 *  go up to 10M nonzeros; ours are scaled to the 1-core budget). */
std::vector<SparseMatrix>
largeMatrices(u64 seed, u32 count)
{
    Rng rng(seed);
    std::vector<SparseMatrix> out;
    for (u32 n = 0; n < count; ++n) {
        SparseMatrix m;
        switch (n % 4) {
          case 0:
            // sparsine-ish: many columns, dense-ish rows, so the dense
            // operand overflows the LLC and column tiling pays.
            m = genUniform(8192, 65536, 400000, rng);
            break;
          case 1:
            // TSOPF-ish: dense 16x16 blocks over a column space wide
            // enough that the dense operand misses the LLC.
            m = genDenseBlocks(16384, 131072, 16, 4000, 0.95, rng);
            break;
          case 2:
            m = genPowerLawRows(65536, 65536, 250000, 0.8, rng, false);
            break;
          default:
            m = genHotColumns(131072, 131072, 250000, 512, rng);
            break;
        }
        m.setName(m.name() + "_big" + std::to_string(n));
        out.push_back(std::move(m));
    }
    return out;
}

} // namespace

std::vector<SparseMatrix>
trainingCorpus()
{
    CorpusOptions opt;
    opt.count = 20;
    opt.minDim = 512;
    opt.maxDim = 4096;
    opt.minNnz = 2000;
    opt.maxNnz = 20000;
    auto corpus = makeCorpus(opt, 801);
    for (auto& m : largeMatrices(803, 4))
        corpus.push_back(std::move(m));
    return corpus;
}

std::vector<SparseMatrix>
testMatrices(u32 count, u64 seed)
{
    CorpusOptions opt;
    opt.count = count > 8 ? count - 8 : count;
    opt.minDim = 512;
    opt.maxDim = 6144;
    opt.minNnz = 2000;
    opt.maxNnz = 30000;
    auto tests = makeCorpus(opt, seed);
    if (count > 8) {
        for (auto& m : largeMatrices(seed + 1, 8))
            tests.push_back(std::move(m));
    }
    return tests;
}

std::vector<Sparse3Tensor>
trainingCorpus3d()
{
    CorpusOptions opt;
    opt.count = 12;
    opt.minDim = 256;
    opt.maxDim = 1024;
    opt.minNnz = 2000;
    opt.maxNnz = 12000;
    return makeCorpus3d(opt, 802);
}

std::vector<Sparse3Tensor>
testTensors(u32 count, u64 seed)
{
    CorpusOptions opt;
    opt.count = count;
    opt.minDim = 256;
    opt.maxDim = 1024;
    opt.minNnz = 2000;
    opt.maxNnz = 16000;
    return makeCorpus3d(opt, seed);
}

std::unique_ptr<WacoTuner>
makeTrainedTuner(Algorithm alg, const MachineConfig& machine,
                 const std::string& cache_dir)
{
    auto opt = benchOptions();
    auto tuner = std::make_unique<WacoTuner>(alg, machine, opt);
    bool is3d = algorithmInfo(alg).sparseOrder == 3;

    std::filesystem::create_directories(cache_dir);
    std::string path = cache_dir + "/" + algorithmName(alg) + "_" +
                       machine.name + "_" + opt.extractor + ".bin";

    Timer timer;
    std::string ds_path = cache_dir + "/" + algorithmName(alg) + "_" +
                          machine.name + "_dataset.bin";
    CostDataset ds;
    bool loaded = false;
    if (std::filesystem::exists(ds_path)) {
        try {
            ds = loadDataset(ds_path);
            loaded = ds.alg == alg;
        } catch (const FatalError&) {
            loaded = false;
        }
    }
    if (!loaded) {
        ds = is3d ? buildDataset(alg, trainingCorpus3d(), tuner->oracle(),
                                 opt.schedulesPerMatrix, opt.seed)
                  : buildDataset(alg, trainingCorpus(), tuner->oracle(),
                                 opt.schedulesPerMatrix, opt.seed);
        saveDataset(ds, ds_path);
    }
    std::printf("[setup] %s dataset: %zu matrices, %zu schedules "
                "(%.1fs%s)\n",
                algorithmName(alg).c_str(), ds.entries.size(),
                ds.allSchedules().size(), timer.seconds(),
                loaded ? ", cached" : "");

    if (std::filesystem::exists(path)) {
        try {
            tuner->model().load(path);
            tuner->attachDataset(ds);
            std::printf("[setup] loaded cached %s model from %s\n",
                        algorithmName(alg).c_str(), path.c_str());
            return tuner;
        } catch (const FatalError& e) {
            std::printf("[setup] cache stale (%s); retraining\n", e.what());
        }
    }
    Timer train_timer;
    tuner->trainOnDataset(ds);
    std::printf("[setup] trained %s cost model in %.1fs\n",
                algorithmName(alg).c_str(), train_timer.seconds());
    tuner->model().save(path);
    return tuner;
}

std::vector<MethodTimes>
runComparison2d(Algorithm alg, WacoTuner& tuner,
                const std::vector<SparseMatrix>& tests)
{
    const RuntimeOracle& oracle = tuner.oracle();
    MklLike mkl(oracle);
    Aspt aspt(oracle);
    BestFormat bf(oracle);
    bf.train(alg, trainingCorpus());

    std::vector<MethodTimes> rows;
    for (const auto& m : tests) {
        MethodTimes row;
        row.matrix = m.name();
        row.waco = tuner.tune(m).bestMeasured.seconds;
        row.fixed = fixedCsr(oracle, m, alg).measured.seconds;
        row.bestformat = bf.tune(m).measured.seconds;
        if (mkl.supports(alg))
            row.mkl = mkl.tune(m, alg).measured.seconds;
        if (aspt.supports(alg))
            row.aspt = aspt.tune(m, alg).measured.seconds;
        rows.push_back(row);
    }
    return rows;
}

std::vector<MethodTimes>
runComparison3d(WacoTuner& tuner, const std::vector<Sparse3Tensor>& tests)
{
    const RuntimeOracle& oracle = tuner.oracle();
    BestFormat3d bf(oracle);
    bf.train(trainingCorpus3d());
    std::vector<MethodTimes> rows;
    for (const auto& t : tests) {
        MethodTimes row;
        row.matrix = t.name();
        row.waco = tuner.tune(t).bestMeasured.seconds;
        row.fixed = fixedCsr(oracle, t, Algorithm::MTTKRP).measured.seconds;
        row.bestformat = bf.tune(t).measured.seconds;
        rows.push_back(row);
    }
    return rows;
}

double
geomeanSpeedup(const std::vector<MethodTimes>& rows,
               double MethodTimes::*baseline)
{
    std::vector<double> speedups;
    for (const auto& r : rows) {
        double b = r.*baseline;
        if (b > 0.0 && r.waco > 0.0)
            speedups.push_back(b / r.waco);
    }
    return speedups.empty() ? 0.0 : geomean(speedups);
}

} // namespace waco::bench
