/**
 * @file
 * Contract of MeasurementBackend's one entry point, measure(SparseInput,
 * shape, schedule), checked for every backend on both input orders: the
 * analytical RuntimeOracle, a zero-fault FaultyOracle and a default
 * RobustMeasurer over it, and a WallclockMeasurer running the interpreter.
 * A matrix (SpMM) and a 3-tensor (MTTKRP) go through the same call.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <tuple>

#include "codegen/kernel_backend.hpp"
#include "data/generators.hpp"
#include "perfmodel/faulty_oracle.hpp"
#include "perfmodel/robust_measure.hpp"
#include "perfmodel/wallclock_backend.hpp"

namespace waco {
namespace {

enum class Backend { Oracle, Faulty, Robust, Wallclock };
enum class Case { SpmmMatrix, MttkrpTensor };

using ContractParam = std::tuple<Backend, Case>;

class MeasureContract : public ::testing::TestWithParam<ContractParam>
{
  protected:
    MeasureContract()
        : faulty_(oracle_, FaultConfig{}), robust_(oracle_),
          wallclock_(interpreterBackend())
    {}

    Backend kind() const { return std::get<0>(GetParam()); }
    Case input() const { return std::get<1>(GetParam()); }
    Algorithm alg() const
    {
        return input() == Case::SpmmMatrix ? Algorithm::SpMM
                                           : Algorithm::MTTKRP;
    }

    const MeasurementBackend&
    backend() const
    {
        switch (kind()) {
          case Backend::Oracle:
            return oracle_;
          case Backend::Faulty:
            return faulty_;
          case Backend::Robust:
            return robust_;
          case Backend::Wallclock:
            return wallclock_;
        }
        return oracle_;
    }

    /** A small input of this case's order with @p width-wide dims. */
    SparseInput
    makeInput(u32 width, u64 nnz)
    {
        Rng rng(width + nnz);
        if (input() == Case::SpmmMatrix) {
            matrix_ = genUniform(width, width - width / 8, nnz, rng);
            return matrix_;
        }
        tensor_ = genTensor3(width, width / 2, width / 4 + 1, nnz, rng);
        return tensor_;
    }

    RuntimeOracle oracle_{MachineConfig::intel24()};
    FaultyOracle faulty_;
    RobustMeasurer robust_;
    WallclockMeasurer wallclock_;
    SparseMatrix matrix_;
    Sparse3Tensor tensor_;
};

TEST_P(MeasureContract, ReturnsAValidFiniteMeasurement)
{
    SparseInput in = makeInput(96, 600);
    auto shape = ProblemShape::forInput(alg(), in, 8);
    Measurement m = backend().measure(in, shape, defaultSchedule(shape));
    EXPECT_TRUE(m.valid) << m.invalidReason;
    EXPECT_TRUE(std::isfinite(m.seconds));
    EXPECT_GT(m.seconds, 0.0);
    EXPECT_GE(m.storedValues, in.nnz());
    EXPECT_GT(m.formatBytes, 0u);
}

TEST_P(MeasureContract, AgreesWithTheOracle)
{
    SparseInput in = makeInput(96, 600);
    auto shape = ProblemShape::forInput(alg(), in, 8);
    auto s = defaultSchedule(shape);
    Measurement want = oracle_.measure(in, shape, s);
    Measurement got = backend().measure(in, shape, s);
    // Every backend builds the same format from the same view.
    EXPECT_EQ(got.storedValues, want.storedValues);
    EXPECT_EQ(got.formatBytes, want.formatBytes);
    // The decorators pass the oracle's estimate through untouched; only
    // the wall clock reports a time of its own.
    if (kind() != Backend::Wallclock) {
        EXPECT_EQ(std::bit_cast<u64>(got.seconds),
                  std::bit_cast<u64>(want.seconds));
    }
}

TEST_P(MeasureContract, OversizedFormatIsInvalidNotThrown)
{
    // All-uncompressed levels over a 100000-wide input need ~10^10 stored
    // positions, far past HierSparseTensor::kDefaultMaxBytes.
    SparseInput in = makeInput(100000, 16);
    auto shape = ProblemShape::forInput(alg(), in, 8);
    auto s = defaultSchedule(shape);
    for (auto& f : s.sparseLevelFormats)
        f = LevelFormat::Uncompressed;
    Measurement m;
    ASSERT_NO_THROW(m = backend().measure(in, shape, s));
    EXPECT_FALSE(m.valid);
    EXPECT_NE(m.invalidReason.find("exceeds budget"), std::string::npos)
        << m.invalidReason;
    EXPECT_TRUE(std::isinf(m.seconds));
}

std::string
paramName(const ::testing::TestParamInfo<ContractParam>& info)
{
    static const char* const kBackends[] = {"Oracle", "Faulty", "Robust",
                                            "Wallclock"};
    static const char* const kCases[] = {"SpmmMatrix", "MttkrpTensor"};
    return std::string(kBackends[static_cast<int>(std::get<0>(info.param))]) +
           "_" + kCases[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, MeasureContract,
    ::testing::Combine(::testing::Values(Backend::Oracle, Backend::Faulty,
                                         Backend::Robust, Backend::Wallclock),
                       ::testing::Values(Case::SpmmMatrix,
                                         Case::MttkrpTensor)),
    paramName);

} // namespace
} // namespace waco
