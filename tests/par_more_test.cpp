// Additional parallel ST-HOSVD coverage: the full variant matrix against
// the sequential reference, replication invariants, 5-way tensors, and the
// simulator's compute-vs-latency crossover.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/par_reconstruct.hpp"
#include "core/par_sthosvd.hpp"
#include "core/sthosvd.hpp"
#include "data/synthetic_tensor.hpp"
#include "simmpi/runtime.hpp"

namespace tucker {
namespace {

using blas::index_t;
using blas::Matrix;
using core::SvdMethod;
using core::TruncationSpec;
using dist::DistTensor;
using dist::ProcessorGrid;
using tensor::Dims;
using tensor::Tensor;

struct VariantCase {
  SvdMethod method;
  bool single;
};

class ParVariantTest : public ::testing::TestWithParam<VariantCase> {};

TEST_P(ParVariantTest, MatchesSequentialOn5dTensor) {
  const auto [method, single] = GetParam();
  auto xd = data::tensor_with_spectra(
      {6, 5, 4, 4, 3}, {data::DecayProfile::geometric(1, 1e-3),
                        data::DecayProfile::geometric(1, 1e-3),
                        data::DecayProfile::geometric(1, 1e-3),
                        data::DecayProfile::geometric(1, 1e-2),
                        data::DecayProfile::geometric(1, 1e-2)},
      901);
  const Dims grid = {2, 1, 2, 1, 1};
  auto check = [&](auto tag) {
    using T = decltype(tag);
    auto x = data::round_tensor_to<T>(xd);
    auto seq = core::sthosvd(x, TruncationSpec::tolerance(1e-2), method);
    mpi::Runtime::run(4, [&](mpi::Comm& world) {
      DistTensor<T> dt(world, ProcessorGrid(grid), x.dims());
      dt.fill_from(x);
      auto par =
          core::par_sthosvd(dt, TruncationSpec::tolerance(1e-2), method);
      EXPECT_EQ(par.ranks, seq.ranks);
      auto tk = par.gather_to_root();
      if (world.rank() == 0) {
        EXPECT_LE(core::relative_error(x, tk), 1e-2);
      }
    });
  };
  if (single)
    check(float{});
  else
    check(double{});
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ParVariantTest,
    ::testing::Values(VariantCase{SvdMethod::kQr, false},
                      VariantCase{SvdMethod::kQr, true},
                      VariantCase{SvdMethod::kGram, false},
                      VariantCase{SvdMethod::kGram, true}));

TEST(ParReplicationTest, FactorsBitwiseIdenticalAcrossRanks) {
  auto x = data::random_tensor<double>({8, 6, 6}, 903);
  const int p = 4;
  std::vector<std::vector<Matrix<double>>> factors(
      static_cast<std::size_t>(p));
  mpi::Runtime::run(p, [&](mpi::Comm& world) {
    DistTensor<double> dt(world, ProcessorGrid({2, 2, 1}), x.dims());
    dt.fill_from(x);
    auto res = core::par_sthosvd(dt, TruncationSpec::fixed_ranks({3, 3, 3}),
                                 SvdMethod::kQr);
    factors[static_cast<std::size_t>(world.rank())] = std::move(res.factors);
  });
  for (int r = 1; r < p; ++r) {
    for (std::size_t n = 0; n < 3; ++n) {
      const auto& a = factors[0][n];
      const auto& b = factors[static_cast<std::size_t>(r)][n];
      ASSERT_EQ(a.rows(), b.rows());
      ASSERT_EQ(a.cols(), b.cols());
      EXPECT_EQ(std::memcmp(a.data(), b.data(),
                            sizeof(double) *
                                static_cast<std::size_t>(a.rows() * a.cols())),
                0)
          << "rank " << r << " mode " << n;
    }
  }
}

TEST(ParCoreDistributionTest, CoreBlocksTileTheGlobalCore) {
  auto x = data::random_tensor<double>({8, 8, 4}, 905);
  mpi::Runtime::run(4, [&](mpi::Comm& world) {
    DistTensor<double> dt(world, ProcessorGrid({2, 2, 1}), x.dims());
    dt.fill_from(x);
    auto res = core::par_sthosvd(dt, TruncationSpec::fixed_ranks({5, 3, 2}),
                                 SvdMethod::kGram);
    // Every rank's core slice matches the block distribution of {5,3,2}.
    for (std::size_t n = 0; n < 3; ++n)
      EXPECT_EQ(res.core.local().dim(n), res.core.mode_range(n).size());
    // Global reassembly has the right norm: ||G|| <= ||X||.
    const double g2 = res.core.norm_squared();
    EXPECT_LE(g2, x.norm_squared() * (1 + 1e-12));
    EXPECT_GT(g2, 0);
  });
}

TEST(SimulatorCrossoverTest, LatencyBoundRegimeAppears) {
  // With an exaggerated per-message latency, adding ranks must eventually
  // slow the simulated runtime down -- the strong-scaling flattening the
  // paper observes at high processor counts.
  auto x = data::random_tensor<double>({16, 16, 16}, 907);
  mpi::CostModel slow_net;
  slow_net.alpha = 5e-3;  // 5 ms per message
  slow_net.beta = 1e-9;
  auto time_at = [&](int p, const Dims& grid) {
    return mpi::Runtime::run(
               p,
               [&](mpi::Comm& world) {
                 DistTensor<double> dt(world, ProcessorGrid(grid), x.dims());
                 dt.fill_from(x);
                 (void)core::par_sthosvd(
                     dt, TruncationSpec::fixed_ranks({4, 4, 4}),
                     SvdMethod::kQr);
               },
               slow_net)
        .makespan();
  };
  const double t1 = time_at(1, {1, 1, 1});
  const double t8 = time_at(8, {2, 2, 2});
  EXPECT_GT(t8, t1);  // latency dominates this tiny problem
}

TEST(SimulatorCrossoverTest, ComputeBoundRegimeScales) {
  // Same problem with a fast network: 8 ranks must beat 1 rank.
  auto x = data::random_tensor<double>({24, 24, 24}, 909);
  mpi::CostModel fast_net;  // defaults: 2us / 10 GB/s
  auto time_at = [&](int p, const Dims& grid) {
    return mpi::Runtime::run(
               p,
               [&](mpi::Comm& world) {
                 DistTensor<double> dt(world, ProcessorGrid(grid), x.dims());
                 dt.fill_from(x);
                 (void)core::par_sthosvd(
                     dt, TruncationSpec::fixed_ranks({4, 4, 4}),
                     SvdMethod::kQr);
               },
               fast_net)
        .makespan();
  };
  const double t1 = time_at(1, {1, 1, 1});
  const double t8 = time_at(8, {2, 2, 2});
  EXPECT_LT(t8, t1);
}

TEST(ParReconstructTest, MatchesSequentialReconstruction) {
  auto x = data::tensor_with_spectra(
      {8, 7, 6}, {data::DecayProfile::geometric(1, 1e-3),
                  data::DecayProfile::geometric(1, 1e-3),
                  data::DecayProfile::geometric(1, 1e-3)},
      921);
  mpi::Runtime::run(4, [&](mpi::Comm& world) {
    DistTensor<double> dt(world, ProcessorGrid({2, 2, 1}), x.dims());
    dt.fill_from(x);
    auto res = core::par_sthosvd(dt, TruncationSpec::fixed_ranks({4, 4, 4}),
                                 SvdMethod::kQr);
    auto xhat_dist = core::par_reconstruct(res.core, res.factors);
    EXPECT_EQ(xhat_dist.global_dims(), x.dims());
    auto xhat = xhat_dist.gather_to_root();
    auto tk = res.gather_to_root();
    if (world.rank() == 0) {
      auto ref = tk.reconstruct();
      for (index_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(xhat.data()[i], ref.data()[i], 1e-11);
    }
  });
}

TEST(ParReconstructTest, DistributedErrorMatchesGatheredError) {
  auto x = data::tensor_with_spectra(
      {8, 7, 6}, {data::DecayProfile::geometric(1, 1e-3),
                  data::DecayProfile::geometric(1, 1e-3),
                  data::DecayProfile::geometric(1, 1e-3)},
      923);
  mpi::Runtime::run(4, [&](mpi::Comm& world) {
    DistTensor<double> dt(world, ProcessorGrid({1, 2, 2}), x.dims());
    dt.fill_from(x);
    auto res = core::par_sthosvd(dt, TruncationSpec::tolerance(1e-2),
                                 SvdMethod::kGram);
    const double dist_err = core::par_relative_error(dt, res.core, res.factors);
    auto tk = res.gather_to_root();
    if (world.rank() == 0) {
      EXPECT_NEAR(dist_err, core::relative_error(x, tk), 1e-10);
    }
  });
}

TEST(ParReconstructTest, RejectsMismatchedFactors) {
  auto x = data::random_tensor<double>({6, 6}, 925);
  mpi::Runtime::run(1, [&](mpi::Comm& world) {
    DistTensor<double> dt(world, ProcessorGrid({1, 1}), x.dims());
    dt.fill_from(x);
    std::vector<Matrix<double>> wrong;
    wrong.push_back(Matrix<double>(6, 3));  // only one factor for 2 modes
    EXPECT_DEATH((void)core::par_reconstruct(dt, wrong),
                 "one factor per mode");
  });
}

TEST(ParGreedyOrderTest, WorksUnderDistribution) {
  auto x = data::random_tensor<double>({10, 8, 8}, 911);
  const std::vector<index_t> ranks = {2, 6, 4};
  auto order = core::greedy_order(x.dims(), ranks);
  mpi::Runtime::run(4, [&](mpi::Comm& world) {
    DistTensor<double> dt(world, ProcessorGrid({2, 2, 1}), x.dims());
    dt.fill_from(x);
    auto res = core::par_sthosvd(dt, TruncationSpec::fixed_ranks(ranks),
                                 SvdMethod::kQr, order);
    EXPECT_EQ(res.core.global_dims(), (Dims{2, 6, 4}));
  });
}

}  // namespace
}  // namespace tucker
