// Integration tests for parallel ST-HOSVD: agreement with the sequential
// algorithm across grids, orderings, methods and precisions, bitwise
// invariance across thread widths, plus the accounting the benchmark
// harness relies on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/par_sthosvd.hpp"
#include "core/sthosvd.hpp"
#include "data/synthetic_tensor.hpp"
#include "simmpi/runtime.hpp"

namespace tucker {
namespace {

using blas::index_t;
using core::SvdMethod;
using core::TruncationSpec;
using dist::DistTensor;
using dist::ProcessorGrid;
using tensor::Dims;
using tensor::Tensor;

Tensor<double> test_tensor(std::uint64_t seed) {
  return data::tensor_with_spectra(
      {8, 7, 6, 5}, {data::DecayProfile::geometric(1, 1e-5),
                     data::DecayProfile::geometric(1, 1e-5),
                     data::DecayProfile::geometric(1, 1e-4),
                     data::DecayProfile::geometric(1, 1e-4)},
      seed);
}

struct ParCase {
  Dims grid;
  SvdMethod method;
  bool backward;
};

class ParSthosvdTest : public ::testing::TestWithParam<ParCase> {};

TEST_P(ParSthosvdTest, MatchesSequentialRanksAndError) {
  const auto& [gdims, method, backward] = GetParam();
  auto full = test_tensor(41);
  const auto order =
      backward ? core::backward_order(4) : core::forward_order(4);
  auto seq = core::sthosvd(full, TruncationSpec::tolerance(1e-3), method,
                           order);
  const double seq_err = core::relative_error(full, seq.tucker);

  const int p = ProcessorGrid(gdims).total();
  mpi::Runtime::run(p, [&](mpi::Comm& world) {
    DistTensor<double> dt(world, ProcessorGrid(gdims), full.dims());
    dt.fill_from(full);
    auto par = core::par_sthosvd(dt, TruncationSpec::tolerance(1e-3), method,
                                 order);
    EXPECT_EQ(par.ranks, seq.ranks);
    auto tk = par.gather_to_root();
    if (world.rank() == 0) {
      const double par_err = core::relative_error(full, tk);
      EXPECT_LE(par_err, 1e-3);
      EXPECT_NEAR(par_err, seq_err, 0.2 * seq_err + 1e-12);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParSthosvdTest,
    ::testing::Values(
        ParCase{{1, 1, 1, 1}, SvdMethod::kQr, false},
        ParCase{{2, 2, 1, 1}, SvdMethod::kQr, false},
        ParCase{{2, 2, 1, 1}, SvdMethod::kGram, false},
        ParCase{{2, 2, 1, 1}, SvdMethod::kQr, true},
        ParCase{{1, 1, 2, 2}, SvdMethod::kQr, true},
        ParCase{{4, 1, 2, 1}, SvdMethod::kQr, false},
        ParCase{{1, 3, 1, 2}, SvdMethod::kGram, false},  // non-pow2 world
        ParCase{{1, 3, 1, 2}, SvdMethod::kQr, false}));

TEST(ParSthosvdFixedRankTest, HonorsRanksOnEveryGrid) {
  auto full = data::random_tensor<double>({8, 6, 6, 4}, 43);
  for (const Dims& gdims : {Dims{2, 1, 2, 1}, Dims{1, 2, 1, 2}}) {
    const int p = ProcessorGrid(gdims).total();
    mpi::Runtime::run(p, [&](mpi::Comm& world) {
      DistTensor<double> dt(world, ProcessorGrid(gdims), full.dims());
      dt.fill_from(full);
      auto par = core::par_sthosvd(
          dt, TruncationSpec::fixed_ranks({3, 2, 4, 2}), SvdMethod::kQr);
      EXPECT_EQ(par.ranks, (std::vector<index_t>{3, 2, 4, 2}));
      EXPECT_EQ(par.core.global_dims(), (Dims{3, 2, 4, 2}));
      // Core slice dims consistent with the block distribution.
      for (std::size_t n = 0; n < 4; ++n)
        EXPECT_EQ(par.core.local().dim(n), par.core.mode_range(n).size());
    });
  }
}

TEST(ParSthosvdFixedRankTest, RankSmallerThanGridDim) {
  // Truncating mode 2 to rank 1 on a grid with P_2 = 2 leaves some ranks
  // with an empty slice; later modes must still work.
  auto full = data::random_tensor<double>({6, 6, 4, 4}, 47);
  mpi::Runtime::run(4, [&](mpi::Comm& world) {
    DistTensor<double> dt(world, ProcessorGrid({1, 1, 2, 2}), full.dims());
    dt.fill_from(full);
    auto par = core::par_sthosvd(
        dt, TruncationSpec::fixed_ranks({3, 3, 1, 2}), SvdMethod::kQr);
    EXPECT_EQ(par.core.global_dims(), (Dims{3, 3, 1, 2}));
    auto tk = par.gather_to_root();
    if (world.rank() == 0) {
      EXPECT_EQ(tk.core.dims(), (Dims{3, 3, 1, 2}));
    }
  });
}

TEST(ParSthosvdOrderDeathTest, OrderMustBePermutationOfModes) {
  // As in the sequential driver, an order that repeats a mode or names one
  // past the last fails fast instead of returning a short decomposition or
  // reading past the spec's ranks.
  auto full = data::random_tensor<double>({6, 5, 4}, 415);
  const auto spec = TruncationSpec::fixed_ranks({3, 3, 3});
  mpi::Runtime::run(1, [&](mpi::Comm& world) {
    DistTensor<double> dt(world, ProcessorGrid({1, 1, 1}), full.dims());
    dt.fill_from(full);
    for (const std::vector<std::size_t>& order :
         {std::vector<std::size_t>{0, 0, 1}, std::vector<std::size_t>{0, 1, 5}})
      EXPECT_DEATH((void)core::par_sthosvd(dt, spec, SvdMethod::kQr, order),
                   "order must be a permutation of the modes");
  });
}

TEST(ParSthosvdTest, SigmasMatchSequential) {
  auto full = test_tensor(53);
  auto seq = core::sthosvd(full, TruncationSpec::tolerance(1e-2),
                           SvdMethod::kQr);
  mpi::Runtime::run(4, [&](mpi::Comm& world) {
    DistTensor<double> dt(world, ProcessorGrid({2, 2, 1, 1}), full.dims());
    dt.fill_from(full);
    auto par = core::par_sthosvd(dt, TruncationSpec::tolerance(1e-2),
                                 SvdMethod::kQr);
    for (std::size_t n = 0; n < 4; ++n) {
      ASSERT_EQ(par.mode_sigmas[n].size(), seq.mode_sigmas[n].size());
      const double s0 = seq.mode_sigmas[n].empty() ? 1.0
                                                   : seq.mode_sigmas[n][0];
      for (std::size_t i = 0; i < seq.mode_sigmas[n].size(); ++i)
        EXPECT_NEAR(par.mode_sigmas[n][i], seq.mode_sigmas[n][i], 1e-9 * s0)
            << "mode " << n << " sigma " << i;
    }
  });
}

TEST(ParSthosvdStatsTest, LqKernelCostsRoughlyTwiceGramKernel) {
  // Sec 3.5: the parallel LQ (Alg 3) performs ~2x the flops of the parallel
  // Gram kernel on the same short-fat unfolding (2*J_n*J / P vs J_n*J / P,
  // plus lower-order tree terms). Measured at the kernel level, where the
  // claim lives; end-to-end the difference is diluted by shared TTM and the
  // redundant EVD/SVD.
  auto full = data::random_tensor<double>({10, 12, 12, 8}, 59);
  auto kernel_flops = [&](bool qr) {
    auto stats = mpi::Runtime::run(4, [&](mpi::Comm& world) {
      DistTensor<double> dt(world, ProcessorGrid({2, 2, 1, 1}), full.dims());
      dt.fill_from(full);
      reset_thread_flops();
      if (qr)
        (void)dist::par_tensor_lq(dt, 0);
      else
        (void)dist::par_gram(dt, 0);
    });
    return stats.total_flops();
  };
  const double ratio = static_cast<double>(kernel_flops(true)) /
                       static_cast<double>(kernel_flops(false));
  EXPECT_GT(ratio, 1.4);
  EXPECT_LT(ratio, 3.0);
}

TEST(ParSthosvdStatsTest, EndToEndQrIsAtMostTwiceGram) {
  // The overall slowdown claim from Sec 3.5: no more than ~2x, because TTM
  // and redistribution are shared.
  auto full = data::random_tensor<double>({12, 12, 12, 8}, 59);
  auto run = [&](SvdMethod m) {
    return mpi::Runtime::run(4, [&](mpi::Comm& world) {
      DistTensor<double> dt(world, ProcessorGrid({2, 2, 1, 1}), full.dims());
      dt.fill_from(full);
      (void)core::par_sthosvd(dt, TruncationSpec::fixed_ranks({4, 4, 4, 4}),
                              m);
    });
  };
  const auto qr = run(SvdMethod::kQr);
  const auto gram = run(SvdMethod::kGram);
  const double ratio = static_cast<double>(qr.total_flops()) /
                       static_cast<double>(gram.total_flops());
  EXPECT_LT(ratio, 2.5);
}

TEST(ParSthosvdStatsTest, BreakdownHasPerModeRegions) {
  auto full = data::random_tensor<double>({8, 8, 6, 6}, 61);
  auto stats = mpi::Runtime::run(4, [&](mpi::Comm& world) {
    DistTensor<double> dt(world, ProcessorGrid({2, 2, 1, 1}), full.dims());
    dt.fill_from(full);
    (void)core::par_sthosvd(dt, TruncationSpec::fixed_ranks({3, 3, 3, 3}),
                            SvdMethod::kQr);
  });
  const auto& slowest = stats.slowest();
  EXPECT_TRUE(slowest.region_compute.count("mode0/LQ"));
  EXPECT_TRUE(slowest.region_compute.count("mode0/SVD"));
  EXPECT_TRUE(slowest.region_compute.count("mode0/TTM"));
  EXPECT_TRUE(slowest.region_compute.count("mode3/LQ"));
  EXPECT_GT(stats.makespan(), 0.0);
}

TEST(ParSthosvdSingleTest, DeepDecaySpectrumStaysFiniteInSingle) {
  // Regression: on spectra decaying far below eps_single, the truncated
  // tensor's tail entries go subnormal in float; a 1/amax overflow in nrm2
  // once produced NaN triangles in the butterfly and garbage factors.
  auto xd = data::sp_like(0.5);
  auto x = data::round_tensor_to<float>(xd);
  mpi::Runtime::run(8, [&](mpi::Comm& world) {
    dist::DistTensor<float> dt(world,
                               ProcessorGrid({2, 2, 2, 1, 1}), x.dims());
    dt.fill_from(x);
    auto par = core::par_sthosvd(dt, TruncationSpec::tolerance(1e-2),
                                 SvdMethod::kQr,
                                 core::backward_order(x.order()));
    for (const auto& sig : par.mode_sigmas)
      for (float s : sig) EXPECT_TRUE(std::isfinite(s));
    auto tk = par.gather_to_root();
    if (world.rank() == 0) {
      EXPECT_LE(core::relative_error(x, tk), 1e-2);
    }
  });
}

TEST(ParSthosvdSingleTest, SinglePrecisionRunsAndCompresses) {
  auto xd = test_tensor(67);
  auto x = data::round_tensor_to<float>(xd);
  mpi::Runtime::run(4, [&](mpi::Comm& world) {
    DistTensor<float> dt(world, ProcessorGrid({2, 2, 1, 1}), x.dims());
    dt.fill_from(x);
    auto par = core::par_sthosvd(dt, TruncationSpec::tolerance(1e-2),
                                 SvdMethod::kQr);
    auto tk = par.gather_to_root();
    if (world.rank() == 0) {
      EXPECT_LE(core::relative_error(x, tk), 1e-2);
      EXPECT_LT(tk.parameter_count(), x.size());
    }
  });
}

// ------------------------------------------------ bitwise across widths

struct WidthCase {
  SvdMethod method;
  Dims grid;
  bool single;
};

// Everything a run produces that the bitwise contract covers, as bytes,
// plus the simulated traffic.
struct WidthCapture {
  std::vector<std::vector<unsigned char>> factors;
  std::vector<std::vector<unsigned char>> sigmas;
  std::vector<unsigned char> core;
  std::int64_t bytes = 0;
  std::int64_t messages = 0;
};

template <class T>
std::vector<unsigned char> bytes_of(const T* data, std::size_t n) {
  std::vector<unsigned char> out(n * sizeof(T));
  if (n > 0) std::memcpy(out.data(), data, out.size());
  return out;
}

template <class T>
WidthCapture run_at_width(const Tensor<double>& full, const Dims& grid,
                          SvdMethod method, int width) {
  parallel::set_max_threads(width);
  const auto x = data::round_tensor_to<T>(full);
  WidthCapture cap;
  const auto stats = mpi::Runtime::run(
      ProcessorGrid(grid).total(), [&](mpi::Comm& world) {
        DistTensor<T> dt(world, ProcessorGrid(grid), x.dims());
        dt.fill_from(x);
        auto res = core::par_sthosvd(dt, TruncationSpec::tolerance(1e-3),
                                     method);
        auto tk = res.gather_to_root();
        if (world.rank() != 0) return;
        for (const auto& f : res.factors)
          cap.factors.push_back(
              bytes_of(f.data(), static_cast<std::size_t>(f.rows() * f.cols())));
        for (const auto& sig : res.mode_sigmas)
          cap.sigmas.push_back(bytes_of(sig.data(), sig.size()));
        cap.core = bytes_of(tk.core.data(),
                            static_cast<std::size_t>(tk.core.size()));
      });
  cap.bytes = stats.total_bytes();
  cap.messages = stats.total_messages();
  return cap;
}

class ParSthosvdWidthTest : public ::testing::TestWithParam<WidthCase> {
 protected:
  void SetUp() override { initial_ = parallel::max_threads(); }
  void TearDown() override { parallel::set_max_threads(initial_); }
  int initial_ = 0;
};

TEST_P(ParSthosvdWidthTest, BitwiseAcrossWidths) {
  // Rank threads cap their kernel threads under the pool width; the width
  // must move no bit of the factors, sigmas or core, and no message.
  const auto& [method, grid, single] = GetParam();
  const auto full = test_tensor(61);
  auto run = [&](int width) {
    return single ? run_at_width<float>(full, grid, method, width)
                  : run_at_width<double>(full, grid, method, width);
  };
  const WidthCapture base = run(2);
  ASSERT_EQ(base.factors.size(), 4u);
  for (int width : {1, 7}) {
    const WidthCapture other = run(width);
    const std::string what = "width " + std::to_string(width);
    ASSERT_EQ(other.factors.size(), base.factors.size()) << what;
    for (std::size_t n = 0; n < base.factors.size(); ++n) {
      EXPECT_TRUE(other.factors[n] == base.factors[n])
          << what << ": factor " << n << " differs";
      EXPECT_TRUE(other.sigmas[n] == base.sigmas[n])
          << what << ": sigmas of mode " << n << " differ";
    }
    EXPECT_TRUE(other.core == base.core) << what << ": core differs";
    EXPECT_EQ(other.bytes, base.bytes) << what;
    EXPECT_EQ(other.messages, base.messages) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParSthosvdWidthTest,
    ::testing::Values(WidthCase{SvdMethod::kQr, {1, 1, 1, 1}, false},
                      WidthCase{SvdMethod::kQr, {2, 2, 1, 1}, false},
                      WidthCase{SvdMethod::kGram, {2, 2, 1, 1}, false},
                      WidthCase{SvdMethod::kGram, {1, 3, 1, 2}, false},
                      WidthCase{SvdMethod::kRand, {1, 1, 1, 1}, false},
                      WidthCase{SvdMethod::kRand, {2, 2, 1, 1}, false},
                      WidthCase{SvdMethod::kRand, {1, 3, 1, 2}, false},
                      WidthCase{SvdMethod::kQr, {1, 1, 1, 1}, true},
                      WidthCase{SvdMethod::kQr, {2, 2, 1, 1}, true},
                      WidthCase{SvdMethod::kGram, {2, 2, 1, 1}, true},
                      WidthCase{SvdMethod::kGram, {1, 3, 1, 2}, true},
                      WidthCase{SvdMethod::kRand, {1, 1, 1, 1}, true},
                      WidthCase{SvdMethod::kRand, {2, 2, 1, 1}, true},
                      WidthCase{SvdMethod::kRand, {1, 3, 1, 2}, true}));

}  // namespace
}  // namespace tucker
