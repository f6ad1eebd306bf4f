// Bitwise contracts of the packed TTM engine and the cost-model mode order:
//  - ttm_into (the packed engine) and the per-block gemm oracle
//    (tensor::detail::ttm_reference_into) produce bitwise-identical results
//    across thread widths {1, 2, 7}, every mode of 3- and 4-order tensors
//    with odd/prime dims, rank-1 factors, short-fat (axpy/mode-0 kernel)
//    and tall (prepacked-gemm kernel) factors; and the packed engine at
//    every ISA level the host runs equals the oracle on the scalar level;
//  - blocks over 256 KiB, which take the streaming ttm_rows walk and split
//    their columns at the walk's chunk, match the oracle at every width
//    and level in fp32 and fp64;
//  - both paths record identical flop totals;
//  - the reference mode-0 staging of a fully strided factor view changes
//    no bits;
//  - greedy_order returns a permutation, is forward on isotropic cubes,
//    and SthosvdOptions::auto_order does measurably fewer flops than
//    forward order on an anisotropic tensor while reconstructing equally
//    well.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "blas/matrix.hpp"
#include "common/flops.hpp"
#include "common/thread_pool.hpp"
#include "core/sthosvd.hpp"
#include "data/synthetic_tensor.hpp"
#include "tensor/tensor.hpp"
#include "tensor/ttm.hpp"

namespace tucker {
namespace {

using blas::index_t;
using blas::detail::KernelVariant;
using tensor::Dims;
using tensor::Tensor;

/// Exactly-low-rank tensor: a random core expanded by random tall factors,
/// so multilinear rank is bounded by `ranks` and a fixed-rank ST-HOSVD at
/// those ranks reconstructs it to roundoff.
Tensor<double> low_rank_tensor(const Dims& dims,
                               const std::vector<index_t>& ranks,
                               std::uint64_t seed) {
  Tensor<double> y =
      data::random_tensor<double>(Dims(ranks.begin(), ranks.end()), seed);
  for (std::size_t n = 0; n < dims.size(); ++n) {
    blas::Matrix<double> u(dims[n], ranks[n]);
    Rng rng(seed + 17 * n + 1);
    for (index_t i = 0; i < u.rows(); ++i)
      for (index_t j = 0; j < u.cols(); ++j) u(i, j) = rng.normal<double>();
    y = tensor::ttm(y, n, blas::MatView<const double>(u.view()));
  }
  return y;
}

/// The two TTM paths under comparison: ttm_into and the gemm oracle.
enum class Engine { kPacked, kReference };

/// Runs one TTM path on the requested micro-kernel level (by default the
/// active one), leaving the previous level in place.
template <class T>
Tensor<T> run_engine(Engine e, const Tensor<T>& x, std::size_t n,
                     blas::MatView<const T> u,
                     KernelVariant level = blas::detail::kernel_variant()) {
  const KernelVariant prev_level = blas::detail::kernel_variant();
  blas::detail::set_kernel_variant(level);
  Tensor<T> y;
  if (e == Engine::kPacked) {
    tensor::ttm_into(x, n, u, y);
  } else {
    tensor::detail::ttm_reference_into(x, n, u, y);
  }
  blas::detail::set_kernel_variant(prev_level);
  return y;
}

template <class T>
void expect_bitwise_equal(const Tensor<T>& a, const Tensor<T>& b,
                          const std::string& what) {
  ASSERT_EQ(a.dims(), b.dims()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.size()) * sizeof(T)))
      << what;
}

/// Sweeps every mode of `dims` with truncation factors of each rank in
/// `rank_list` (clamped to the mode size) plus one tall reconstruction
/// factor, comparing packed vs reference bitwise at the current pool width.
/// The reference runs on `ref_level` (by default the active level).
template <class T>
void sweep_modes(const Dims& dims, const std::vector<index_t>& rank_list,
                 std::uint64_t seed,
                 KernelVariant ref_level = blas::detail::kernel_variant()) {
  auto x = data::random_tensor<T>(dims, seed);
  for (std::size_t n = 0; n < dims.size(); ++n) {
    for (index_t r0 : rank_list) {
      const index_t r = std::min<index_t>(r0, dims[n]);
      // Truncation direction: U is F^T, a transposed (column-strided) view.
      blas::Matrix<T> f(dims[n], r);
      Rng rng(seed ^ (n * 131 + static_cast<std::uint64_t>(r)));
      for (index_t i = 0; i < f.rows(); ++i)
        for (index_t j = 0; j < f.cols(); ++j) f(i, j) = rng.normal<T>();
      auto ut = blas::MatView<const T>(f.view().t());
      auto yp = run_engine(Engine::kPacked, x, n, ut);
      auto yr = run_engine(Engine::kReference, x, n, ut, ref_level);
      expect_bitwise_equal(yp, yr,
                           "truncate mode " + std::to_string(n) + " rank " +
                               std::to_string(r));
    }
    // Reconstruction direction: tall U (rows > kTtmAxpyMaxR) exercises the
    // prepacked-gemm path.
    const index_t rows = blas::detail::kTtmAxpyMaxR + 7;
    blas::Matrix<T> u(rows, dims[n]);
    Rng rng(seed ^ (0x7a11u + n));
    for (index_t i = 0; i < u.rows(); ++i)
      for (index_t j = 0; j < u.cols(); ++j) u(i, j) = rng.normal<T>();
    auto uv = blas::MatView<const T>(u.view());
    auto yp = run_engine(Engine::kPacked, x, n, uv);
    auto yr = run_engine(Engine::kReference, x, n, uv, ref_level);
    expect_bitwise_equal(yp, yr, "tall mode " + std::to_string(n));
  }
}

class TtmEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    width_ = parallel::max_threads();
    level_ = blas::detail::kernel_variant();
  }
  void TearDown() override {
    parallel::set_max_threads(width_);
    blas::detail::set_kernel_variant(level_);
  }
  int width_ = 0;
  KernelVariant level_ = KernelVariant::kScalar;
};

TEST_F(TtmEquivalence, PackedMatchesReferenceAcrossWidths3Order) {
  for (int width : {1, 2, 7}) {
    parallel::set_max_threads(width);
    sweep_modes<double>({17, 19, 23}, {1, 5, 16}, 0xabcd01);
    sweep_modes<float>({17, 19, 23}, {1, 7}, 0xabcd02);
  }
}

TEST_F(TtmEquivalence, PackedMatchesReferenceAcrossWidths4Order) {
  for (int width : {1, 2, 7}) {
    parallel::set_max_threads(width);
    sweep_modes<double>({7, 5, 3, 11}, {1, 2, 5}, 0xabcd03);
  }
}

TEST_F(TtmEquivalence, PackedMatchesReferenceBothKernelVariants) {
  for (KernelVariant level : blas::detail::supported_kernel_variants()) {
    blas::detail::set_kernel_variant(level);
    sweep_modes<double>({13, 9, 21}, {1, 4, 13}, 0xabcd04,
                        KernelVariant::kScalar);
    sweep_modes<float>({13, 9, 21}, {1, 4, 13}, 0xabcd05,
                       KernelVariant::kScalar);
  }
}

TEST_F(TtmEquivalence, StreamingWalkMatchesReferenceAcrossWidthsAndLevels) {
  // DRAM-resident blocks (k x before over 256 KiB) take the streaming
  // ttm_rows walk, and with fewer than 2 x width of them the walk splits
  // each block's columns at its chunk. {96, 48, 24}: mode 2 is one 864 KiB
  // block in fp64; {64, 40, 36, 3}: mode 2 is three 720 KiB blocks and
  // mode 3 one 2.2 MiB block. fp32 halves them, still over the line.
  const std::vector<index_t> ranks = {1, 8, 33};
  for (int width : {1, 2, 7}) {
    parallel::set_max_threads(width);
    for (KernelVariant level : blas::detail::supported_kernel_variants()) {
      blas::detail::set_kernel_variant(level);
      sweep_modes<double>({96, 48, 24}, ranks, 0xabcd06,
                          KernelVariant::kScalar);
      sweep_modes<float>({96, 48, 24}, ranks, 0xabcd07,
                         KernelVariant::kScalar);
      sweep_modes<double>({64, 40, 36, 3}, ranks, 0xabcd08,
                          KernelVariant::kScalar);
      sweep_modes<float>({64, 40, 36, 3}, ranks, 0xabcd09,
                         KernelVariant::kScalar);
    }
  }
}

TEST_F(TtmEquivalence, EnginesRecordIdenticalFlopTotals) {
  auto x = data::random_tensor<double>({19, 17, 13}, 77);
  blas::Matrix<double> f(17, 6);
  Rng rng(78);
  for (index_t i = 0; i < f.rows(); ++i)
    for (index_t j = 0; j < f.cols(); ++j) f(i, j) = rng.normal<double>();
  auto ut = blas::MatView<const double>(f.view().t());
  reset_thread_flops();
  (void)run_engine(Engine::kPacked, x, 1, ut);
  const auto packed_flops = thread_flops();
  reset_thread_flops();
  (void)run_engine(Engine::kReference, x, 1, ut);
  EXPECT_EQ(packed_flops, thread_flops());
}

TEST_F(TtmEquivalence, ReferenceMode0StagesFullyStridedFactor) {
  // A factor that is a block of a transposed matrix has no unit stride in
  // either direction, which routes the reference mode-0 path through the
  // arena staging fix. Same values => same bits as a contiguous copy.
  auto x = data::random_tensor<double>({23, 7, 5}, 99);
  blas::Matrix<double> big(23 + 3, 9 + 2);
  Rng rng(100);
  for (index_t i = 0; i < big.rows(); ++i)
    for (index_t j = 0; j < big.cols(); ++j) big(i, j) = rng.normal<double>();
  // 9 x 23 factor embedded in a larger transposed view: row stride 1 would
  // be the transposed matrix's column stride, and blocks keep both > 1.
  auto strided =
      blas::MatView<const double>(big.view().t().block(1, 2, 9, 23));
  blas::Matrix<double> dense(9, 23);
  for (index_t i = 0; i < 9; ++i)
    for (index_t j = 0; j < 23; ++j) dense(i, j) = strided(i, j);
  auto ys = run_engine(Engine::kReference, x, 0, strided);
  auto yd = run_engine(Engine::kReference, x, 0,
                       blas::MatView<const double>(dense.view()));
  expect_bitwise_equal(ys, yd, "strided mode-0 factor staging");
  auto yp = run_engine(Engine::kPacked, x, 0, strided);
  expect_bitwise_equal(yp, yd, "packed with strided mode-0 factor");
}

// ------------------------------------------------------------ greedy order

TEST_F(TtmEquivalence, GreedyOrderIsPermutation) {
  const Dims dims = {48, 12, 30, 7};
  const std::vector<index_t> ranks = {5, 12, 2, 7};
  for (auto method : {core::SvdMethod::kGram, core::SvdMethod::kQr,
                      core::SvdMethod::kRand}) {
    auto order = core::greedy_order(dims, ranks, method);
    ASSERT_EQ(order.size(), dims.size());
    auto sorted = order;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::size_t> iota(dims.size());
    std::iota(iota.begin(), iota.end(), std::size_t{0});
    EXPECT_EQ(sorted, iota);
  }
}

TEST_F(TtmEquivalence, GreedyOrderForwardOnIsotropicCube) {
  EXPECT_EQ(core::greedy_order({16, 16, 16}, {4, 4, 4}),
            core::forward_order(3));
  EXPECT_EQ(core::greedy_order({9, 9, 9, 9}, {3, 3, 3, 3}),
            core::forward_order(4));
}

TEST_F(TtmEquivalence, AutoOrderBeatsForwardOnAnisotropicTensor) {
  // Exactly-low-rank anisotropic tensor: both orders must recover it, and
  // the greedy order must be modeled *and* measured strictly cheaper.
  const Dims dims = {96, 16, 16};
  const std::vector<index_t> ranks = {12, 4, 4};
  auto x = low_rank_tensor(dims, ranks, 0x10a);
  const auto spec = core::TruncationSpec::fixed_ranks(ranks);

  core::SthosvdOptions opt;
  opt.auto_order = true;
  reset_thread_flops();
  auto greedy = core::sthosvd(x, spec, core::SvdMethod::kQr, opt);
  const auto greedy_flops = thread_flops();
  reset_thread_flops();
  auto forward = core::sthosvd(x, spec, core::SvdMethod::kQr);
  const auto forward_flops = thread_flops();

  EXPECT_NE(greedy.order, core::forward_order(3));
  EXPECT_EQ(greedy.order,
            core::greedy_order(dims, ranks, core::SvdMethod::kQr));
  EXPECT_LT(core::modeled_sthosvd_flops(dims, ranks, greedy.order,
                                        core::SvdMethod::kQr),
            core::modeled_sthosvd_flops(dims, ranks, core::forward_order(3),
                                        core::SvdMethod::kQr));
  EXPECT_LT(greedy_flops, forward_flops);

  EXPECT_EQ(greedy.ranks, forward.ranks);
  const double xnorm = std::sqrt(x.norm_squared());
  for (const auto* res : {&greedy, &forward}) {
    auto recon = res->tucker.reconstruct();
    double err = 0;
    for (index_t i = 0; i < x.size(); ++i) {
      const double d = recon.data()[i] - x.data()[i];
      err += d * d;
    }
    EXPECT_LT(std::sqrt(err) / xnorm, 1e-10);
  }
}

TEST_F(TtmEquivalence, ExplicitOrderOverridesAutoOrder) {
  auto x = data::random_tensor<double>({12, 8, 6}, 0x5ee);
  const auto spec = core::TruncationSpec::fixed_ranks({3, 3, 3});
  core::SthosvdOptions opt;
  opt.auto_order = true;
  opt.order = core::backward_order(3);
  auto res = core::sthosvd(x, spec, core::SvdMethod::kGram, opt);
  EXPECT_EQ(res.order, core::backward_order(3));
}

}  // namespace
}  // namespace tucker
