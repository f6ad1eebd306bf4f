// The single-precision compute path: fp32 gemm/syrk bitwise determinism
// across thread widths and kernel variants, the fp32 sketch, and the
// word-traffic ledger that prices storage width.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/gemm.hpp"
#include "blas/microkernel.hpp"
#include "common/flops.hpp"
#include "common/precision.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/svd_engine.hpp"
#include "data/synthetic_tensor.hpp"
#include "tensor/sketch.hpp"
#include "tensor/ttm.hpp"

namespace tucker {
namespace {

using blas::index_t;
using blas::Matrix;
using blas::MatView;

template <class T>
bool bitwise_equal(const Matrix<T>& a, const Matrix<T>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(T) * static_cast<std::size_t>(a.rows() *
                                                          a.cols())) == 0;
}

struct ThreadsGuard {
  int prev = parallel::max_threads();
  ~ThreadsGuard() { parallel::set_max_threads(prev); }
};

struct VariantGuard {
  blas::detail::KernelVariant prev = blas::detail::kernel_variant();
  ~VariantGuard() { blas::detail::set_kernel_variant(prev); }
};

TEST(PrecisionTraitsTest, ReportStorageWidth) {
  // Word traffic is priced at storage width.
  EXPECT_EQ(precision<float>::bytes_per_word, 4u);
  EXPECT_EQ(precision<double>::bytes_per_word, 8u);
}

// ------------------------------------------------- fp32 bitwise contracts

TEST(Fp32KernelTest, GemmSyrkBitwiseAcrossThreadsAndVariants) {
  ThreadsGuard tg;
  VariantGuard vg;
  using blas::detail::KernelVariant;
  const index_t m = 36, n = 44, k = 300;  // k spans two gemm k blocks
  Rng rng(24);
  Matrix<float> a(m, k), b(k, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < k; ++j)
      a(i, j) = static_cast<float>(rng.normal<double>());
  for (index_t i = 0; i < k; ++i)
    for (index_t j = 0; j < n; ++j)
      b(i, j) = static_cast<float>(rng.normal<double>());

  // The first run, on the scalar oracle at width 1, is the reference for
  // every ISA level the host runs.
  Matrix<float> c_ref, g_ref;
  for (KernelVariant v : blas::detail::supported_kernel_variants()) {
    for (int threads : {1, 2, 7}) {
      blas::detail::set_kernel_variant(v);
      parallel::set_max_threads(threads);
      Matrix<float> c(m, n), g(m, m);
      blas::gemm(1.0f, a.cview(), b.cview(), 0.0f, c.view());
      blas::syrk(1.0f, a.cview(), 0.0f, g.view());
      if (c_ref.empty()) {
        c_ref = std::move(c);
        g_ref = std::move(g);
        continue;
      }
      EXPECT_TRUE(bitwise_equal(c, c_ref))
          << "gemm level=" << blas::detail::kernel_variant_name(v)
          << " threads=" << threads;
      EXPECT_TRUE(bitwise_equal(g, g_ref))
          << "syrk level=" << blas::detail::kernel_variant_name(v)
          << " threads=" << threads;
    }
  }
}

// ------------------------------------------------------- fp32 sketch

TEST(Fp32SketchTest, DeterministicAcrossThreadWidths) {
  ThreadsGuard tg;
  tensor::Tensor<float> x({20, 12, 14});
  Rng rng(27);
  for (index_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.normal<double>());
  const index_t w = 10;

  Matrix<float> s_ref;
  for (int threads : {1, 2, 7}) {
    parallel::set_max_threads(threads);
    Matrix<float> s(x.dim(1), w);
    tensor::sketch_unfolding_cols(x, 1, 777u, 0, w, s.view());
    if (s_ref.empty()) {
      s_ref = std::move(s);
      continue;
    }
    EXPECT_TRUE(bitwise_equal(s, s_ref)) << "threads=" << threads;
  }
}

TEST(Fp32SketchTest, RandSvdStaysOnWorkingPrecisionRung) {
  // The fp32 range finder must recover the leading spectrum to within the
  // working-precision rung of the double truth.
  auto xd = data::tensor_with_spectra(
      {18, 12, 14},
      {data::DecayProfile::geometric(1.0, 1e-4),
       data::DecayProfile::geometric(1.0, 1e-4),
       data::DecayProfile::geometric(1.0, 1e-4)},
      2901);
  auto xf = data::round_tensor_to<float>(xd);
  auto truth = core::qr_svd(xd, 0);
  const index_t r = 6;
  core::RandSvdOptions opt;
  opt.power_iters = 2;

  const double smax = std::sqrt(truth.sigma_sq[0]);
  auto got = core::rand_svd(xf, 0, r, 0.0, opt);
  ASSERT_GE(got.sigma_sq.size(), static_cast<std::size_t>(r));
  for (index_t i = 0; i < r; ++i) {
    const double want = std::sqrt(truth.sigma_sq[static_cast<std::size_t>(i)]);
    const double have = std::sqrt(
        static_cast<double>(got.sigma_sq[static_cast<std::size_t>(i)]));
    EXPECT_NEAR(have, want, 5e-4 * smax) << "i=" << i;
  }
}

// ------------------------------------------------- word-traffic ledger

TEST(TrafficTest, GemmCreditsStorageWidthBytes) {
  const index_t m = 8, n = 8, k = 8;
  Matrix<float> a(m, k), b(k, n), c(m, n);
  blas::fill(a.view(), 1.0f);
  blas::fill(b.view(), 1.0f);
  FlopScope scope;
  blas::gemm(1.0f, a.cview(), b.cview(), 0.0f, c.view());
  EXPECT_EQ(scope.traffic(), flops::gemm_bytes(m, n, k, sizeof(float)));
  // fp32 moves half the bytes of fp64 for the same shape.
  EXPECT_EQ(flops::gemm_bytes(m, n, k, sizeof(float)) * 2,
            flops::gemm_bytes(m, n, k, sizeof(double)));
}

TEST(TrafficTest, SketchBytesPricesOmegaAtTensorWidth) {
  // Omega is generated, never stored or sent; the model prices its reads at
  // the tensor word like every other operand, so fp32 halves every term.
  const std::int64_t m = 16, cols = 100, w = 8;
  EXPECT_EQ(flops::sketch_bytes(m, cols, w, sizeof(float)),
            4 * (m * cols + 2 * m * w + cols * w));
  EXPECT_EQ(flops::sketch_bytes(m, cols, w, sizeof(float)) * 2,
            flops::sketch_bytes(m, cols, w, sizeof(double)));
}

TEST(TrafficTest, WorkerTrafficIsCreditedToSubmitter) {
  ThreadsGuard tg;
  parallel::set_max_threads(4);
  tensor::Tensor<float> x({16, 32, 8});
  Rng rng(28);
  for (index_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.normal<double>());
  Matrix<float> u(8, 32);
  blas::fill(u.view(), 0.25f);
  tensor::Tensor<float> y;
  FlopScope scope;
  tensor::ttm_into(x, 1, u.cview(), y);
  EXPECT_GT(scope.traffic(), 0);
}

}  // namespace
}  // namespace tucker
