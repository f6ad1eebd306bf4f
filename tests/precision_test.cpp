// Mixed-precision compute path: wide-accumulator (fp32 storage / fp64
// register) gemm/syrk/TTM accuracy and bitwise determinism across thread
// widths and kernel variants, the fp32 sketch, and the word-traffic ledger
// that prices them.

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

template <class T>
bool bitwise_equal(const tensor::Tensor<T>& a, const tensor::Tensor<T>& b) {
  if (a.dims() != b.dims()) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(T) * static_cast<std::size_t>(a.size())) == 0;
}

struct ThreadsGuard {
  int prev = parallel::max_threads();
  ~ThreadsGuard() { parallel::set_max_threads(prev); }
};

struct VariantGuard {
  blas::detail::KernelVariant prev = blas::detail::kernel_variant();
  ~VariantGuard() { blas::detail::set_kernel_variant(prev); }
};

TEST(WideAccumTest, TraitsReportStorageWidth) {
  // Word traffic is priced at storage width; only the register tile widens.
  EXPECT_EQ(precision<float>::bytes_per_word, 4u);
  EXPECT_EQ(precision<double>::bytes_per_word, 8u);
  static_assert(std::is_same_v<wide_t<float>, double>);
  static_assert(std::is_same_v<wide_t<double>, double>);
}

// ------------------------------------- wide accumulation: accuracy rung

// Long-k products: fp32 storage with fp64 register accumulation must beat
// plain fp32 accumulation (whose error grows with the k-chain length) and
// land within a small constant of the storage rounding itself -- the
// "fp32 + wide accum" rung of the accuracy ladder sits between plain
// single and double.
TEST(WideAccumTest, GemmErrorBelowPlainSingle) {
  const index_t m = 24, n = 32, k = 4096;
  Rng rng(21);
  Matrix<float> a(m, k), b(k, n);
  Matrix<double> ad(m, k), bd(k, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < k; ++j) {
      a(i, j) = static_cast<float>(rng.normal<double>());
      ad(i, j) = static_cast<double>(a(i, j));
    }
  for (index_t i = 0; i < k; ++i)
    for (index_t j = 0; j < n; ++j) {
      b(i, j) = static_cast<float>(rng.normal<double>());
      bd(i, j) = static_cast<double>(b(i, j));
    }
  Matrix<double> truth(m, n);
  blas::gemm(1.0, ad.cview(), bd.cview(), 0.0, truth.view());

  Matrix<float> c_native(m, n), c_wide(m, n);
  blas::gemm(1.0f, a.cview(), b.cview(), 0.0f, c_native.view());
  blas::gemm<float, double>(1.0f, a.cview(), b.cview(), 0.0f, c_wide.view());

  double scale = 0, err_native = 0, err_wide = 0;
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) {
      scale = std::max(scale, std::abs(truth(i, j)));
      err_native = std::max(
          err_native,
          std::abs(static_cast<double>(c_native(i, j)) - truth(i, j)));
      err_wide = std::max(
          err_wide,
          std::abs(static_cast<double>(c_wide(i, j)) - truth(i, j)));
    }
  // Wide spills once per k block (k / kGemmKB + 1 roundings) versus
  // the native chain's O(sqrt(k)) accumulated rounding: strictly better at
  // this depth, and within a small constant of one storage rounding.
  EXPECT_LT(err_wide, err_native);
  EXPECT_LE(err_wide, 50 * 1.2e-7 * scale);
}

TEST(WideAccumTest, SyrkErrorBelowPlainSingle) {
  const index_t m = 20, n = 4096;
  Rng rng(22);
  Matrix<float> a(m, n);
  Matrix<double> ad(m, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = static_cast<float>(rng.normal<double>());
      ad(i, j) = static_cast<double>(a(i, j));
    }
  Matrix<double> truth(m, m);
  blas::syrk(1.0, ad.cview(), 0.0, truth.view());
  Matrix<float> g_native(m, m), g_wide(m, m);
  blas::syrk(1.0f, a.cview(), 0.0f, g_native.view());
  blas::syrk<float, double>(1.0f, a.cview(), 0.0f, g_wide.view());
  double scale = 0, err_native = 0, err_wide = 0;
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j <= i; ++j) {
      scale = std::max(scale, std::abs(truth(i, j)));
      err_native = std::max(
          err_native,
          std::abs(static_cast<double>(g_native(i, j)) - truth(i, j)));
      err_wide = std::max(
          err_wide,
          std::abs(static_cast<double>(g_wide(i, j)) - truth(i, j)));
    }
  EXPECT_LT(err_wide, err_native);
  EXPECT_LE(err_wide, 50 * 1.2e-7 * scale);
}

// For T = double the wide instantiation *is* the native one: same type,
// same chain, bitwise identical.
TEST(WideAccumTest, WideIsIdentityForDouble) {
  const index_t m = 16, n = 12, k = 40;
  Rng rng(23);
  Matrix<double> a(m, k), b(k, n), c1(m, n), c2(m, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < k; ++j) a(i, j) = rng.normal<double>();
  for (index_t i = 0; i < k; ++i)
    for (index_t j = 0; j < n; ++j) b(i, j) = rng.normal<double>();
  blas::gemm(1.0, a.cview(), b.cview(), 0.0, c1.view());
  blas::gemm<double, wide_t<double>>(1.0, a.cview(), b.cview(), 0.0,
                                     c2.view());
  EXPECT_TRUE(bitwise_equal(c1, c2));
}

// --------------------------------- wide accumulation: bitwise contracts

TEST(WideAccumTest, GemmSyrkBitwiseAcrossThreadsAndVariants) {
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
      blas::gemm<float, double>(1.0f, a.cview(), b.cview(), 0.0f, c.view());
      blas::syrk<float, double>(1.0f, a.cview(), 0.0f, g.view());
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

TEST(WideAccumTest, TtmEnginesAgreeBitwiseWithinOneKBlock) {
  // The packed engine's wide path accumulates full-k chains; the reference
  // path spills per gemm k block. For k <= kGemmKB both perform exactly
  // one storage rounding per element, so they agree bitwise -- on every
  // mode, at every thread width.
  ThreadsGuard tg;
  tensor::Tensor<float> x({24, 18, 20});
  Rng rng(25);
  for (index_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.normal<double>());

  for (std::size_t mode : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    Matrix<float> u(9, x.dim(mode));
    Rng urng(26 + static_cast<unsigned>(mode));
    for (index_t i = 0; i < u.rows(); ++i)
      for (index_t j = 0; j < u.cols(); ++j)
        u(i, j) = static_cast<float>(urng.normal<double>());

    tensor::Tensor<float> ref;
    for (bool reference : {false, true}) {
      for (int threads : {1, 2, 7}) {
        parallel::set_max_threads(threads);
        tensor::Tensor<float> y;
        if (reference) {
          tensor::detail::ttm_reference_into<float, double>(x, mode, u.cview(),
                                                            y);
        } else {
          tensor::ttm_into(x, mode, u.cview(), y, Accum::kWide);
        }
        if (ref.size() == 0) {
          ref = std::move(y);
          continue;
        }
        EXPECT_TRUE(bitwise_equal(y, ref))
            << "reference=" << reference << " mode=" << mode
            << " threads=" << threads;
      }
    }
  }
}

TEST(WideAccumTest, QrAndStreamSvdStayNative) {
  // The LQ and the small SVD run at storage precision: asking mode_svd for
  // wide accumulation leaves QR-SVD and Stream bitwise on the native path.
  auto xf = data::round_tensor_to<float>(
      data::random_tensor<double>({14, 10, 12}, 31));
  for (auto method : {core::SvdMethod::kQr, core::SvdMethod::kStream}) {
    for (std::size_t n = 0; n < xf.order(); ++n) {
      const auto native =
          core::mode_svd(xf, n, method, 0, 0.0, {}, Accum::kNative);
      const auto wide = core::mode_svd(xf, n, method, 0, 0.0, {}, Accum::kWide);
      ASSERT_EQ(wide.sigma_sq.size(), native.sigma_sq.size());
      EXPECT_EQ(std::memcmp(wide.sigma_sq.data(), native.sigma_sq.data(),
                            sizeof(float) * native.sigma_sq.size()),
                0)
          << core::method_name(method) << " mode " << n;
      EXPECT_TRUE(bitwise_equal(wide.u, native.u))
          << core::method_name(method) << " mode " << n;
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

TEST(Fp32SketchTest, WideAccumDeterministicAcrossThreadWidths) {
  // The sketch's wide branch: bitwise at every width, and the same Omega as
  // the native sketch, so the two differ only by fp32 accumulation error.
  ThreadsGuard tg;
  tensor::Tensor<float> x({20, 12, 14});
  Rng rng(29);
  for (index_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.normal<double>());
  const index_t w = 10;

  Matrix<float> s_ref;
  for (int threads : {1, 2, 7}) {
    parallel::set_max_threads(threads);
    Matrix<float> s(x.dim(1), w);
    tensor::sketch_unfolding_cols(x, 1, 777u, 0, w, s.view(), Accum::kWide);
    if (s_ref.empty()) {
      s_ref = std::move(s);
      continue;
    }
    EXPECT_TRUE(bitwise_equal(s, s_ref)) << "threads=" << threads;
  }

  Matrix<float> s_native(x.dim(1), w);
  tensor::sketch_unfolding_cols(x, 1, 777u, 0, w, s_native.view());
  double maxdiff = 0, scale = 0;
  for (index_t i = 0; i < s_native.rows(); ++i)
    for (index_t j = 0; j < w; ++j) {
      maxdiff = std::max(maxdiff,
                         std::abs(static_cast<double>(s_native(i, j)) -
                                  static_cast<double>(s_ref(i, j))));
      scale = std::max(scale, std::abs(static_cast<double>(s_native(i, j))));
    }
  const double cols = static_cast<double>(x.size() / x.dim(1));
  EXPECT_LE(maxdiff, 2 * static_cast<double>(precision<float>::eps) * scale *
                         std::sqrt(cols));
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

TEST(TrafficTest, WideAccumDoesNotChangeWordTraffic) {
  // Wide accumulation lives in registers: loads and stores stay at storage
  // width, so the modeled traffic must not change.
  const index_t m = 8, n = 8, k = 64;
  Matrix<float> a(m, k), b(k, n), c(m, n);
  blas::fill(a.view(), 1.0f);
  blas::fill(b.view(), 1.0f);
  std::int64_t native_bytes, wide_bytes;
  {
    FlopScope scope;
    blas::gemm(1.0f, a.cview(), b.cview(), 0.0f, c.view());
    native_bytes = scope.traffic();
  }
  {
    FlopScope scope;
    blas::gemm<float, double>(1.0f, a.cview(), b.cview(), 0.0f, c.view());
    wide_bytes = scope.traffic();
  }
  EXPECT_EQ(native_bytes, wide_bytes);
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
