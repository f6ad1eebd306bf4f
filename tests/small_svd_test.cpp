// The small SVD of an LQ triangle (core::svd_of_l): Golub-Kahan by default,
// classic one-sided Jacobi for empty input, for the stream driver's
// rank-deficient triangle and as the oracle. The two solvers are checked
// against each other, against known spectra and on rank-deficient input,
// and the dispatch is pinned bitwise: the result never depends on the
// thread width, a ThreadWidthCap (serve workers run capped) or the ignored
// Accum argument, which is what lets a served compress equal the offline one.
// (Golub-Kahan needs a non-empty operand, Jacobi a tall or square one; an
// LQ triangle is always tall or square.)

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/precision.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/svd_engine.hpp"
#include "data/synthetic_matrix.hpp"
#include "data/synthetic_tensor.hpp"
#include "lapack/bidiag_svd.hpp"
#include "lapack/svd.hpp"
#include "stream/hier_svd.hpp"
#include "tensor/tensor_lq.hpp"

namespace tucker {
namespace {

using blas::index_t;
using blas::Matrix;
using blas::MatView;
using core::SmallSvdBackend;

struct ThreadsGuard {
  int prev = parallel::max_threads();
  ~ThreadsGuard() { parallel::set_max_threads(prev); }
};

template <class T>
double orthonormality_error(const Matrix<T>& u) {
  double worst = 0;
  for (index_t i = 0; i < u.cols(); ++i)
    for (index_t j = 0; j <= i; ++j) {
      double dot = 0;
      for (index_t r = 0; r < u.rows(); ++r)
        dot += static_cast<double>(u(r, i)) * static_cast<double>(u(r, j));
      worst = std::max(worst, std::abs(dot - (i == j ? 1.0 : 0.0)));
    }
  return worst;
}

template <class T>
Matrix<T> random_tall(index_t m, index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<T> a(m, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j)
      a(i, j) = static_cast<T>(rng.normal<double>());
  return a;
}

/// Singular values (not squares) of svd_of_l's result, in double.
template <class T>
std::vector<double> sigmas(const core::ModeSvd<T>& r) {
  std::vector<double> s;
  for (T v : r.sigma_sq) s.push_back(std::sqrt(static_cast<double>(v)));
  return s;
}

/// svd_of_l's contract on a raw solver: squared sigmas plus the same U.
template <class T, class Svd>
core::ModeSvd<T> as_mode_svd(const Svd& svd) {
  core::ModeSvd<T> out;
  for (T s : svd.sigma) out.sigma_sq.push_back(s * s);
  out.u = Matrix<T>::from(MatView<const T>(svd.u.view()));
  return out;
}

template <class T>
void expect_same_mode_svd(const core::ModeSvd<T>& got,
                          const core::ModeSvd<T>& ref, const std::string& what) {
  ASSERT_EQ(got.sigma_sq.size(), ref.sigma_sq.size()) << what;
  EXPECT_EQ(std::memcmp(got.sigma_sq.data(), ref.sigma_sq.data(),
                        sizeof(T) * ref.sigma_sq.size()),
            0)
      << what;
  ASSERT_EQ(got.u.rows(), ref.u.rows()) << what;
  ASSERT_EQ(got.u.cols(), ref.u.cols()) << what;
  EXPECT_EQ(std::memcmp(got.u.data(), ref.u.data(),
                        sizeof(T) * static_cast<std::size_t>(ref.u.rows() *
                                                             ref.u.cols())),
            0)
      << what;
}

constexpr SmallSvdBackend kBackends[] = {SmallSvdBackend::kGolubKahan,
                                         SmallSvdBackend::kJacobi};

const char* backend_name(SmallSvdBackend b) {
  return b == SmallSvdBackend::kJacobi ? "Jacobi" : "Golub-Kahan";
}

// ---------------------------------------- Golub-Kahan against the oracle

TEST(SmallSvdTest, GolubKahanMatchesJacobiOnRandomTallDouble) {
  auto a = random_tall<double>(64, 48, 31);
  auto jacobi = la::jacobi_svd(a.cview());
  auto gk = la::bidiag_svd(a.cview());
  ASSERT_EQ(gk.sigma.size(), jacobi.sigma.size());
  const double smax = jacobi.sigma[0];
  // Different algorithms => agreement to method accuracy, not bitwise.
  for (std::size_t i = 0; i < jacobi.sigma.size(); ++i)
    EXPECT_NEAR(gk.sigma[i], jacobi.sigma[i], 1e-12 * smax) << i;
  EXPECT_LT(orthonormality_error(gk.u), 1e-12);
}

TEST(SmallSvdTest, GolubKahanMatchesJacobiOnRandomTallSingle) {
  auto a = random_tall<float>(48, 32, 32);
  auto jacobi = la::jacobi_svd(a.cview());
  auto gk = la::bidiag_svd(a.cview());
  ASSERT_EQ(gk.sigma.size(), jacobi.sigma.size());
  const double smax = static_cast<double>(jacobi.sigma[0]);
  for (std::size_t i = 0; i < jacobi.sigma.size(); ++i)
    EXPECT_NEAR(static_cast<double>(gk.sigma[i]),
                static_cast<double>(jacobi.sigma[i]),
                100 * precision<float>::eps * smax)
        << i;
  EXPECT_LT(orthonormality_error(gk.u), 1e-4);
}

TEST(SmallSvdTest, GolubKahanMatchesJacobiAcrossShapes) {
  // One column, a few, and odd and even widths, each tall and square (the
  // LQ triangle of an unfolding is square; a short mode's is tall).
  for (index_t n : {index_t{1}, index_t{3}, index_t{8}, index_t{19},
                    index_t{24}}) {
    for (index_t m : {n, 2 * n + 5}) {
      auto a = random_tall<double>(m, n, 40 + static_cast<unsigned>(m + n));
      auto jacobi = la::jacobi_svd(a.cview());
      auto gk = la::bidiag_svd(a.cview());
      ASSERT_EQ(gk.sigma.size(), jacobi.sigma.size()) << m << "x" << n;
      const double smax = jacobi.sigma[0];
      for (std::size_t i = 0; i < jacobi.sigma.size(); ++i)
        EXPECT_NEAR(gk.sigma[i], jacobi.sigma[i], 1e-12 * smax)
            << m << "x" << n << " i=" << i;
      EXPECT_LT(orthonormality_error(gk.u), 1e-12) << m << "x" << n;
    }
  }
}

TEST(SmallSvdTest, BothBackendsRecoverKnownSpectrum) {
  const index_t m = 60, n = 24;
  auto sigma = data::geometric_spectrum(n, 1.0, 1e-6);
  auto a = data::matrix_with_spectrum(m, n, sigma, 77);
  for (auto b : kBackends) {
    const auto got = sigmas(core::svd_of_l(a, b));
    ASSERT_EQ(got.size(), static_cast<std::size_t>(n)) << backend_name(b);
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(got[static_cast<std::size_t>(i)],
                  sigma[static_cast<std::size_t>(i)], 1e-12 * sigma[0])
          << backend_name(b) << " i=" << i;
  }
}

TEST(SmallSvdTest, SingleStaysOnSinglePrecisionRung) {
  // fp32 storage, fp32 arithmetic: the result sits on the eps_s * ||A||
  // rung of the accuracy ladder and the basis stays orthonormal.
  const index_t m = 96, n = 32;
  auto sigma = data::geometric_spectrum(n, 1.0, 1e-3);
  auto af = data::round_to<float>(data::matrix_with_spectrum(m, n, sigma, 83));
  for (auto b : kBackends) {
    const auto r = core::svd_of_l(af, b);
    const auto got = sigmas(r);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(n)) << backend_name(b);
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(got[static_cast<std::size_t>(i)],
                  sigma[static_cast<std::size_t>(i)],
                  100 * precision<float>::eps * sigma[0])
          << backend_name(b) << " i=" << i;
    EXPECT_LT(orthonormality_error(r.u), 1e-4) << backend_name(b);
  }
}

// ------------------------------------------------- rank-deficient input

TEST(SmallSvdTest, RankDeficientColumnsCompleteTheBasis) {
  // Zero trailing columns (the shape zero-padded triangles take in the
  // parallel butterfly): trailing sigmas are zero and U still comes back
  // orthonormal -- Jacobi by completing the basis, Golub-Kahan because its
  // U is a product of reflectors and rotations.
  const index_t m = 40, n = 16, rank = 10;
  auto a = random_tall<double>(m, n, 91);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = rank; j < n; ++j) a(i, j) = 0.0;
  for (auto b : kBackends) {
    const auto r = core::svd_of_l(a, b);
    const auto got = sigmas(r);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(n)) << backend_name(b);
    for (index_t i = 1; i < n; ++i)
      EXPECT_LE(got[static_cast<std::size_t>(i)],
                got[static_cast<std::size_t>(i - 1)])
          << backend_name(b) << " i=" << i;
    for (index_t i = rank; i < n; ++i)
      EXPECT_LE(got[static_cast<std::size_t>(i)], 1e-12 * got[0])
          << backend_name(b) << " i=" << i;
    EXPECT_LT(orthonormality_error(r.u), 1e-12) << backend_name(b);
  }
}

TEST(SmallSvdTest, RankDeficientTriangleFromLowRankMatrix) {
  // A genuinely low-rank spectrum (not just zero columns): every direction
  // past the numerical rank must still come back orthonormal.
  const index_t m = 48, n = 20, rank = 7;
  std::vector<double> sigma(static_cast<std::size_t>(rank));
  for (index_t i = 0; i < rank; ++i)
    sigma[static_cast<std::size_t>(i)] =
        std::pow(10.0, -static_cast<double>(i));
  auto a = data::matrix_with_spectrum(m, n, sigma, 97);
  for (auto b : kBackends) {
    const auto r = core::svd_of_l(a, b);
    const auto got = sigmas(r);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(n)) << backend_name(b);
    for (index_t i = 0; i < rank; ++i)
      EXPECT_NEAR(got[static_cast<std::size_t>(i)],
                  sigma[static_cast<std::size_t>(i)], 1e-12 * sigma[0])
          << backend_name(b) << " i=" << i;
    for (index_t i = rank; i < n; ++i)
      EXPECT_LE(got[static_cast<std::size_t>(i)], 1e-12 * sigma[0])
          << backend_name(b) << " i=" << i;
    EXPECT_LT(orthonormality_error(r.u), 1e-12) << backend_name(b);
  }
}

// ------------------------------------------------------ bitwise contract

TEST(SmallSvdTest, BitwiseAcrossThreadWidths) {
  ThreadsGuard tg;
  for (auto b : kBackends) {
    for (index_t n : {index_t{17}, index_t{48}}) {
      auto a = random_tall<double>(96, n, 50 + static_cast<unsigned>(n));
      parallel::set_max_threads(1);
      const auto ref = core::svd_of_l(a, b);
      for (int threads : {2, 4, 7}) {
        parallel::set_max_threads(threads);
        expect_same_mode_svd(core::svd_of_l(a, b), ref,
                             std::string(backend_name(b)) +
                                 " n=" + std::to_string(n) +
                                 " threads=" + std::to_string(threads));
      }
    }
  }
}

// ------------------------------------------------------------ dispatch
//
// svd_of_l's default backend is kAuto, an alias of kGolubKahan: no runtime
// lookup, no env variable, nothing that reads the live thread width.

TEST(SmallSvdDispatchTest, AutoIsGolubKahanAtEveryWidth) {
  ThreadsGuard tg;
  static_assert(SmallSvdBackend::kAuto == SmallSvdBackend::kGolubKahan);
  auto l = random_tall<double>(24, 24, 111);
  parallel::set_max_threads(1);
  const auto ref = as_mode_svd<double>(la::bidiag_svd(l.cview()));
  for (int threads : {1, 2, 4, 7}) {
    parallel::set_max_threads(threads);
    expect_same_mode_svd(core::svd_of_l(l, SmallSvdBackend::kAuto), ref,
                         "auto == bidiag_svd at threads=" +
                             std::to_string(threads));
  }
}

TEST(SmallSvdDispatchTest, JacobiBackendIsClassicJacobiAtEveryWidth) {
  ThreadsGuard tg;
  auto l = random_tall<double>(20, 20, 113);
  parallel::set_max_threads(1);
  const auto ref = as_mode_svd<double>(la::jacobi_svd(l.cview()));
  for (int threads : {1, 2, 4, 7}) {
    parallel::set_max_threads(threads);
    expect_same_mode_svd(core::svd_of_l(l, SmallSvdBackend::kJacobi), ref,
                         "kJacobi == jacobi_svd at threads=" +
                             std::to_string(threads));
  }
}

TEST(SmallSvdDispatchTest, EmptyTriangleTakesJacobi) {
  // Golub-Kahan needs at least one column; an empty triangle falls back to
  // Jacobi whatever backend was asked for and yields an empty basis.
  Matrix<double> empty(5, 0);
  for (auto b : {SmallSvdBackend::kAuto, SmallSvdBackend::kGolubKahan,
                 SmallSvdBackend::kJacobi}) {
    const auto r = core::svd_of_l(empty, b);
    EXPECT_TRUE(r.sigma_sq.empty()) << backend_name(b);
    EXPECT_EQ(r.u.rows(), 5) << backend_name(b);
    EXPECT_EQ(r.u.cols(), 0) << backend_name(b);
  }
}

TEST(SmallSvdDispatchTest, AccumArgumentIsIgnored) {
  // The LQ and the small SVD run at storage precision: a wide accumulator
  // request reaches neither solver, at any width.
  ThreadsGuard tg;
  for (auto b : kBackends) {
    for (index_t m : {index_t{40}, index_t{80}}) {
      auto l = random_tall<float>(m, 40, 61 + static_cast<unsigned>(m));
      parallel::set_max_threads(1);
      const auto ref = core::svd_of_l(l, b, Accum::kNative);
      for (int threads : {1, 2, 7}) {
        parallel::set_max_threads(threads);
        expect_same_mode_svd(core::svd_of_l(l, b, Accum::kWide), ref,
                             std::string(backend_name(b)) +
                                 " m=" + std::to_string(m) +
                                 " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(SmallSvdDispatchTest, WidthCapLeavesTheResultUnchanged) {
  // A serve worker runs its requests under ThreadWidthCap(width / workers);
  // its QR-SVD must produce the bits of an uncapped caller.
  ThreadsGuard tg;
  parallel::set_max_threads(4);
  auto l = random_tall<double>(22, 22, 115);
  auto y = data::random_tensor<double>({12, 10, 9}, 116);
  const auto ref_l = core::svd_of_l(l, SmallSvdBackend::kAuto);
  std::vector<core::ModeSvd<double>> ref_qr;
  for (std::size_t n = 0; n < y.order(); ++n)
    ref_qr.push_back(core::qr_svd(y, n));
  for (int cap : {1, 2, 3}) {
    parallel::ThreadWidthCap capped(cap);
    const std::string at = " under cap " + std::to_string(cap);
    expect_same_mode_svd(core::svd_of_l(l, SmallSvdBackend::kAuto), ref_l,
                         "svd_of_l" + at);
    for (std::size_t n = 0; n < y.order(); ++n)
      expect_same_mode_svd(core::qr_svd(y, n), ref_qr[n],
                           "qr_svd mode " + std::to_string(n) + at);
  }
}

TEST(SmallSvdDispatchTest, QrAndStreamSvdRunGolubKahanOnTheTriangle) {
  // Both drivers hand their LQ triangle to the same default small SVD, so a
  // served or streamed QR-SVD is the offline one down to the last bit.
  auto y = data::random_tensor<double>({10, 9, 12}, 117);
  for (std::size_t n = 0; n < y.order(); ++n) {
    const std::string mode = "mode " + std::to_string(n);
    expect_same_mode_svd(
        core::qr_svd(y, n),
        as_mode_svd<double>(la::bidiag_svd(tensor::tensor_lq(y, n).cview())),
        "qr_svd, " + mode);
    const index_t chunk = 3;
    expect_same_mode_svd(
        core::stream_svd(y, n, chunk),
        as_mode_svd<double>(la::bidiag_svd(
            stream::chunked_unfolding_lq(y, n, chunk).cview())),
        "stream_svd, " + mode);
  }
}

}  // namespace
}  // namespace tucker
