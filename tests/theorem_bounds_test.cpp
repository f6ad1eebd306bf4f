// Quantitative verification of the paper's Theorems 1 and 2: singular-value
// errors and principal angles between computed and exact leading subspaces,
// for the QR and Gram approaches, across gap locations and precisions.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/gemm.hpp"
#include "common/precision.hpp"
#include "common/rng.hpp"
#include "core/sthosvd.hpp"
#include "core/svd_engine.hpp"
#include "core/tucker_tensor.hpp"
#include "data/synthetic_matrix.hpp"
#include "data/synthetic_tensor.hpp"
#include "lapack/bidiag_svd.hpp"
#include "lapack/qr.hpp"
#include "lapack/tridiag_eig.hpp"
#include "stream/hier_svd.hpp"
#include "stream/unfolding_source.hpp"
#include "tensor/tensor_lq.hpp"

namespace tucker {
namespace {

using blas::index_t;
using blas::Matrix;
using blas::MatView;

/// sin of the largest principal angle between range(U) and range(V)
/// (orthonormal inputs): sqrt(1 - sigma_min(U^T V)^2).
double max_principal_angle_sin(MatView<const double> u,
                               MatView<const double> v) {
  Matrix<double> w(u.cols(), v.cols());
  blas::gemm(1.0, MatView<const double>(u.t()), v, 0.0, w.view());
  auto svd = la::bidiag_svd(MatView<const double>(w.view()));
  const double smin = svd.sigma.back();
  return std::sqrt(std::max(0.0, 1.0 - smin * smin));
}

/// QR-path left singular vectors of A in precision T, lifted to double.
template <class T>
Matrix<double> qr_left_vectors(const Matrix<double>& a, index_t k) {
  auto at = data::round_to<T>(a);
  std::vector<T> tau;
  la::gelqf(at.view(), tau);
  auto l = la::extract_l<T>(at.view());
  auto svd = la::bidiag_svd(MatView<const T>(l.view()));
  Matrix<double> u(svd.u.rows(), k);
  for (index_t i = 0; i < u.rows(); ++i)
    for (index_t j = 0; j < k; ++j)
      u(i, j) = static_cast<double>(svd.u(i, j));
  return u;
}

/// Gram-path left singular vectors of A in precision T, lifted to double.
template <class T>
Matrix<double> gram_left_vectors(const Matrix<double>& a, index_t k) {
  auto at = data::round_to<T>(a);
  Matrix<T> g(at.rows(), at.rows());
  blas::syrk(T(1), MatView<const T>(at.view()), T(0), g.view());
  auto eig = la::tridiag_eig(MatView<const T>(g.view()));
  Matrix<double> u(eig.v.rows(), k);
  for (index_t i = 0; i < u.rows(); ++i)
    for (index_t j = 0; j < k; ++j)
      u(i, j) = static_cast<double>(eig.v(i, j));
  return u;
}

/// Exact leading-k subspace from the construction (double QR path at a
/// spectrum where double is exact to ~1e-14).
Matrix<double> reference_subspace(const Matrix<double>& a, index_t k) {
  return qr_left_vectors<double>(a, k);
}

// Spectrum: ||A|| = 1, the leading k values decay geometrically from 1 to
// sigma_k (so the amplification factor ||A||/sigma_k is controllable), and
// a gap of 10x separates sigma_k from the tail.
Matrix<double> gapped_matrix(index_t m, index_t k, double sigma_k,
                             std::uint64_t seed) {
  std::vector<double> s(static_cast<std::size_t>(m));
  for (index_t i = 0; i < m; ++i) {
    if (i < k)
      s[static_cast<std::size_t>(i)] =
          k == 1 ? sigma_k
                 : std::pow(sigma_k, static_cast<double>(i) /
                                         static_cast<double>(k - 1));
    else
      s[static_cast<std::size_t>(i)] =
          0.1 * sigma_k * std::pow(0.7, static_cast<double>(i - k));
  }
  return data::matrix_with_spectrum(m, 6 * m, s, seed);
}

// -------- Theorem 1: QR path, errors O(eps ||A||) --------------------

TEST(Theorem1Test, SingularValueErrorScalesWithEps) {
  const index_t m = 24;
  auto sigma = data::geometric_spectrum(m, 1.0, 1e-4);
  auto a = data::matrix_with_spectrum(m, 6 * m, sigma, 5001);

  // Double: errors ~ eps_d * ||A||.
  auto dd = qr_left_vectors<double>(a, m);  // also computes sigma... redo:
  auto at = data::round_to<double>(a);
  std::vector<double> tau;
  la::gelqf(at.view(), tau);
  auto l = la::extract_l<double>(at.view());
  auto svd_d = la::bidiag_svd(MatView<const double>(l.view()));
  for (index_t i = 0; i < m; ++i)
    EXPECT_NEAR(svd_d.sigma[static_cast<std::size_t>(i)],
                sigma[static_cast<std::size_t>(i)], 100 * 2.2e-16 * sigma[0])
        << i;

  // Single: errors ~ eps_s * ||A||, absolute -- not eps_s * sigma_i.
  auto af = data::round_to<float>(a);
  std::vector<float> tauf;
  la::gelqf(af.view(), tauf);
  auto lf = la::extract_l<float>(af.view());
  auto svd_s = la::bidiag_svd(MatView<const float>(lf.view()));
  for (index_t i = 0; i < m; ++i)
    EXPECT_NEAR(static_cast<double>(svd_s.sigma[static_cast<std::size_t>(i)]),
                sigma[static_cast<std::size_t>(i)], 100 * 1.2e-7 * sigma[0])
        << i;
}

class SubspaceGapTest : public ::testing::TestWithParam<index_t> {};

TEST_P(SubspaceGapTest, QrSingleAngleBoundedByEpsOverGap) {
  // Theorem 1 eq (3): theta(range Uk, range ~Uk) = O(eps ||A|| / gap).
  const index_t k = GetParam();
  const double sigma_k = 1e-2;
  auto a = gapped_matrix(20, k, sigma_k, 5100 + static_cast<unsigned>(k));
  auto ref = reference_subspace(a, k);
  auto got = qr_left_vectors<float>(a, k);
  const double gap = sigma_k - 0.1 * sigma_k;
  const double bound = 1.2e-7 /* eps_s, ||A|| = 1 */ / gap;
  EXPECT_LE(max_principal_angle_sin(MatView<const double>(ref.view()),
                                    MatView<const double>(got.view())),
            200 * bound)
      << "k=" << k;
}

TEST_P(SubspaceGapTest, GramSingleAngleAmplifiedByConditionFactor) {
  // Theorem 2 eq (7): the Gram angle carries an extra ||A||/sigma_k factor.
  // At sigma_k = 3e-3 (||A||/sigma_k ~ 500 with this spectrum's leading
  // growth) the Gram-single subspace must be substantially worse than the
  // QR-single one; at sigma_k ~ ||A|| they should be comparable.
  const index_t k = GetParam();
  auto tight = gapped_matrix(20, k, 3e-3, 5200 + static_cast<unsigned>(k));
  auto ref = reference_subspace(tight, k);
  auto qr1 = qr_left_vectors<float>(tight, k);
  auto gr1 = gram_left_vectors<float>(tight, k);
  const double angle_qr = max_principal_angle_sin(
      MatView<const double>(ref.view()), MatView<const double>(qr1.view()));
  const double angle_gram = max_principal_angle_sin(
      MatView<const double>(ref.view()), MatView<const double>(gr1.view()));
  // Gram's subspace error exceeds QR's by at least ~a factor of the
  // amplification (allowing generous slack for constants).
  EXPECT_GT(angle_gram, 3 * angle_qr) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(GapPositions, SubspaceGapTest,
                         ::testing::Values(2, 4, 7));

TEST(Theorem2Test, GramSigmaErrorScalesWithAmplification) {
  // Theorem 2 eq (5): |~sigma_i - sigma_i| = O(eps ||A||^2 / sigma_i).
  const index_t m = 24;
  auto sigma = data::geometric_spectrum(m, 1.0, 1e-5);
  auto a = data::matrix_with_spectrum(m, 6 * m, sigma, 5301);
  auto af = data::round_to<float>(a);
  Matrix<float> g(m, m);
  blas::syrk(1.0f, MatView<const float>(af.view()), 0.0f, g.view());
  auto eig = la::tridiag_eig(MatView<const float>(g.view()));
  for (index_t i = 0; i < m; ++i) {
    const double truth = sigma[static_cast<std::size_t>(i)];
    const double got = std::sqrt(std::abs(
        static_cast<double>(eig.lambda[static_cast<std::size_t>(i)])));
    // Bound with a generous constant; the *shape* (error grows as sigma
    // shrinks) is what the theorem asserts.
    const double bound = 200 * 1.2e-7 / std::max(truth, 1.2e-7);
    EXPECT_LE(std::abs(got - truth), bound + 1e-7) << i;
  }
}

TEST(Theorem2Test, LowRankResidualAmplification) {
  // Eqs (4) vs (8): the rank-k residual through the computed subspace.
  // Build A with an exact rank-6 signal plus a tiny tail; in single
  // precision the QR subspace captures the signal to ~eps_s while the Gram
  // subspace leaves an amplified residual when sigma_k is small.
  const index_t m = 18, k = 6;
  std::vector<double> s(static_cast<std::size_t>(m));
  for (index_t i = 0; i < m; ++i)
    s[static_cast<std::size_t>(i)] = i < k ? 2e-3 * std::pow(2.0, k - 1. - i)
                                           : 1e-9;
  auto a = data::matrix_with_spectrum(m, 8 * m, s, 5401);

  auto residual = [&](const Matrix<double>& u) {
    // ||(I - U U^T) A||_F
    Matrix<double> coeff(k, a.cols());
    blas::gemm(1.0, MatView<const double>(u.view().t()),
               MatView<const double>(a.view()), 0.0, coeff.view());
    Matrix<double> proj(m, a.cols());
    blas::gemm(1.0, MatView<const double>(u.view()),
               MatView<const double>(coeff.view()), 0.0, proj.view());
    double r = 0;
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < a.cols(); ++j) {
        const double d = a(i, j) - proj(i, j);
        r += d * d;
      }
    return std::sqrt(r);
  };

  const double res_qr = residual(qr_left_vectors<float>(a, k));
  const double res_gram = residual(gram_left_vectors<float>(a, k));
  // Both leave at least the exact tail; Gram leaves meaningfully more.
  EXPECT_GT(res_gram, 2 * res_qr);
}

// ---- Theorem 1 for the out-of-core merge tree ---------------------------
//
// The Iwen-Ong merge tree composes structured Householder QRs, so the
// computed singular values must stay on the same eps*||A|| rung as the
// direct QR path -- the merge depth only enters the constant. The
// reference truth is the double-precision direct QR-SVD (trusted to
// ~1e-14 by the tests above).

/// stream_sthosvd's SVD of a non-trailing mode out of core: tensor_lq of
/// each slab of `slab_slices` trailing slices, merged by TriangleReducer,
/// then the default small SVD.
template <class T>
core::ModeSvd<T> merged_lq_svd(const tensor::Tensor<T>& x, std::size_t n,
                               index_t slab_slices) {
  stream::InMemorySource<T> src(x, slab_slices);
  stream::TriangleReducer<T> red(x.dim(n));
  tensor::Tensor<T> slab;
  for (index_t s = 0; s < src.num_slabs(); ++s) {
    src.read_slab(s, slab);
    red.push(tensor::tensor_lq(slab, n).cview());
  }
  return core::svd_of_l(red.reduce(), core::SmallSvdBackend::kAuto);
}

TEST(Theorem1StreamTest, MergedTriangleSigmasStayOnEpsRung) {
  auto x = data::tensor_with_spectra(
      {14, 12, 16},
      {data::DecayProfile::geometric(1.0, 1e-6),
       data::DecayProfile::geometric(1.0, 1e-6),
       data::DecayProfile::geometric(1.0, 1e-6)},
      5501);
  auto xf = data::round_tensor_to<float>(x);

  for (std::size_t n = 0; n < 2; ++n) {
    auto ref = core::qr_svd(x, n);  // double, single-chunk: the truth
    std::vector<double> sigma(ref.sigma_sq.size());
    for (std::size_t i = 0; i < sigma.size(); ++i)
      sigma[i] = std::sqrt(static_cast<double>(ref.sigma_sq[i]));
    const double smax = sigma[0];

    for (index_t chunk : {1, 3, 5}) {
      // Double: |~sigma_i - sigma_i| = O(eps_d ||A||), uniformly in i.
      auto sd = merged_lq_svd(x, n, chunk);
      ASSERT_EQ(sd.sigma_sq.size(), sigma.size());
      for (std::size_t i = 0; i < sigma.size(); ++i)
        EXPECT_NEAR(std::sqrt(static_cast<double>(sd.sigma_sq[i])), sigma[i],
                    100 * 2.2e-16 * smax)
            << "mode " << n << " chunk " << chunk << " i " << i;

      // Single: the same shape with eps_s -- absolute, not relative.
      auto ss = merged_lq_svd(xf, n, chunk);
      ASSERT_EQ(ss.sigma_sq.size(), sigma.size());
      for (std::size_t i = 0; i < sigma.size(); ++i)
        EXPECT_NEAR(std::sqrt(static_cast<double>(ss.sigma_sq[i])), sigma[i],
                    100 * 1.2e-7 * smax)
            << "mode " << n << " chunk " << chunk << " i " << i;
    }
  }
}

TEST(Theorem1StreamTest, MergeDepthDoesNotErodeTheSubspace) {
  // Leading-subspace angle after a deep merge (chunk = 1, 16 leaves) stays
  // at the eps/gap rung of eq (3), like the direct QR path.
  auto x = data::tensor_with_spectra(
      {12, 10, 16},
      {data::DecayProfile::geometric(1.0, 1e-5),
       data::DecayProfile::geometric(1.0, 1e-5),
       data::DecayProfile::geometric(1.0, 1e-5)},
      5601);
  const index_t k = 4;
  auto ref = core::qr_svd(x, 0);
  auto deep = merged_lq_svd(x, 0, 1);
  Matrix<double> uref(ref.u.rows(), k), udeep(deep.u.rows(), k);
  blas::copy(MatView<const double>(ref.u.view().block(0, 0, ref.u.rows(), k)),
             uref.view());
  blas::copy(
      MatView<const double>(deep.u.view().block(0, 0, deep.u.rows(), k)),
      udeep.view());
  // sqrt(1 - smin^2) cannot resolve angles below ~sqrt(2 eps_d) ~ 3e-8;
  // asserting just above that floor still rules out any erosion toward
  // the single-precision rung.
  EXPECT_LT(max_principal_angle_sin(MatView<const double>(uref.view()),
                                    MatView<const double>(udeep.view())),
            1e-7);
}

// ---- Theorem 1 for the in-node LQ tree ---------------------------------
//
// Theorem 1's rung for the QR path is absolute: |~sigma_i - sigma_i| =
// O(eps_s ||A||). One Householder sweep over a ~2e4-column fp32 unfolding
// drifts off it (11-17 eps_s on mode 0 of these tensors, eps_s = 2^-23):
// each reflector's inner products run down a whole unfolding row. The
// in-node TSQR tree keeps those chains one leaf long (<= 3.2 eps_s). The
// reference is an fp64 LQ of the same fp32 data, so only the
// factorization's rounding is measured.

TEST(Theorem1TreeTest, SingleLqOfLongUnfoldingStaysOnEpsRung) {
  const double eps_s = std::numeric_limits<float>::epsilon();
  for (std::uint64_t seed : {1, 2, 3}) {
    const auto xf = data::round_tensor_to<float>(data::hcci_like(0.5, seed));
    const auto xd = data::round_tensor_to<double>(xf);
    for (std::size_t n = 0; n < 2; ++n) {
      const auto single = core::qr_svd(xf, n);
      const auto exact = core::qr_svd(xd, n);
      ASSERT_EQ(single.sigma_sq.size(), exact.sigma_sq.size());
      const double smax = std::sqrt(exact.sigma_sq[0]);
      for (std::size_t i = 0; i < exact.sigma_sq.size(); ++i)
        EXPECT_LE(std::abs(std::sqrt(static_cast<double>(single.sigma_sq[i])) -
                           std::sqrt(exact.sigma_sq[i])),
                  10 * eps_s * smax)
            << "seed " << seed << " mode " << n << " i " << i;
    }
  }
}

// ---- The fp32 randomized range finder ----------------------------------
//
// The recovered spectrum stays on the working-precision rung.

TEST(MixedPrecisionTest, SingleSketchStaysOnTheWorkingPrecisionRung) {
  auto x = data::tensor_with_spectra(
      {14, 12, 16},
      {data::DecayProfile::geometric(1.0, 1e-6),
       data::DecayProfile::geometric(1.0, 1e-6),
       data::DecayProfile::geometric(1.0, 1e-6)},
      5801);
  auto xf = data::round_tensor_to<float>(x);
  const index_t k = 4;
  auto ref = core::qr_svd(x, 0);  // double truth
  Matrix<double> uref(ref.u.rows(), k);
  blas::copy(MatView<const double>(ref.u.view().block(0, 0, ref.u.rows(), k)),
             uref.view());
  const double smax = std::sqrt(ref.sigma_sq[0]);

  core::RandSvdOptions opt;
  opt.power_iters = 2;
  auto got = core::rand_svd(xf, 0, k, 0.0, opt);
  ASSERT_GE(got.sigma_sq.size(), static_cast<std::size_t>(k));
  // Sigma errors: a generous working-precision-rung bound.
  for (index_t i = 0; i < k; ++i)
    EXPECT_NEAR(
        std::sqrt(static_cast<double>(
            got.sigma_sq[static_cast<std::size_t>(i)])),
        std::sqrt(ref.sigma_sq[static_cast<std::size_t>(i)]), 5e-4 * smax)
        << "i=" << i;
  // Subspace: the leading-k angle stays at the randomized method's
  // accuracy, set by the spectral decay and power iterations.
  Matrix<double> u(got.u.rows(), k);
  for (index_t i = 0; i < u.rows(); ++i)
    for (index_t j = 0; j < k; ++j)
      u(i, j) = static_cast<double>(got.u(i, j));
  EXPECT_LT(max_principal_angle_sin(MatView<const double>(uref.view()),
                                    MatView<const double>(u.view())),
            0.02);
}

// The end-to-end theorem rung: a tolerance-eps ST-HOSVD followed by full
// reconstruction lands within eps of the input (the ST-HOSVD quasi-
// optimality bound at the truncation the certificate reports), the
// certificate itself (estimated_relative_error) upper-bounds the measured
// error up to roundoff slack, and the serving fast path -- prepacked
// factors through reconstruct_into -- reproduces reconstruct() bitwise, so
// every bound proved for the plain chain transfers to the served one.
TEST(RoundTripTest, ReconstructionStaysWithinToleranceRung) {
  const tensor::Dims dims{24, 20, 16};
  const auto profile = data::DecayProfile::geometric(1.0, 1e-8);
  auto x = data::tensor_with_spectra(dims, {profile, profile, profile}, 97);

  for (const double eps : {1e-2, 1e-4}) {
    for (const auto method : {core::SvdMethod::kQr, core::SvdMethod::kGram}) {
      const auto res =
          core::sthosvd(x, core::TruncationSpec::tolerance(eps), method);
      // Tolerance truncation must actually have truncated (otherwise the
      // bound below is vacuous).
      for (std::size_t n = 0; n < dims.size(); ++n)
        ASSERT_LT(res.ranks[n], dims[n]) << "mode " << n;

      const double measured = core::relative_error(x, res.tucker);
      const double certified = res.estimated_relative_error();
      // The per-mode threshold split guarantees certified <= eps; the
      // measured error matches the certificate up to the method's rung
      // (eps_w for QR, sqrt(eps_w)-amplified sigmas for Gram -- both far
      // under the 10% slack at these tolerances).
      EXPECT_LE(certified, eps * (1 + 1e-12));
      EXPECT_LE(measured, eps * 1.1)
          << "eps=" << eps << " method=" << static_cast<int>(method);
      EXPECT_LE(measured, certified * 1.1 + 1e-12);

      // Served fast path == plain reconstruct(), bitwise.
      const auto reference = res.tucker.reconstruct();
      const auto packs = core::prepack_factors(res.tucker);
      tensor::Tensor<double> fast;
      core::reconstruct_into(res.tucker, fast, &packs);
      ASSERT_EQ(fast.dims(), reference.dims());
      EXPECT_EQ(0, std::memcmp(fast.data(), reference.data(),
                               static_cast<std::size_t>(fast.size()) *
                                   sizeof(double)));
    }
  }
}

// ---- The certificate as an oracle, per engine and precision -----------
//
// For each engine in single and double, at tolerances on that engine's
// rung of README's variant table, a tolerance ST-HOSVD must (1) meet the
// tolerance and (2) be bounded by its own certificate up to working
// precision: measured <= certified * (1 + kDelta) + kRoundoff * eps_T.
// The certificate sums the discarded tails of the *computed* spectra, so
// it leaves out the roundoff of the factorization and of the
// reconstruction; kRoundoff * eps_T pays for that, kDelta for the
// perturbation of the computed tails (Gram's sqrt(eps) rung, the sketch).

struct OracleCase {
  core::SvdMethod method;
  bool single;
  std::vector<double> tolerances;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << core::method_name(c.method) << (c.single ? " single" : " double");
}

class CertificateOracleTest : public ::testing::TestWithParam<OracleCase> {
 protected:
  static constexpr double kDelta = 0.1;
  static constexpr double kRoundoff = 100;

  template <class T>
  void run(const OracleCase& c) {
    const tensor::Dims dims{26, 22, 18};
    const auto profile = data::DecayProfile::geometric(1.0, 1e-9);
    const auto x = data::round_tensor_to<T>(
        data::tensor_with_spectra(dims, {profile, profile, profile}, 6101));
    const double eps_t = std::numeric_limits<T>::epsilon();
    for (const double tol : c.tolerances) {
      const auto res =
          core::sthosvd(x, core::TruncationSpec::tolerance(tol), c.method);
      bool truncated = false;
      for (std::size_t n = 0; n < dims.size(); ++n)
        truncated = truncated || res.ranks[n] < dims[n];
      ASSERT_TRUE(truncated) << "tol " << tol;
      const double measured = core::relative_error(x, res.tucker);
      const double certified = res.estimated_relative_error();
      EXPECT_LE(certified, tol * (1 + 1e-12)) << "tol " << tol;
      EXPECT_LE(measured, tol) << "tol " << tol;
      EXPECT_LE(measured, certified * (1 + kDelta) + kRoundoff * eps_t)
          << "tol " << tol << " certified " << certified;
    }
  }
};

TEST_P(CertificateOracleTest, MeasuredErrorWithinToleranceAndCertificate) {
  const OracleCase& c = GetParam();
  if (c.single) {
    run<float>(c);
  } else {
    run<double>(c);
  }
}

// Rungs (README, "Which variant should I use?"): Gram single >= 1e-3, QR
// single down to ~1e-5, Gram double down to ~1e-7 (sqrt(eps_d) ~ 1.5e-8),
// QR double below that; Rand at loose tolerances.
INSTANTIATE_TEST_SUITE_P(
    EnginesAndPrecisions, CertificateOracleTest,
    ::testing::Values(
        OracleCase{core::SvdMethod::kQr, true, {1e-3, 1e-4, 1e-5}},
        OracleCase{core::SvdMethod::kGram, true, {1e-2, 1e-3}},
        OracleCase{core::SvdMethod::kRand, true, {1e-2, 1e-3}},
        OracleCase{core::SvdMethod::kQr, false, {1e-4, 1e-6, 1e-8}},
        OracleCase{core::SvdMethod::kGram, false, {1e-4, 1e-6}},
        OracleCase{core::SvdMethod::kRand, false, {1e-2, 1e-4}}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string(core::method_name(info.param.method)) +
             (info.param.single ? "Single" : "Double");
    });

}  // namespace
}  // namespace tucker
