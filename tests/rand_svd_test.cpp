// Property tests for the randomized range-finder SVD engine (SvdMethod::
// kRand): fixed-rank accuracy against the exact QR-SVD, tolerance mode
// meeting its error budget through adaptive oversampling, bitwise
// determinism across thread-pool widths and across simmpi grid shapes, the
// plain range finder (power_iters = 0) sequentially and on grids, the
// incremental-extension property of the counter-based sketch, the flop
// credit of the sketch kernel, the counter-based Gaussian it draws from,
// arena reuse, and (SketchSteps) the three sketch kernels against their
// written-out per-element chains at every width and ISA level. Also pins
// the select_rank R >= 1 contract on empty input (regression) and the
// exhaustive method_name switch.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "blas/microkernel.hpp"
#include "common/flops.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "core/par_sthosvd.hpp"
#include "core/sthosvd.hpp"
#include "data/synthetic_matrix.hpp"
#include "data/synthetic_tensor.hpp"
#include "simmpi/runtime.hpp"
#include "tensor/sketch.hpp"

namespace {

using tucker::blas::index_t;
using tucker::blas::Matrix;
using tucker::core::RandSvdOptions;
using tucker::core::SvdMethod;
using tucker::core::TruncationSpec;
using tucker::dist::DistTensor;
using tucker::dist::ProcessorGrid;
using tucker::tensor::Dims;
using tucker::tensor::Tensor;

Tensor<double> test_cube(index_t n, std::uint64_t seed) {
  return tucker::data::tensor_with_spectra(
      {n, n, n},
      {tucker::data::DecayProfile::geometric(1, 1e-9),
       tucker::data::DecayProfile::geometric(1, 1e-9),
       tucker::data::DecayProfile::geometric(1, 1e-9)},
      seed);
}

// Restores the pool width the test found on entry.
struct ThreadsGuard {
  int saved = tucker::parallel::max_threads();
  ~ThreadsGuard() { tucker::parallel::set_max_threads(saved); }
};

template <class T>
bool bitwise_equal(const tucker::core::ModeSvd<T>& a,
                   const tucker::core::ModeSvd<T>& b) {
  return a.sigma_sq.size() == b.sigma_sq.size() &&
         std::memcmp(a.sigma_sq.data(), b.sigma_sq.data(),
                     a.sigma_sq.size() * sizeof(T)) == 0 &&
         a.u.rows() == b.u.rows() && a.u.cols() == b.u.cols() &&
         std::memcmp(a.u.data(), b.u.data(),
                     static_cast<std::size_t>(a.u.rows() * a.u.cols()) *
                         sizeof(T)) == 0;
}

// ------------------------------------------------------------- satellites

TEST(SelectRankTest, EmptySpectrumReturnsAtLeastOne) {
  // Contract: select_rank never returns 0, even on an empty spectrum --
  // a rank-0 mode would produce a degenerate core downstream.
  EXPECT_EQ(tucker::core::select_rank(std::vector<double>{}, 1.0), 1);
  EXPECT_EQ(tucker::core::select_rank(std::vector<double>{}, 0.0), 1);
  // And a threshold larger than the whole energy still keeps one mode.
  EXPECT_EQ(tucker::core::select_rank(std::vector<double>{1.0, 0.1}, 100.0),
            1);
}

TEST(MethodNameTest, CoversAllEngines) {
  EXPECT_EQ(tucker::core::method_name(SvdMethod::kGram), "Gram");
  EXPECT_EQ(tucker::core::method_name(SvdMethod::kQr), "QR");
  EXPECT_EQ(tucker::core::method_name(SvdMethod::kRand), "Rand");
}

// ------------------------------------------------------ fixed-rank accuracy

template <class T>
void expect_fixed_rank_matches_qr(double sigma_tol) {
  auto xd = test_cube(24, 7);
  auto x = tucker::data::round_tensor_to<T>(xd);
  const index_t r = 6;
  auto qr = tucker::core::qr_svd(x, 0);
  RandSvdOptions opt;
  opt.power_iters = 2;
  auto rnd = tucker::core::rand_svd(x, 0, r, 0.0, opt);
  ASSERT_GE(static_cast<index_t>(rnd.sigma_sq.size()), r);
  ASSERT_EQ(rnd.u.rows(), x.dim(0));
  ASSERT_GE(rnd.u.cols(), r);
  for (index_t i = 0; i < r; ++i) {
    const double exact = std::sqrt(static_cast<double>(qr.sigma_sq[i]));
    const double got =
        std::sqrt(std::max(0.0, static_cast<double>(rnd.sigma_sq[i])));
    EXPECT_NEAR(got, exact, sigma_tol * exact) << "sigma " << i;
  }
  // The basis is orthonormal: ||U^T U - I||_max small.
  for (index_t i = 0; i < r; ++i)
    for (index_t j = 0; j <= i; ++j) {
      double dot = 0;
      for (index_t k = 0; k < rnd.u.rows(); ++k)
        dot += static_cast<double>(rnd.u(k, i)) *
               static_cast<double>(rnd.u(k, j));
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, sigma_tol);
    }
}

TEST(RandSvdTest, FixedRankMatchesQrDouble) {
  expect_fixed_rank_matches_qr<double>(1e-8);
}

TEST(RandSvdTest, FixedRankMatchesQrSingle) {
  expect_fixed_rank_matches_qr<float>(1e-3);
}

// ------------------------------------------------------- tolerance contract

TEST(RandSvdTest, ToleranceModeMeetsEps) {
  auto x = test_cube(26, 11);
  for (const double eps : {1e-2, 1e-4, 1e-6}) {
    auto res =
        tucker::core::sthosvd(x, TruncationSpec::tolerance(eps),
                              SvdMethod::kRand);
    const double err = tucker::core::relative_error(x, res.tucker);
    EXPECT_LE(err, eps) << "eps " << eps;
    // The engine's certificate (from the residual pseudo-sigma) is honest:
    // it bounds the realized error up to rounding.
    EXPECT_LE(err, res.estimated_relative_error() * 1.5 + 1e-12);
  }
}

TEST(RandSvdTest, AdaptiveWideningReachesExactRanks) {
  // Start the guess far below the needed rank so the tolerance loop must
  // double the sketch width at least twice; it should still land on ranks
  // no larger than a small oversample above the exact engine's.
  auto x = test_cube(30, 13);
  const double eps = 1e-7;
  auto qr = tucker::core::sthosvd(x, TruncationSpec::tolerance(eps),
                                  SvdMethod::kQr);
  RandSvdOptions opt;
  opt.rank_guess = 2;
  opt.oversample = 2;
  auto rnd = tucker::core::sthosvd(x, TruncationSpec::tolerance(eps),
                                   SvdMethod::kRand, {}, opt);
  ASSERT_EQ(rnd.ranks.size(), qr.ranks.size());
  for (std::size_t n = 0; n < qr.ranks.size(); ++n) {
    EXPECT_GE(rnd.ranks[n], qr.ranks[n] - 1) << "mode " << n;
    EXPECT_LE(rnd.ranks[n], qr.ranks[n] + opt.oversample + 2) << "mode " << n;
  }
  EXPECT_LE(tucker::core::relative_error(x, rnd.tucker), eps);
}

// ----------------------------------------------------------- determinism

TEST(RandSvdTest, BitwiseIdenticalAcrossThreadCounts) {
  ThreadsGuard guard;
  auto x = test_cube(20, 17);
  tucker::parallel::set_max_threads(1);
  auto ref = tucker::core::rand_svd(x, 0, 5, 0.0);
  for (const int w : {2, 7}) {
    tucker::parallel::set_max_threads(w);
    auto got = tucker::core::rand_svd(x, 0, 5, 0.0);
    EXPECT_TRUE(bitwise_equal(ref, got)) << "threads " << w;
  }
}

TEST(RandSvdTest, SthosvdBitwiseAcrossThreadCounts) {
  ThreadsGuard guard;
  auto x = test_cube(18, 19);
  const auto spec = TruncationSpec::tolerance(1e-5);
  tucker::parallel::set_max_threads(1);
  auto ref = tucker::core::sthosvd(x, spec, SvdMethod::kRand);
  for (const int w : {2, 7}) {
    tucker::parallel::set_max_threads(w);
    auto got = tucker::core::sthosvd(x, spec, SvdMethod::kRand);
    ASSERT_EQ(got.ranks, ref.ranks) << "threads " << w;
    EXPECT_EQ(std::memcmp(got.tucker.core.data(), ref.tucker.core.data(),
                          static_cast<std::size_t>(ref.tucker.core.size()) *
                              sizeof(double)),
              0)
        << "threads " << w;
  }
}

// -------------------------------------------------------------- simmpi

TEST(ParRandSvdTest, GridsMatchSequentialRanksAndError) {
  auto x = test_cube(16, 23);
  const double eps = 1e-5;
  auto seq = tucker::core::sthosvd(x, TruncationSpec::tolerance(eps),
                                   SvdMethod::kRand);
  for (const Dims& gdims :
       {Dims{1, 1, 1}, Dims{2, 1, 1}, Dims{2, 2, 1}, Dims{1, 2, 2}}) {
    const int p = ProcessorGrid(gdims).total();
    tucker::mpi::Runtime::run(p, [&](tucker::mpi::Comm& world) {
      DistTensor<double> dt(world, ProcessorGrid(gdims), x.dims());
      dt.fill_from(x);
      auto par = tucker::core::par_sthosvd(
          dt, TruncationSpec::tolerance(eps), SvdMethod::kRand);
      EXPECT_EQ(par.ranks, seq.ranks);
      auto tk = par.gather_to_root();
      if (world.rank() == 0) {
        EXPECT_LE(tucker::core::relative_error(x, tk), eps);
      }
    });
  }
}

TEST(ParRandSvdTest, RepeatRunsBitwiseIdenticalPerGrid) {
  auto x = test_cube(14, 29);
  const Dims gdims{2, 2, 1};
  const int p = ProcessorGrid(gdims).total();
  auto run_once = [&](std::vector<double>* core_out,
                      std::vector<index_t>* ranks_out) {
    tucker::mpi::Runtime::run(p, [&](tucker::mpi::Comm& world) {
      DistTensor<double> dt(world, ProcessorGrid(gdims), x.dims());
      dt.fill_from(x);
      auto par = tucker::core::par_sthosvd(
          dt, TruncationSpec::tolerance(1e-4), SvdMethod::kRand);
      auto tk = par.gather_to_root();
      if (world.rank() == 0) {
        *ranks_out = par.ranks;
        core_out->assign(tk.core.data(), tk.core.data() + tk.core.size());
      }
    });
  };
  std::vector<double> c1, c2;
  std::vector<index_t> r1, r2;
  run_once(&c1, &r1);
  run_once(&c2, &r2);
  EXPECT_EQ(r1, r2);
  ASSERT_EQ(c1.size(), c2.size());
  EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(double)),
            0);
}

TEST(ParRandSvdTest, FixedRankHonoredOnGrid) {
  auto x = test_cube(12, 31);
  const Dims ranks{4, 3, 5};
  tucker::mpi::Runtime::run(4, [&](tucker::mpi::Comm& world) {
    DistTensor<double> dt(world, ProcessorGrid({2, 2, 1}), x.dims());
    dt.fill_from(x);
    auto par = tucker::core::par_sthosvd(
        dt, TruncationSpec::fixed_ranks(ranks), SvdMethod::kRand);
    ASSERT_EQ(par.ranks.size(), 3u);
    for (std::size_t n = 0; n < 3; ++n)
      EXPECT_EQ(par.ranks[n], ranks[n]) << "mode " << n;
  });
}

// ------------------------------------------ plain range finder (q = 0)
//
// kRand at power_iters = 0 is the plain range finder (HMT Alg 4.1 + the
// projected Gram solve), sequentially and on simmpi grids.

RandSvdOptions plain_finder(index_t oversample = 8) {
  RandSvdOptions opt;
  opt.oversample = oversample;
  opt.power_iters = 0;
  return opt;
}

// A {3, d1, d2} random core lifted to `rows` in mode 0: the mode-0
// unfolding has exact rank 3.
Tensor<double> exact_rank3_mode0(index_t rows, index_t d1, index_t d2,
                                 std::uint64_t seed) {
  tucker::Rng rng(seed);
  Tensor<double> core =
      tucker::data::random_tensor<double>({3, d1, d2}, seed + 1);
  auto u0 = tucker::data::random_orthonormal(rows, 3, rng);
  return tucker::tensor::ttm(core, 0,
                             tucker::blas::MatView<const double>(u0.view()));
}

// ||X - U U^T X|| / ||X|| through the mode-0 unfolding, U = the leading
// r columns of u.
double mode0_projection_residual(const Tensor<double>& x,
                                 const Matrix<double>& u, index_t r) {
  const auto ur =
      tucker::blas::MatView<const double>(u.view().block(0, 0, x.dim(0), r));
  auto y = tucker::tensor::ttm(x, 0, ur.t());
  auto back = tucker::tensor::ttm(y, 0, ur);
  double diff = 0;
  for (index_t i = 0; i < x.size(); ++i) {
    const double d = x.data()[i] - back.data()[i];
    diff += d * d;
  }
  return std::sqrt(diff / x.norm_squared());
}

TEST(RandomizedSvdTest, RecoversExactLowRankSubspace) {
  auto x = exact_rank3_mode0(12, 8, 7, 401);
  auto rnd = tucker::core::rand_svd(x, 0, 3, 0.0, plain_finder());
  ASSERT_GE(rnd.u.cols(), 3);
  EXPECT_LE(mode0_projection_residual(x, rnd.u, 3), 1e-10);
}

TEST(RandomizedSvdTest, FixedRankSthosvdComparableToQr) {
  auto x = tucker::data::tensor_with_spectra(
      {14, 12, 10}, {tucker::data::DecayProfile::geometric(1, 1e-4),
                     tucker::data::DecayProfile::geometric(1, 1e-4),
                     tucker::data::DecayProfile::geometric(1, 1e-4)},
      407);
  const auto spec = TruncationSpec::fixed_ranks({5, 5, 5});
  auto qr = tucker::core::sthosvd(x, spec, SvdMethod::kQr);
  auto rnd =
      tucker::core::sthosvd(x, spec, SvdMethod::kRand, {}, plain_finder());
  EXPECT_EQ(rnd.tucker.core.dims(), (Dims{5, 5, 5}));
  // Oversampling alone keeps the error within a modest factor of QR's.
  EXPECT_LE(tucker::core::relative_error(x, rnd.tucker),
            3 * tucker::core::relative_error(x, qr.tucker) + 1e-12);
}

TEST(RandomizedSvdTest, CheaperThanGramForSmallRank) {
  // A width-7 sketch (rank 3, oversample 4) of a 24-row unfolding credits
  // fewer flops than forming and solving the 24 x 24 Gram matrix.
  auto x = tucker::data::random_tensor<double>({24, 16, 16}, 409);
  tucker::FlopScope rand_scope;
  (void)tucker::core::rand_svd(x, 0, 3, 0.0, plain_finder(4));
  const auto rand_flops = rand_scope.flops();
  tucker::FlopScope gram_scope;
  (void)tucker::core::gram_svd(x, 0);
  EXPECT_LT(rand_flops, gram_scope.flops());
}

tucker::core::ModeSvd<double> par_rand_svd(const DistTensor<double>& dt,
                                           std::size_t n, index_t rank,
                                           const RandSvdOptions& opt) {
  return tucker::dist::par_rand_svd(dt, n, rank, 0.0, opt.oversample,
                                    opt.power_iters, opt.seed,
                                    opt.rank_guess, "test");
}

TEST(ParRandomizedSvdTest, ExactLowRankSubspaceRecovered) {
  auto x = exact_rank3_mode0(12, 6, 5, 6001);
  Matrix<double> u;
  tucker::mpi::Runtime::run(4, [&](tucker::mpi::Comm& world) {
    DistTensor<double> dt(world, ProcessorGrid({2, 2, 1}), x.dims());
    dt.fill_from(x);
    auto rsvd = par_rand_svd(dt, 0, 3, plain_finder());
    if (world.rank() == 0) u = std::move(rsvd.u);
  });
  ASSERT_GE(u.cols(), 3);
  EXPECT_LE(mode0_projection_residual(x, u, 3), 1e-10);
}

TEST(ParRandomizedSvdTest, ReplicatedIdenticallyAcrossRanksAndGrids) {
  auto x = tucker::data::tensor_with_spectra(
      {8, 7, 6}, {tucker::data::DecayProfile::geometric(1, 1e-3),
                  tucker::data::DecayProfile::geometric(1, 1e-3),
                  tucker::data::DecayProfile::geometric(1, 1e-3)},
      6003);
  // Every rank holds the same basis bit for bit, and the same sketch seed
  // gives the same spectrum whatever the grid.
  RandSvdOptions opt = plain_finder(4);
  opt.seed = 99;
  auto run_grid = [&](const Dims& gdims) {
    const int p = ProcessorGrid(gdims).total();
    std::vector<tucker::core::ModeSvd<double>> per_rank(p);
    tucker::mpi::Runtime::run(p, [&](tucker::mpi::Comm& world) {
      DistTensor<double> dt(world, ProcessorGrid(gdims), x.dims());
      dt.fill_from(x);
      per_rank[world.rank()] = par_rand_svd(dt, 1, 4, opt);
    });
    for (int r = 1; r < p; ++r)
      EXPECT_TRUE(bitwise_equal(per_rank[r], per_rank[0]))
          << "rank " << r << " of grid " << gdims[0] << "x" << gdims[1]
          << "x" << gdims[2];
    return per_rank[0].sigma_sq;
  };
  const auto sig_a = run_grid({2, 2, 1});
  const auto sig_b = run_grid({1, 2, 1});
  ASSERT_EQ(sig_a.size(), sig_b.size());
  for (std::size_t i = 0; i < sig_a.size(); ++i)
    EXPECT_NEAR(sig_a[i], sig_b[i], 1e-9 * (sig_a[0] + 1e-30))
        << "sketches must agree across distributions, i=" << i;
}

TEST(ParRandomizedSthosvdTest, ErrorComparableToDeterministic) {
  auto x = tucker::data::tensor_with_spectra(
      {12, 10, 8}, {tucker::data::DecayProfile::geometric(1, 1e-4),
                    tucker::data::DecayProfile::geometric(1, 1e-4),
                    tucker::data::DecayProfile::geometric(1, 1e-4)},
      6004);
  const auto spec = TruncationSpec::fixed_ranks({4, 4, 4});
  auto det = tucker::core::sthosvd(x, spec, SvdMethod::kQr);
  const double det_err = tucker::core::relative_error(x, det.tucker);
  tucker::mpi::Runtime::run(4, [&](tucker::mpi::Comm& world) {
    DistTensor<double> dt(world, ProcessorGrid({2, 1, 2}), x.dims());
    dt.fill_from(x);
    auto rnd = tucker::core::par_sthosvd(dt, spec, SvdMethod::kRand, {},
                                         plain_finder());
    EXPECT_EQ(rnd.core.global_dims(), (Dims{4, 4, 4}));
    auto tk = rnd.gather_to_root();
    if (world.rank() == 0) {
      EXPECT_LE(tucker::core::relative_error(x, tk), 3 * det_err + 1e-12);
    }
  });
}

TEST(ParRandomizedSthosvdTest, BackwardOrderWorks) {
  auto x = tucker::data::random_tensor<double>({8, 6, 6, 4}, 6005);
  const Dims ranks{3, 3, 3, 2};
  tucker::mpi::Runtime::run(4, [&](tucker::mpi::Comm& world) {
    DistTensor<double> dt(world, ProcessorGrid({2, 2, 1, 1}), x.dims());
    dt.fill_from(x);
    auto rnd = tucker::core::par_sthosvd(
        dt, TruncationSpec::fixed_ranks(ranks), SvdMethod::kRand,
        tucker::core::backward_order(4), plain_finder());
    EXPECT_EQ(rnd.core.global_dims(), ranks);
    ASSERT_EQ(rnd.ranks.size(), 4u);
    for (std::size_t n = 0; n < 4; ++n) {
      EXPECT_EQ(rnd.ranks[n], ranks[n]) << "mode " << n;
      EXPECT_EQ(rnd.factors[n].rows(), x.dim(n)) << "mode " << n;
      EXPECT_EQ(rnd.factors[n].cols(), ranks[n]) << "mode " << n;
    }
  });
}

// --------------------------------------------------- sketch kernel props

TEST(HashNormalTest, DeterministicAcrossCalls) {
  EXPECT_EQ(tucker::hash_normal(1, 2, 3), tucker::hash_normal(1, 2, 3));
  EXPECT_NE(tucker::hash_normal(1, 2, 3), tucker::hash_normal(1, 2, 4));
  EXPECT_NE(tucker::hash_normal(1, 2, 3), tucker::hash_normal(2, 2, 3));
}

TEST(HashNormalTest, ApproximatelyStandardNormal) {
  double sum = 0, sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = tucker::hash_normal(42, static_cast<std::uint64_t>(i), 7);
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(SketchTest, IncrementalExtensionIsBitwiseConsistent) {
  // Sketching [0, w) in one shot equals sketching [0, w/2) then appending
  // [w/2, w): the property the adaptive-oversampling loop relies on.
  auto x = test_cube(15, 37);
  const index_t w = 12;
  const std::uint64_t stream = 0xabcdULL;
  for (std::size_t n = 0; n < 3; ++n) {
    const index_t m = x.dim(n);
    Matrix<double> one(m, w), two(m, w);
    tucker::tensor::sketch_unfolding_cols(x, n, stream, 0, w, one.view());
    tucker::tensor::sketch_unfolding_cols(x, n, stream, 0, w / 2,
                                          two.view().block(0, 0, m, w / 2));
    tucker::tensor::sketch_unfolding_cols(
        x, n, stream, w / 2, w, two.view().block(0, w / 2, m, w - w / 2));
    EXPECT_EQ(std::memcmp(one.data(), two.data(),
                          static_cast<std::size_t>(m * w) * sizeof(double)),
              0)
        << "mode " << n;
  }
}

TEST(SketchTest, FlopCreditMatchesModel) {
  auto x = test_cube(10, 41);
  const index_t m = x.dim(1), cols = x.size() / m, w = 7;
  Matrix<double> s(m, w);
  tucker::FlopScope scope;
  tucker::tensor::sketch_unfolding_cols(x, 1, 1ULL, 0, w, s.view());
  EXPECT_EQ(scope.flops(), tucker::flops::gaussian_sketch(m, cols, w));
}

TEST(RandSvdTest, ArenaReuseNoSteadyStateGrowth) {
  // A one-step walk (the 16^3 cube) and a mode 0 of three steps.
  const index_t step = tucker::tensor::detail::kSketchStep;
  for (const auto& x :
       {test_cube(16, 43), tucker::data::random_tensor<double>(
                               {16, 2 * step / 64 + 7, 64}, 44)}) {
    auto& ws = tucker::Workspace::local();
    auto r0 = tucker::core::rand_svd(x, 0, 4, 0.0);
    const std::size_t reserved = ws.bytes_reserved();
    for (int i = 0; i < 3; ++i) {
      auto r = tucker::core::rand_svd(x, 0, 4, 0.0);
      EXPECT_TRUE(bitwise_equal(r0, r));
    }
    EXPECT_EQ(ws.bytes_reserved(), reserved);
  }
}

// ------------------------------------------------ sketch steps, oracle

// Restores the micro-kernel level the test found on entry.
struct VariantGuard {
  tucker::blas::detail::KernelVariant saved =
      tucker::blas::detail::kernel_variant();
  ~VariantGuard() { tucker::blas::detail::set_kernel_variant(saved); }
};

template <class T>
bool same_bits(const Matrix<T>& a, const Matrix<T>& b) {
  const auto bytes =
      sizeof(T) * static_cast<std::size_t>(a.rows() * a.cols());
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), bytes) == 0;
}

/// The per-element chains of the three sketch kernels, written out: every
/// sum runs over its k index in ascending order, one c += (1 * a) * b per
/// term, from zero -- unfolding columns in order for S, out and G.
template <class T>
struct SketchChains {
  Matrix<T> x;  // the mode-n unfolding

  SketchChains(const Tensor<T>& t, std::size_t n)
      : x(t.dim(n), t.size() / t.dim(n)) {
    for (index_t i = 0; i < x.rows(); ++i)
      for (index_t c = 0; c < x.cols(); ++c)
        x(i, c) = tucker::tensor::unfolding_entry(t, n, i, c);
  }

  // S = X * Omega(:, jlo:jhi), Omega's row c drawn at global_col(c).
  template <class ColMap>
  Matrix<T> sketch(std::uint64_t stream, index_t jlo, index_t jhi,
                   const ColMap& global_col) const {
    Matrix<T> s(x.rows(), jhi - jlo);
    std::vector<T> om(static_cast<std::size_t>(x.cols()));
    for (index_t j = 0; j < s.cols(); ++j) {
      for (index_t c = 0; c < x.cols(); ++c)
        om[static_cast<std::size_t>(c)] = static_cast<T>(tucker::hash_normal(
            stream, static_cast<std::uint64_t>(global_col(c)),
            static_cast<std::uint64_t>(jlo + j)));
      for (index_t i = 0; i < x.rows(); ++i) {
        T acc = T(0);
        for (index_t c = 0; c < x.cols(); ++c)
          acc += (T(1) * x(i, c)) * om[static_cast<std::size_t>(c)];
        s(i, j) = acc;
      }
    }
    return s;
  }

  // out = X * Z with Z = X^T * W.
  Matrix<T> aat(const Matrix<T>& wm) const {
    Matrix<T> z(x.cols(), wm.cols()), out(x.rows(), wm.cols());
    for (index_t c = 0; c < x.cols(); ++c)
      for (index_t j = 0; j < wm.cols(); ++j) {
        T acc = T(0);
        for (index_t k = 0; k < x.rows(); ++k)
          acc += (T(1) * x(k, c)) * wm(k, j);
        z(c, j) = acc;
      }
    for (index_t i = 0; i < x.rows(); ++i)
      for (index_t j = 0; j < wm.cols(); ++j) {
        T acc = T(0);
        for (index_t c = 0; c < x.cols(); ++c)
          acc += (T(1) * x(i, c)) * z(c, j);
        out(i, j) = acc;
      }
    return out;
  }

  // G = B * B^T with B = Q^T * X.
  Matrix<T> gram(const Matrix<T>& q) const {
    const index_t w = q.cols();
    Matrix<T> b(w, x.cols()), g(w, w);
    for (index_t i = 0; i < w; ++i)
      for (index_t c = 0; c < x.cols(); ++c) {
        T acc = T(0);
        for (index_t k = 0; k < x.rows(); ++k)
          acc += (T(1) * q(k, i)) * x(k, c);
        b(i, c) = acc;
      }
    for (index_t i = 0; i < w; ++i)
      for (index_t j = 0; j <= i; ++j) {
        T acc = T(0);
        for (index_t c = 0; c < x.cols(); ++c)
          acc += (T(1) * b(i, c)) * b(j, c);
        g(i, j) = g(j, i) = acc;
      }
    return g;
  }
};

/// Every sketch kernel on mode n of x equals its written-out chain bit for
/// bit at widths {1, 2, 3, 4, 7}, on the scalar oracle and every ISA level
/// the host runs. The sketch runs twice: from column 0 with the identity
/// map, and appended (jlo > 0) under a non-identity ColMap.
template <class T>
void expect_sketch_chains(const Tensor<T>& x, std::size_t n) {
  using tucker::blas::detail::KernelVariant;
  ThreadsGuard threads;
  VariantGuard variant;
  const index_t m = x.dim(n), w = 7, jlo = 5;
  const std::uint64_t stream = 0x5ca1eULL;
  const auto ident = [](index_t c) { return c; };
  const auto spread = [](index_t c) { return 3 * c + 11; };
  Matrix<T> q(m, w);
  tucker::Rng rng(503);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < w; ++j) q(i, j) = rng.normal<T>();
  const SketchChains<T> chains(x, n);
  const Matrix<T> s0 = chains.sketch(stream, 0, w, ident);
  const Matrix<T> s1 = chains.sketch(stream, jlo, jlo + w, spread);
  const Matrix<T> aat = chains.aat(q);
  const Matrix<T> gram = chains.gram(q);

  Matrix<T> s(m, w), out(m, w), g(w, w);
  for (int width : {1, 2, 3, 4, 7}) {
    tucker::parallel::set_max_threads(width);
    for (KernelVariant v : tucker::blas::detail::supported_kernel_variants()) {
      tucker::blas::detail::set_kernel_variant(v);
      const std::string at = "mode " + std::to_string(n) + " m " +
                             std::to_string(m) + " width " +
                             std::to_string(width) + " level " +
                             tucker::blas::detail::kernel_variant_name(v);
      tucker::tensor::sketch_unfolding_cols(x, n, stream, 0, w, s.view());
      EXPECT_TRUE(same_bits(s, s0)) << "sketch, " << at;
      tucker::tensor::sketch_unfolding_cols(x, n, stream, jlo, jlo + w,
                                            spread, s.view());
      EXPECT_TRUE(same_bits(s, s1)) << "appended sketch, " << at;
      tucker::tensor::unfolding_aat_multiply(x, n, q.cview(), out.view());
      EXPECT_TRUE(same_bits(out, aat)) << "power multiply, " << at;
      tucker::tensor::projected_gram(x, n, q.cview(), g.view());
      EXPECT_TRUE(same_bits(g, gram)) << "projected Gram, " << at;
    }
  }
}

/// The steps of mode n's walk: (columns, pieces) per step.
template <class T>
std::vector<std::pair<index_t, index_t>> walk(const Tensor<T>& x,
                                              std::size_t n) {
  std::vector<std::pair<index_t, index_t>> steps;
  tucker::tensor::for_each_unfolding_step(x, n, [&](const auto& st) {
    steps.emplace_back(st.cols(), st.npieces);
  });
  return steps;
}

/// Runs expect_sketch_chains on mode n of a random tensor of `dims`, in
/// fp32 and fp64, after checking that the walk takes `nsteps` steps.
void expect_sketch_chains(const Dims& dims, std::size_t n,
                          std::size_t nsteps) {
  const auto x32 = tucker::data::random_tensor<float>(dims, 501);
  ASSERT_EQ(walk(x32, n).size(), nsteps);
  expect_sketch_chains(x32, n);
  expect_sketch_chains(tucker::data::random_tensor<double>(dims, 502), n);
}

constexpr index_t kStep = tucker::tensor::detail::kSketchStep;

TEST(SketchSteps, Mode0SeveralStepsWithRemainder) {
  // Two full steps and a 448-column remainder; m = 37 spans several bands.
  expect_sketch_chains({37, 2 * kStep / 64 + 7, 64}, 0, 3);
}

TEST(SketchSteps, MiddleModeNarrowBlocksShareSteps) {
  // 45-column blocks, kStep / 45 per step: two full steps and one of 17.
  const index_t per_step = kStep / 45;
  const Dims dims{45, 37, 2 * per_step + 17};
  const auto steps = walk(tucker::data::random_tensor<float>(dims, 501), 1);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].second, per_step);
  EXPECT_EQ(steps[2].second, 17);
  expect_sketch_chains(dims, 1, 3);
}

TEST(SketchSteps, MiddleModeBlocksWiderThanAStep) {
  // Two blocks of kStep + 404 columns: a full slice and a remainder each.
  expect_sketch_chains({kStep + 404, 9, 2}, 1, 4);
}

TEST(SketchSteps, LastMode) {
  // One block of 2 kStep + 808 columns.
  expect_sketch_chains({2 * kStep / 8 + 101, 8, 11}, 2, 3);
}

TEST(SketchSteps, ThreeRowsBelowMicroTile) {
  // m = 3 < MR in a middle mode, like video mode 2: 900-column blocks,
  // kStep / 900 per step, with a remainder step.
  const index_t per_step = kStep / 900;
  expect_sketch_chains({30, 30, 3, 3 * per_step + 2}, 2, 4);
}

}  // namespace
