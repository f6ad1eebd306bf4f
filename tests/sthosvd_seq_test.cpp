// Integration tests for sequential ST-HOSVD with both SVD engines and both
// precisions, including the paper's tolerance-regime behaviour, the order
// checks, and the greedy cost-model mode ordering.

#include <gtest/gtest.h>

#include <cmath>

#include "core/sthosvd.hpp"
#include "data/synthetic_matrix.hpp"
#include "data/synthetic_tensor.hpp"
#include "serve/admission.hpp"

namespace tucker {
namespace {

using blas::index_t;
using core::SvdMethod;
using core::TruncationSpec;
using tensor::Dims;
using tensor::Tensor;

/// Tensor that is exactly low rank: a small core expanded by orthonormal
/// factors.
Tensor<double> exact_low_rank(const Dims& full, const Dims& ranks,
                              std::uint64_t seed) {
  Rng rng(seed);
  Tensor<double> core = data::random_tensor<double>(ranks, seed + 1);
  Tensor<double> x = core;
  for (std::size_t n = 0; n < full.size(); ++n) {
    auto q = data::random_orthonormal(full[n], ranks[n], rng);
    x = tensor::ttm(x, n, blas::MatView<const double>(q.view()));
  }
  return x;
}

// ---------------------------------------------------------- rank selection

TEST(SelectRankTest, KeepsEverythingWhenThresholdZero) {
  std::vector<double> s2 = {9, 4, 1, 0.25};
  EXPECT_EQ(core::select_rank(s2, 0.0), 4);
}

TEST(SelectRankTest, DropsTailWithinBudget) {
  std::vector<double> s2 = {9, 4, 1, 0.25};
  EXPECT_EQ(core::select_rank(s2, 0.25), 3);   // can drop only the last
  EXPECT_EQ(core::select_rank(s2, 1.25), 2);   // last two sum to 1.25
  EXPECT_EQ(core::select_rank(s2, 5.25), 1);   // keep at least the leading
  EXPECT_EQ(core::select_rank(s2, 1e9), 1);    // never selects rank 0
}

TEST(SelectRankTest, BoundaryIsInclusive) {
  std::vector<double> s2 = {4, 1, 1};
  EXPECT_EQ(core::select_rank(s2, 2.0), 1);
  EXPECT_EQ(core::select_rank(s2, 1.9999), 2);
}

// ------------------------------------------------------------ exact ranks

class ExactRankTest : public ::testing::TestWithParam<SvdMethod> {};

TEST_P(ExactRankTest, RecoversExactLowRankTensor) {
  // Tolerance 1e-6 sits safely above both methods' accuracy floors in
  // double (eps_d for QR, sqrt(eps_d) ~ 1e-8 for Gram), so both must find
  // the exact ranks. (At 1e-8, Gram-double legitimately fails -- that
  // regime is covered by TightToleranceNeedsQrDouble below.)
  auto x = exact_low_rank({10, 9, 8}, {3, 4, 2}, 71);
  auto res = core::sthosvd(x, TruncationSpec::tolerance(1e-6), GetParam());
  EXPECT_EQ(res.ranks, (std::vector<index_t>{3, 4, 2}));
  EXPECT_LT(core::relative_error(x, res.tucker), 1e-6);
  EXPECT_EQ(res.tucker.core.dims(), (Dims{3, 4, 2}));
}

TEST_P(ExactRankTest, BackwardOrderGivesSameRanks) {
  auto x = exact_low_rank({10, 9, 8}, {3, 4, 2}, 73);
  auto res = core::sthosvd(x, TruncationSpec::tolerance(1e-6), GetParam(),
                           core::backward_order(3));
  EXPECT_EQ(res.ranks, (std::vector<index_t>{3, 4, 2}));
  EXPECT_LT(core::relative_error(x, res.tucker), 1e-6);
}

TEST(ExactRankQrTest, QrDoubleRecoversAtTightTolerance) {
  // QR-SVD in double resolves down to eps_d, so even eps = 1e-10 works.
  auto x = exact_low_rank({10, 9, 8}, {3, 4, 2}, 71);
  auto res =
      core::sthosvd(x, TruncationSpec::tolerance(1e-10), SvdMethod::kQr);
  EXPECT_EQ(res.ranks, (std::vector<index_t>{3, 4, 2}));
  EXPECT_LT(core::relative_error(x, res.tucker), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Methods, ExactRankTest,
                         ::testing::Values(SvdMethod::kGram, SvdMethod::kQr));

// ------------------------------------------------------ tolerance guarantee

class ToleranceTest
    : public ::testing::TestWithParam<std::tuple<SvdMethod, double>> {};

TEST_P(ToleranceTest, ErrorIsWithinTolerance) {
  const auto [method, eps] = GetParam();
  auto x = data::tensor_with_spectra(
      {14, 12, 10}, {data::DecayProfile::geometric(1, 1e-6),
                     data::DecayProfile::geometric(1, 1e-6),
                     data::DecayProfile::geometric(1, 1e-6)},
      79);
  auto res = core::sthosvd(x, TruncationSpec::tolerance(eps), method);
  EXPECT_LE(core::relative_error(x, res.tucker), eps);
  // Some compression should happen at these tolerances for this spectrum.
  EXPECT_LT(res.tucker.core.size(), x.size());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ToleranceTest,
    ::testing::Combine(::testing::Values(SvdMethod::kGram, SvdMethod::kQr),
                       ::testing::Values(1e-1, 1e-2, 1e-3)));

TEST(ToleranceTest, TightToleranceNeedsQrDouble) {
  // Spectrum spanning 1e-10: at eps = 1e-9, Gram-SVD in double has floored
  // (sqrt(eps_d) ~ 1e-8) and must fail to certify truncation, returning
  // (nearly) full ranks, while QR-SVD still compresses.
  auto x = data::tensor_with_spectra(
      {16, 14, 12}, {data::DecayProfile::geometric(1, 1e-11),
                     data::DecayProfile::geometric(1, 1e-11),
                     data::DecayProfile::geometric(1, 1e-11)},
      83);
  auto qr = core::sthosvd(x, TruncationSpec::tolerance(1e-9), SvdMethod::kQr);
  auto gram =
      core::sthosvd(x, TruncationSpec::tolerance(1e-9), SvdMethod::kGram);
  EXPECT_LE(core::relative_error(x, qr.tucker), 1e-9);
  index_t qr_params = qr.tucker.parameter_count();
  index_t gram_params = gram.tucker.parameter_count();
  // QR truncates meaningfully more than Gram in this regime.
  EXPECT_LT(qr_params, gram_params);
}

TEST(ToleranceTest, GramSingleFailsWhereQrSingleWorks) {
  // The paper's headline Table 2 row at eps = 1e-4 (in single precision,
  // sqrt(eps_s) ~ 3e-4 > 1e-4): Gram-single cannot certify truncation and
  // keeps full ranks; QR-single compresses and meets the tolerance.
  auto xd = data::tensor_with_spectra(
      {16, 14, 12}, {data::DecayProfile::geometric(1, 1e-7),
                     data::DecayProfile::geometric(1, 1e-7),
                     data::DecayProfile::geometric(1, 1e-7)},
      89);
  auto x = data::round_tensor_to<float>(xd);
  auto qr =
      core::sthosvd(x, TruncationSpec::tolerance(1e-4), SvdMethod::kQr);
  auto gram =
      core::sthosvd(x, TruncationSpec::tolerance(1e-4), SvdMethod::kGram);
  // Gram single: its squared singular values are noise at this level, so it
  // cannot certify more than marginal truncation (the paper's Table 2 shows
  // compression ratio 1.00 on HCCI at this tolerance).
  EXPECT_GT(gram.tucker.parameter_count(), (7 * x.size()) / 10);
  // QR single: compresses substantially and achieves the tolerance.
  EXPECT_LT(qr.tucker.parameter_count(), x.size() / 2);
  EXPECT_LT(2 * qr.tucker.parameter_count(), gram.tucker.parameter_count());
  EXPECT_LE(core::relative_error(xd, [&] {
              // Evaluate error against the double-precision original.
              core::TuckerTensor<double> tk;
              tk.core = data::round_tensor_to<double>(qr.tucker.core);
              for (const auto& u : qr.tucker.factors) {
                blas::Matrix<double> ud(u.rows(), u.cols());
                for (index_t i = 0; i < u.rows(); ++i)
                  for (index_t j = 0; j < u.cols(); ++j)
                    ud(i, j) = static_cast<double>(u(i, j));
                tk.factors.push_back(std::move(ud));
              }
              return tk;
            }()),
            2e-4);
}

// ------------------------------------------------------------- fixed ranks

TEST(FixedRankTest, HonorsRequestedRanks) {
  auto x = data::random_tensor<double>({12, 10, 8, 6}, 97);
  auto res = core::sthosvd(x, TruncationSpec::fixed_ranks({4, 5, 2, 3}),
                           SvdMethod::kQr);
  EXPECT_EQ(res.tucker.core.dims(), (Dims{4, 5, 2, 3}));
  for (std::size_t n = 0; n < 4; ++n) {
    EXPECT_EQ(res.tucker.factors[n].rows(), x.dim(n));
    EXPECT_EQ(res.tucker.factors[n].cols(), res.ranks[n]);
  }
}

TEST(FixedRankTest, GramAndQrAgreeOnWellSeparatedSpectrum) {
  auto x = data::tensor_with_spectra(
      {10, 9, 8}, {data::DecayProfile::geometric(1, 1e-3),
                   data::DecayProfile::geometric(1, 1e-3),
                   data::DecayProfile::geometric(1, 1e-3)},
      101);
  auto qr = core::sthosvd(x, TruncationSpec::fixed_ranks({4, 4, 4}),
                          SvdMethod::kQr);
  auto gram = core::sthosvd(x, TruncationSpec::fixed_ranks({4, 4, 4}),
                            SvdMethod::kGram);
  EXPECT_NEAR(core::relative_error(x, qr.tucker),
              core::relative_error(x, gram.tucker), 1e-8);
}

// --------------------------------------------------------------- metadata

TEST(TuckerTensorTest, CompressionRatioCountsParameters) {
  core::TuckerTensor<double> tk;
  tk.core = Tensor<double>({2, 3});
  tk.factors.push_back(blas::Matrix<double>(10, 2));
  tk.factors.push_back(blas::Matrix<double>(20, 3));
  // Full = 200 elements; stored = 6 + 20 + 60 = 86.
  EXPECT_NEAR(tk.compression_ratio(), 200.0 / 86.0, 1e-12);
}

TEST(SthosvdResultTest, SigmasReportedPerMode) {
  auto x = data::random_tensor<double>({6, 5, 4}, 103);
  auto res = core::sthosvd(x, TruncationSpec::tolerance(1e-10),
                           SvdMethod::kQr);
  ASSERT_EQ(res.mode_sigmas.size(), 3u);
  // First processed mode's sigma count equals that mode's dimension
  // (short-fat unfolding), and values are descending.
  EXPECT_EQ(res.mode_sigmas[0].size(), 6u);
  for (std::size_t i = 1; i < res.mode_sigmas[0].size(); ++i)
    EXPECT_GE(res.mode_sigmas[0][i - 1], res.mode_sigmas[0][i]);
}

TEST(SthosvdTest, EstimatedErrorBoundsActualError) {
  // The tail-energy estimate is an upper bound on (and for well-resolved
  // spectra close to) the true reconstruction error.
  auto x = data::tensor_with_spectra(
      {12, 10, 8}, {data::DecayProfile::geometric(1, 1e-5),
                    data::DecayProfile::geometric(1, 1e-5),
                    data::DecayProfile::geometric(1, 1e-5)},
      109);
  for (double tol : {1e-1, 1e-2, 1e-3}) {
    auto res =
        core::sthosvd(x, TruncationSpec::tolerance(tol), SvdMethod::kQr);
    const double actual = core::relative_error(x, res.tucker);
    const double estimate = res.estimated_relative_error();
    EXPECT_GE(estimate * (1 + 1e-10) + 1e-14, actual) << "tol " << tol;
    EXPECT_LE(estimate, tol) << "tol " << tol;
    // For a geometric spectrum the bound is not wildly pessimistic.
    EXPECT_LE(actual, estimate * (1 + 1e-6) + 1e-12);
    EXPECT_GE(actual, estimate / 10);
  }
}

TEST(SthosvdTest, EstimatedErrorZeroAtFullRank) {
  auto x = data::random_tensor<double>({5, 4, 3}, 111);
  auto res = core::sthosvd(x, TruncationSpec::fixed_ranks({5, 4, 3}),
                           SvdMethod::kQr);
  EXPECT_LE(res.estimated_relative_error(), 1e-7);
}

TEST(SthosvdTest, NormSquaredMatchesInput) {
  auto x = data::random_tensor<double>({5, 5, 5}, 107);
  auto res =
      core::sthosvd(x, TruncationSpec::tolerance(0.5), SvdMethod::kGram);
  EXPECT_NEAR(res.norm_squared, x.norm_squared(), 1e-9 * res.norm_squared);
}

// ------------------------------------------------------------ order checks

// An order that is not a permutation of the modes fails fast instead of
// returning a short decomposition ({0, 0, 1} never processes mode 2) or
// reading past the spec's ranks ({0, 1, 5}), whether it comes positionally
// or through SthosvdOptions::order -- which a served compress request also
// prices on the submitting thread.
const std::vector<std::size_t> kBadOrders[] = {{0, 0, 1}, {0, 1, 5}};

TEST(SthosvdOrderTest, IsModeOrderAcceptsOnlyPermutations) {
  EXPECT_TRUE(core::is_mode_order({2, 0, 1}, 3));
  EXPECT_TRUE(core::is_mode_order(core::backward_order(4), 4));
  EXPECT_TRUE(core::is_mode_order({}, 0));
  for (const auto& order : kBadOrders)
    EXPECT_FALSE(core::is_mode_order(order, 3));
  EXPECT_FALSE(core::is_mode_order({0, 1}, 3));
  EXPECT_FALSE(core::is_mode_order({0, 1, 2, 3}, 3));
}

TEST(SthosvdOrderDeathTest, PositionalOrderMustBePermutationOfModes) {
  auto x = data::random_tensor<double>({6, 5, 4}, 415);
  const auto spec = TruncationSpec::fixed_ranks({3, 3, 3});
  for (const auto& order : kBadOrders)
    EXPECT_DEATH((void)core::sthosvd(x, spec, SvdMethod::kQr, order),
                 "order must be a permutation of the modes");
}

TEST(SthosvdOrderDeathTest, OptionsOrderMustBePermutationOfModes) {
  auto x = data::random_tensor<double>({6, 5, 4}, 415);
  const auto spec = TruncationSpec::fixed_ranks({3, 3, 3});
  for (const auto& order : kBadOrders) {
    core::SthosvdOptions opt;
    opt.order = order;
    EXPECT_DEATH((void)core::sthosvd(x, spec, SvdMethod::kQr, opt),
                 "order must be a permutation of the modes");
  }
}

TEST(SthosvdOrderDeathTest, CompressCostRejectsNonPermutationOrder) {
  const tensor::Dims dims = {6, 5, 4};
  const auto spec = TruncationSpec::fixed_ranks({3, 3, 3});
  for (const auto& order : kBadOrders) {
    core::SthosvdOptions opt;
    opt.order = order;
    EXPECT_DEATH((void)serve::compress_cost(dims, spec, SvdMethod::kQr, opt,
                                            sizeof(double)),
                 "order must be a permutation of the modes");
  }
}

// ----------------------------------------------------------- mode ordering

TEST(GreedyOrderTest, MostTruncatingModeFirst) {
  auto order = core::greedy_order({10, 10, 10}, {1, 5, 2});
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 1}));
}

TEST(GreedyOrderTest, TiesKeepModeOrder) {
  // Fully symmetric problem: every step is a cost tie, which resolves to
  // the lowest unprocessed mode, i.e. forward order.
  auto order = core::greedy_order({10, 10, 10}, {5, 5, 5});
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(GreedyOrderTest, CostModelWeighsShrunkenDims) {
  // Modes 0 and 2 tie on the first step (lowest index wins); once mode 0
  // has shrunk to rank 5, mode 2's unfolding is half as wide as mode 1's,
  // so the flop model processes it next -- unlike a pure R/I ratio sort,
  // which would keep storage order here.
  auto order = core::greedy_order({10, 20, 10}, {5, 10, 5});
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 1}));
}

TEST(GreedyOrderTest, ModeledFlopsMatchGreedyChoice) {
  // The greedy order is never modeled as more expensive than forward or
  // backward order on the same problem.
  const tensor::Dims dims = {24, 12, 18};
  const std::vector<index_t> ranks = {20, 3, 9};
  auto greedy = core::greedy_order(dims, ranks, SvdMethod::kQr);
  const double g = core::modeled_sthosvd_flops(dims, ranks, greedy,
                                               SvdMethod::kQr);
  const double f = core::modeled_sthosvd_flops(
      dims, ranks, core::forward_order(3), SvdMethod::kQr);
  const double b = core::modeled_sthosvd_flops(
      dims, ranks, core::backward_order(3), SvdMethod::kQr);
  EXPECT_LE(g, f);
  EXPECT_LE(g, b);
}

TEST(GreedyOrderTest, EmptyRanksFallsBackToForward) {
  auto order = core::greedy_order({4, 5, 6}, {});
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(GreedyOrderTest, GreedyOrderReducesWork) {
  // Processing the most-truncating mode first does no more flops than the
  // reverse order for a fixed-rank decomposition.
  auto x = data::random_tensor<double>({20, 20, 20}, 413);
  const auto spec = TruncationSpec::fixed_ranks({2, 10, 18});
  auto greedy = core::greedy_order({20, 20, 20}, {2, 10, 18});
  reset_thread_flops();
  (void)core::sthosvd(x, spec, SvdMethod::kQr, greedy);
  const auto greedy_flops = thread_flops();
  std::vector<std::size_t> reverse(greedy.rbegin(), greedy.rend());
  reset_thread_flops();
  (void)core::sthosvd(x, spec, SvdMethod::kQr, reverse);
  const auto reverse_flops = thread_flops();
  EXPECT_LT(greedy_flops, reverse_flops);
}

}  // namespace
}  // namespace tucker
