// Unit tests for the tensor layer: layout, unfolding views, TTM, Gram of
// unfoldings (bitwise against its serial chain at every width), and
// TensorLQ (paper Alg 2) with its in-node TSQR tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <utility>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/gemm.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "data/synthetic_tensor.hpp"
#include "lapack/eig.hpp"
#include "lapack/qr.hpp"
#include "lapack/svd.hpp"
#include "lapack/tpqrt.hpp"
#include "tensor/gram.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_lq.hpp"
#include "tensor/ttm.hpp"

namespace tucker {
namespace {

using blas::index_t;
using blas::Matrix;
using blas::MatView;
using tensor::Dims;
using tensor::Tensor;

/// Dense copy of the mode-n unfolding via the reference entry formula.
template <class T>
Matrix<T> dense_unfolding(const Tensor<T>& t, std::size_t n) {
  const index_t rows = t.dim(n);
  const index_t cols = tensor::prod_before(t.dims(), n) *
                       tensor::prod_after(t.dims(), n);
  Matrix<T> m(rows, cols);
  for (index_t i = 0; i < rows; ++i)
    for (index_t c = 0; c < cols; ++c)
      m(i, c) = tensor::unfolding_entry(t, n, i, c);
  return m;
}

/// Reference TTM by explicit index arithmetic.
template <class T>
Tensor<T> ref_ttm(const Tensor<T>& x, std::size_t n, MatView<const T> u) {
  Dims ydims = x.dims();
  ydims[n] = u.rows();
  Tensor<T> y(ydims);
  std::vector<index_t> idx(x.order(), 0);
  for (index_t lin = 0; lin < y.size(); ++lin) {
    idx = y.multi_index(lin);
    double s = 0;
    std::vector<index_t> xi = idx;
    for (index_t k = 0; k < x.dim(n); ++k) {
      xi[n] = k;
      s += static_cast<double>(u(idx[n], k)) * static_cast<double>(x(xi));
    }
    y(idx) = static_cast<T>(s);
  }
  return y;
}

// ------------------------------------------------------------------ layout

TEST(TensorLayoutTest, LinearIndexMode0Fastest) {
  Tensor<double> t({3, 4, 2});
  EXPECT_EQ(t.linear_index({0, 0, 0}), 0);
  EXPECT_EQ(t.linear_index({1, 0, 0}), 1);
  EXPECT_EQ(t.linear_index({0, 1, 0}), 3);
  EXPECT_EQ(t.linear_index({0, 0, 1}), 12);
  EXPECT_EQ(t.linear_index({2, 3, 1}), 23);
}

TEST(TensorLayoutTest, MultiIndexRoundTrip) {
  Tensor<double> t({5, 3, 4, 2});
  for (index_t lin = 0; lin < t.size(); ++lin)
    EXPECT_EQ(t.linear_index(t.multi_index(lin)), lin);
}

TEST(TensorLayoutTest, ProdBeforeAfter) {
  Dims d = {5, 3, 4, 2};
  EXPECT_EQ(tensor::prod_before(d, 0), 1);
  EXPECT_EQ(tensor::prod_before(d, 2), 15);
  EXPECT_EQ(tensor::prod_after(d, 2), 2);
  EXPECT_EQ(tensor::prod_after(d, 3), 1);
  EXPECT_EQ(tensor::num_elements(d), 120);
}

class UnfoldingModeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(UnfoldingModeTest, BlockViewsMatchReferenceEntries) {
  const std::size_t n = GetParam();
  Tensor<double> t({4, 3, 5, 2});
  Rng rng(17);
  for (index_t i = 0; i < t.size(); ++i) t.data()[i] = rng.normal<double>();

  auto ref = dense_unfolding(t, n);
  const index_t before = tensor::prod_before(t.dims(), n);
  for (index_t j = 0; j < tensor::unfolding_num_blocks(t, n); ++j) {
    auto blk = tensor::unfolding_block(t, n, j);
    for (index_t i = 0; i < blk.rows(); ++i)
      for (index_t c = 0; c < blk.cols(); ++c)
        EXPECT_EQ(blk(i, c), ref(i, j * before + c))
            << "mode " << n << " block " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, UnfoldingModeTest,
                         ::testing::Values(0u, 1u, 2u, 3u));

TEST(UnfoldingTest, Mode0ViewIsColumnMajorUnfolding) {
  Tensor<double> t({3, 2, 2});
  Rng rng(5);
  for (index_t i = 0; i < t.size(); ++i) t.data()[i] = rng.normal<double>();
  auto v = tensor::unfolding_mode0(t);
  auto ref = dense_unfolding(t, 0);
  EXPECT_LE(blas::max_abs_diff(MatView<const double>(v),
                               MatView<const double>(ref.view())),
            0.0);
}

// -------------------------------------------------------------------- TTM

class TtmModeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TtmModeTest, MatchesReference) {
  const std::size_t n = GetParam();
  Tensor<double> x({4, 3, 5, 2});
  Rng rng(23);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<double>();
  const index_t r = 2;
  Matrix<double> u(r, x.dim(n));
  for (index_t i = 0; i < r; ++i)
    for (index_t j = 0; j < x.dim(n); ++j) u(i, j) = rng.normal<double>();

  auto y = tensor::ttm(x, n, MatView<const double>(u.view()));
  auto ref = ref_ttm(x, n, MatView<const double>(u.view()));
  ASSERT_EQ(y.dims(), ref.dims());
  for (index_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y.data()[i], ref.data()[i], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Modes, TtmModeTest,
                         ::testing::Values(0u, 1u, 2u, 3u));

TEST(TtmTest, IdentityIsNoOp) {
  Tensor<double> x({3, 4, 2});
  Rng rng(29);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<double>();
  auto eye = Matrix<double>::identity(4);
  auto y = tensor::ttm(x, 1, MatView<const double>(eye.view()));
  for (index_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(y.data()[i], x.data()[i]);
}

TEST(TtmTest, ComposesAcrossModes) {
  // (X x_0 A) x_2 B == (X x_2 B) x_0 A.
  Tensor<double> x({3, 4, 5});
  Rng rng(31);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<double>();
  Matrix<double> a(2, 3), b(2, 5);
  for (index_t i = 0; i < 2; ++i) {
    for (index_t j = 0; j < 3; ++j) a(i, j) = rng.normal<double>();
    for (index_t j = 0; j < 5; ++j) b(i, j) = rng.normal<double>();
  }
  auto y1 = tensor::ttm(tensor::ttm(x, 0, MatView<const double>(a.view())), 2,
                        MatView<const double>(b.view()));
  auto y2 = tensor::ttm(tensor::ttm(x, 2, MatView<const double>(b.view())), 0,
                        MatView<const double>(a.view()));
  for (index_t i = 0; i < y1.size(); ++i)
    EXPECT_NEAR(y1.data()[i], y2.data()[i], 1e-12);
}

TEST(TtmTest, OrthonormalTtmPreservesNorm) {
  Tensor<double> x({6, 5, 4});
  Rng rng(37);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<double>();
  auto q = data::random_orthonormal(5, 5, rng);
  auto y = tensor::ttm(x, 1, MatView<const double>(q.view()));
  EXPECT_NEAR(y.norm_squared(), x.norm_squared(), 1e-9 * x.norm_squared());
}

// ------------------------------------------------------------------- Gram

class GramModeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GramModeTest, MatchesDenseUnfoldingGram) {
  const std::size_t n = GetParam();
  Tensor<double> x({4, 6, 3, 5});
  Rng rng(41);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<double>();
  auto g = tensor::gram_of_unfolding(x, n);
  auto ref_unf = dense_unfolding(x, n);
  Matrix<double> ref(x.dim(n), x.dim(n));
  blas::syrk(1.0, MatView<const double>(ref_unf.view()), 0.0, ref.view());
  EXPECT_LE(blas::max_abs_diff(MatView<const double>(g.view()),
                               MatView<const double>(ref.view())),
            1e-11);
}

INSTANTIATE_TEST_SUITE_P(Modes, GramModeTest,
                         ::testing::Values(0u, 1u, 2u, 3u));

// ------------------------------------------------------------ Gram bands

// Restores the pool width the test found on entry.
struct ThreadsGuard {
  int saved = parallel::max_threads();
  ~ThreadsGuard() { parallel::set_max_threads(saved); }
};

// Restores the micro-kernel level the test found on entry.
struct VariantGuard {
  blas::detail::KernelVariant saved = blas::detail::kernel_variant();
  ~VariantGuard() { blas::detail::set_kernel_variant(saved); }
};

template <class T>
bool same_bits(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(T) * static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols())) == 0;
}

/// The serial chain every Gram element keeps, written out: blocks in order
/// (mode 0 is one block), each cut into kSyrkKB-column sub-chunks, each
/// sub-chunk one TA run c += (alpha * a(i,k)) * a(j,k) that is rounded to
/// storage at its end. With TA = T the rounding is a no-op.
template <class T, class TA>
Matrix<T> gram_chain(const Tensor<T>& x, std::size_t n) {
  constexpr index_t kb = blas::detail::kSyrkKB;
  const index_t m = x.dim(n);
  const index_t before = tensor::prod_before(x.dims(), n);
  const index_t after = tensor::prod_after(x.dims(), n);
  const index_t width = n == 0 ? after : before;
  const index_t nblocks = n == 0 ? 1 : after;
  Matrix<T> g(m, m);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j <= i; ++j) {
      T c = T(0);
      for (index_t b = 0; b < nblocks; ++b)
        for (index_t k0 = 0; k0 < width; k0 += kb) {
          TA s = static_cast<TA>(c);
          for (index_t k = k0; k < std::min(width, k0 + kb); ++k) {
            const T ai = tensor::unfolding_entry(x, n, i, b * width + k);
            const T aj = tensor::unfolding_entry(x, n, j, b * width + k);
            s += static_cast<TA>(T(1) * ai) * static_cast<TA>(aj);
          }
          c = static_cast<T>(s);
        }
      g(i, j) = g(j, i) = c;
    }
  return g;
}

/// gram_of_unfolding(x, n) equals the written-out chain bit for bit at
/// widths {1, 2, 3, 4, 7}, on the scalar oracle and every ISA level the
/// host runs, and under both accumulators.
template <class T>
void expect_gram_chain(const Tensor<T>& x, std::size_t n) {
  using blas::detail::KernelVariant;
  ThreadsGuard threads;
  VariantGuard variant;
  const Matrix<T> native = gram_chain<T, T>(x, n);
  const Matrix<T> wide = gram_chain<T, wide_t<T>>(x, n);
  for (int width : {1, 2, 3, 4, 7}) {
    parallel::set_max_threads(width);
    for (KernelVariant v : blas::detail::supported_kernel_variants()) {
      blas::detail::set_kernel_variant(v);
      EXPECT_TRUE(same_bits(tensor::gram_of_unfolding(x, n), native))
          << "native, mode " << n << " m " << x.dim(n) << " width " << width
          << " level " << blas::detail::kernel_variant_name(v);
      EXPECT_TRUE(
          same_bits(tensor::gram_of_unfolding(x, n, Accum::kWide), wide))
          << "wide, mode " << n << " m " << x.dim(n) << " width " << width
          << " level " << blas::detail::kernel_variant_name(v);
    }
  }
}

/// Runs expect_gram_chain on mode n of a random tensor per dims, in fp32
/// and fp64. Each dims list puts m = 37 or m = 126 (neither a multiple of
/// MR nor of NR) in mode n.
void expect_gram_chains(std::initializer_list<Dims> shapes, std::size_t n) {
  for (const Dims& dims : shapes) {
    expect_gram_chain(data::random_tensor<float>(dims, 401), n);
    expect_gram_chain(data::random_tensor<double>(dims, 402), n);
  }
}

TEST(GramBands, Mode0) {
  // One 600-column block: two full sub-chunks and an 88-column remainder.
  expect_gram_chains({{126, 30, 20}, {37, 25, 24}}, 0);
}

TEST(GramBands, MiddleModeNarrowBlocksShareSteps) {
  // 21-column blocks: 12 per step, the last step holds 6.
  ASSERT_GT(blas::detail::kSyrkKB / 21, 1);
  expect_gram_chains({{21, 126, 30}, {21, 37, 30}}, 1);
}

TEST(GramBands, MiddleModeWideBlocksLeaveRemainder) {
  // 300-column blocks: a full sub-chunk and a 44-column remainder each.
  ASSERT_GT(300, blas::detail::kSyrkKB);
  ASSERT_NE(300 % blas::detail::kSyrkKB, 0);
  expect_gram_chains({{300, 126, 3}, {300, 37, 3}}, 1);
}

TEST(GramBands, LastMode) {
  expect_gram_chains({{20, 30, 126}, {20, 30, 37}}, 2);
}

// --------------------------------------------------------------- TensorLQ

class TensorLqModeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TensorLqModeTest, LLtEqualsGram) {
  // The defining invariant: L L^T = X_(n) X_(n)^T for every mode, since
  // Q has orthonormal rows.
  const std::size_t n = GetParam();
  Tensor<double> x({4, 6, 3, 5});
  Rng rng(43);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<double>();
  auto l = tensor::tensor_lq(x, n);
  EXPECT_EQ(l.rows(), x.dim(n));
  auto gram = tensor::gram_of_unfolding(x, n);
  Matrix<double> llt(l.rows(), l.rows());
  blas::gemm(1.0, MatView<const double>(l.view()),
             MatView<const double>(l.view().t()), 0.0, llt.view());
  EXPECT_LE(blas::max_abs_diff(MatView<const double>(llt.view()),
                               MatView<const double>(gram.view())),
            1e-10);
}

INSTANTIATE_TEST_SUITE_P(Modes, TensorLqModeTest,
                         ::testing::Values(0u, 1u, 2u, 3u));

TEST(TensorLqTest, InputTensorIsNotModified) {
  Tensor<double> x({3, 4, 5});
  Rng rng(47);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<double>();
  Tensor<double> copy = x;
  (void)tensor::tensor_lq(x, 1);
  for (index_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(x.data()[i], copy.data()[i]);
}

TEST(TensorLqTest, BlockMergingWhenLeadingBlockIsTall) {
  // Mode 1 of an 2 x 9 x 4 tensor: blocks are 9 x 2 (tall), so the flat
  // tree must merge ceil(9/2) = 5 blocks before the first LQ.
  Tensor<double> x({2, 9, 4});
  Rng rng(53);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<double>();
  auto l = tensor::tensor_lq(x, 1);
  EXPECT_EQ(l.rows(), 9);
  EXPECT_EQ(l.cols(), 8);  // total cols = 8 < 9: lower trapezoid
  auto gram = tensor::gram_of_unfolding(x, 1);
  Matrix<double> llt(9, 9);
  blas::gemm(1.0, MatView<const double>(l.view()),
             MatView<const double>(l.view().t()), 0.0, llt.view());
  EXPECT_LE(blas::max_abs_diff(MatView<const double>(llt.view()),
                               MatView<const double>(gram.view())),
            1e-10);
}

TEST(TensorLqTest, TallUnfoldingReturnsTrapezoid) {
  // Mode 2 dimension 10 with only 6 total columns.
  Tensor<double> x({2, 3, 10});
  Rng rng(59);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<double>();
  auto l = tensor::tensor_lq(x, 2);
  EXPECT_EQ(l.rows(), 10);
  EXPECT_EQ(l.cols(), 6);
}

TEST(TensorLqTest, SingularValuesMatchGramEigenvalues) {
  // Cross-check the two SVD paths on a well-conditioned tensor.
  auto xd = data::tensor_with_spectra(
      {8, 7, 6}, {data::DecayProfile::geometric(1, 1e-2),
                  data::DecayProfile::geometric(1, 1e-2),
                  data::DecayProfile::geometric(1, 1e-2)},
      61);
  for (std::size_t n = 0; n < 3; ++n) {
    auto l = tensor::tensor_lq(xd, n);
    auto svd = la::jacobi_svd(MatView<const double>(l.view()));
    auto gram = tensor::gram_of_unfolding(xd, n);
    auto eig = la::jacobi_eig(MatView<const double>(gram.view()));
    for (std::size_t i = 0; i < svd.sigma.size(); ++i)
      EXPECT_NEAR(svd.sigma[i] * svd.sigma[i], std::abs(eig.lambda[i]),
                  1e-8 * std::abs(eig.lambda[0]))
          << "mode " << n << " index " << i;
  }
}

// ---------------------------------------------------------- TensorLQ tree

/// L from the tree must be bitwise equal at every pool width and satisfy
/// L L^T = X_(n) X_(n)^T.
void expect_tree_invariants(const Tensor<double>& x, std::size_t n) {
  ThreadsGuard guard;
  parallel::set_max_threads(1);
  const Matrix<double> l = tensor::tensor_lq(x, n);
  for (int width : {2, 3, 4, 7}) {
    parallel::set_max_threads(width);
    EXPECT_TRUE(same_bits(tensor::tensor_lq(x, n), l))
        << "mode " << n << " width " << width;
  }
  const index_t m = x.dim(n);
  ASSERT_EQ(l.rows(), m);
  ASSERT_EQ(l.cols(), m);
  auto gram = tensor::gram_of_unfolding(x, n);
  Matrix<double> llt(m, m);
  blas::gemm(1.0, l.cview(), MatView<const double>(l.view().t()), 0.0,
             llt.view());
  double scale = 0;  // max |entry| of a Gram matrix: its largest diagonal
  for (index_t i = 0; i < m; ++i) scale = std::max(scale, gram(i, i));
  EXPECT_LE(blas::max_abs_diff(llt.cview(), gram.cview()), 1e-10 * scale)
      << "mode " << n;
}

/// Width in columns of the tree's last leaf.
index_t last_leaf_cols(const tensor::detail::LqLeaves& lv) {
  return (lv.units - (lv.count() - 1) * lv.per_leaf) * lv.unit_cols;
}

TEST(TensorLqTree, Mode0) {
  auto x = data::random_tensor<double>({24, 30, 20, 14}, 301);
  ASSERT_GE(tensor::detail::lq_leaves(x, 0).count(), 3);
  expect_tree_invariants(x, 0);
}

TEST(TensorLqTree, MiddleModeWithWideBlocks) {
  // I_n^< = 40 >= m = 16: every block is short-fat on its own.
  auto x = data::random_tensor<double>({40, 16, 30, 9}, 302);
  const auto lv = tensor::detail::lq_leaves(x, 1);
  ASSERT_GE(lv.unit_cols, x.dim(1));
  ASSERT_GE(lv.count(), 3);
  expect_tree_invariants(x, 1);
}

TEST(TensorLqTree, MiddleModeMergesLeadingBlocks) {
  // I_n^< = 3 < m = 20: each leaf merges ceil(20/3) = 7 leading blocks
  // before its first LQ yields a triangle.
  auto x = data::random_tensor<double>({3, 20, 40, 60}, 303);
  const auto lv = tensor::detail::lq_leaves(x, 1);
  ASSERT_LT(lv.unit_cols, x.dim(1));
  ASSERT_GE(lv.count(), 3);
  expect_tree_invariants(x, 1);
}

TEST(TensorLqTree, LastMode) {
  auto x = data::random_tensor<double>({40, 30, 12, 18}, 304);
  ASSERT_GE(tensor::detail::lq_leaves(x, 3).count(), 3);
  expect_tree_invariants(x, 3);
}

TEST(TensorLqTree, OddNonPowerOfTwoLeafCount) {
  auto x = data::random_tensor<double>({8, 70, 500}, 305);
  const index_t count = tensor::detail::lq_leaves(x, 0).count();
  ASSERT_GT(count, 4);
  ASSERT_EQ(count % 2, 1);
  ASSERT_NE(count & (count - 1), 0);
  expect_tree_invariants(x, 0);
}

TEST(TensorLqTree, NarrowRemainderLeafIsPadded) {
  // Mode 0: the last leaf has fewer columns than m, so its LQ is a
  // trapezoid the tree pads to a triangle.
  auto x = data::random_tensor<double>({64, 8, 389}, 306);
  const auto lv = tensor::detail::lq_leaves(x, 0);
  ASSERT_GT(lv.count(), 1);
  ASSERT_LT(last_leaf_cols(lv), x.dim(0));
  expect_tree_invariants(x, 0);

  // Middle mode: the last leaf holds too few blocks to merge into a
  // triangle, so its flat sweep stops at the trapezoid.
  auto y = data::random_tensor<double>({3, 20, 11, 199}, 307);
  const auto lvy = tensor::detail::lq_leaves(y, 1);
  ASSERT_GT(lvy.count(), 1);
  ASSERT_LT(last_leaf_cols(lvy), y.dim(1));
  expect_tree_invariants(y, 1);
}

/// The single-leaf factorization, run by hand on dense copies: one gelqf
/// for a single-matrix unfolding, the flat tplqt sweep otherwise.
Matrix<double> hand_run_lq(const Tensor<double>& x, std::size_t n) {
  const index_t m = x.dim(n);
  const index_t before = tensor::prod_before(x.dims(), n);
  const index_t after = tensor::prod_after(x.dims(), n);
  std::vector<double> tau;
  if (n == 0 || after == 1) {
    Matrix<double> a(m, before * after);
    blas::copy(n == 0 ? tensor::unfolding_mode0(x)
                      : tensor::unfolding_block(x, n, 0),
               a.view());
    la::gelqf(a.view(), tau);
    return la::extract_l<double>(a.cview());
  }
  const index_t merge = std::min(after, (m + before - 1) / before);
  Matrix<double> first(m, merge * before);
  for (index_t b = 0; b < merge; ++b)
    blas::copy(tensor::unfolding_block(x, n, b),
               first.view().block(0, b * before, m, before));
  la::gelqf(first.view(), tau);
  Matrix<double> l = la::extract_l<double>(first.cview());
  if (l.cols() < m) return l;
  for (index_t j = merge; j < after; ++j) {
    auto block = Matrix<double>::from(tensor::unfolding_block(x, n, j));
    la::tplqt(l.view(), block.view(), tau, la::Pentagon::kFull);
  }
  return l;
}

TEST(TensorLqTree, SingleLeafMatchesHandRunFactorization) {
  // An unfolding that fits one leaf runs exactly the leaf kernel: bit for
  // bit the whole-unfolding gelqf (modes 0 and last) or the flat sweep
  // (middle modes, with and without merged leading blocks), including the
  // trapezoid of an unfolding narrower than m.
  for (const Dims& dims : {Dims{6, 7, 5, 4}, Dims{2, 9, 4}}) {
    auto x = data::random_tensor<double>(dims, 308);
    for (std::size_t n = 0; n < x.order(); ++n) {
      ASSERT_EQ(tensor::detail::lq_leaves(x, n).count(), 1);
      EXPECT_TRUE(same_bits(tensor::tensor_lq(x, n), hand_run_lq(x, n)))
          << "order " << x.order() << " mode " << n;
    }
  }
}

TEST(TensorLqTree, MergesPairwiseLevelByLevel) {
  // The documented tree shape, built by hand for five leaves: the leaf
  // LQs, then the merges (0,1) (2,3) | (0,2) | (0,4), each annihilating
  // the right triangle into the left one.
  const auto x = data::random_tensor<double>({8, 70, 500}, 309);
  const auto lv = tensor::detail::lq_leaves(x, 0);
  ASSERT_EQ(lv.count(), 5);
  const index_t m = x.dim(0);
  const auto a = tensor::unfolding_mode0(x);
  std::vector<Matrix<double>> tri;
  std::vector<double> tau;
  for (index_t i = 0; i < lv.count(); ++i) {
    const index_t c0 = i * lv.per_leaf;
    const index_t w = std::min(lv.units, c0 + lv.per_leaf) - c0;
    Matrix<double> leaf(m, w);
    blas::copy(a.block(0, c0, m, w), leaf.view());
    la::gelqf(leaf.view(), tau);
    tri.push_back(la::extract_l<double>(leaf.cview()));
  }
  const std::pair<int, int> merges[] = {{0, 1}, {2, 3}, {0, 2}, {0, 4}};
  for (auto [dst, src] : merges)
    la::tplqt(tri[dst].view(), tri[src].view(), tau,
              la::Pentagon::kTriangular);
  EXPECT_TRUE(same_bits(tensor::tensor_lq(x, 0), tri[0]));
}

// -------------------------------------------------- spectra of generators

TEST(SyntheticTensorTest, PrescribedSpectraDecayAsRequested) {
  auto x = data::tensor_with_spectra(
      {12, 10, 8}, {data::DecayProfile::geometric(1, 1e-4),
                    data::DecayProfile::geometric(1, 1e-2),
                    data::DecayProfile::geometric(1, 1e-1)},
      67);
  for (std::size_t n = 0; n < 3; ++n) {
    auto l = tensor::tensor_lq(x, n);
    auto svd = la::jacobi_svd(MatView<const double>(l.view()));
    // Normalized leading-to-trailing ratio should reflect the profile
    // within two orders of magnitude (mode mixing blurs the exact values).
    const double span = svd.sigma.front() / svd.sigma.back();
    const double target = n == 0 ? 1e4 : (n == 1 ? 1e2 : 1e1);
    EXPECT_GT(span, target / 100) << n;
    EXPECT_LT(span, target * 100) << n;
  }
}

TEST(SyntheticTensorTest, RandomTensorIsReproducible) {
  auto a = data::random_tensor<double>({4, 5, 6}, 99);
  auto b = data::random_tensor<double>({4, 5, 6}, 99);
  for (index_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.data()[i], b.data()[i]);
}

}  // namespace
}  // namespace tucker
