// Bitwise contracts of the register-tiled level-3 micro-kernels and the
// Workspace arena:
//  - every ISA level the host runs produces gemm and syrk results
//    bitwise identical to the scalar oracle over a shape / stride /
//    transpose sweep, including NaN and Inf propagation (so neither the
//    host's level nor the TUCKER_SIMD build option can change results);
//  - all match a naive per-element serial-k reference, pinning the
//    accumulation chain the determinism guarantee is stated over;
//  - forcing a level above the detected one is refused, not run;
//  - Workspace frames rewind and hand back the same memory, gets within one
//    frame never alias, and stash slots persist;
//  - a repeated ttm_into loop performs zero heap allocations after warm-up
//    (counting global operator new), and repeated sthosvd calls reuse their
//    stashed ping-pong scratch;
//  - the TensorLQ tree keeps the caller's arena below half the unfolding,
//    and a warm call's heap use does not grow with its leaf count;
//  - a warm Gram of a many-block middle mode makes no per-block heap
//    allocation at width 4, and only its returned matrix at width 1;
//  - sthosvd output is bitwise identical across kernel levels and thread
//    counts, and full sthosvd, par_sthosvd and served results are bitwise
//    identical at every level the host runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "core/par_sthosvd.hpp"
#include "core/sthosvd.hpp"
#include "data/synthetic_tensor.hpp"
#include "serve/service.hpp"
#include "simmpi/runtime.hpp"
#include "tensor/gram.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_lq.hpp"
#include "tensor/ttm.hpp"

// ------------------------------------------------ counting global allocator

namespace {
std::atomic<long> g_live_allocs{0};

// Counted allocation; nullptr on failure, as the nothrow forms return.
void* counted_alloc(std::size_t n) {
  ++g_live_allocs;
  return std::malloc(n ? n : 1);
}
void* counted_alloc(std::size_t n, std::align_val_t al) {
  ++g_live_allocs;
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (std::max<std::size_t>(n, 1) + a - 1) / a * a);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
// The nothrow forms (std::stable_sort's temporary buffer uses them) are
// replaced too: left to the runtime they allocate through its own
// operator new, and releasing that with the std::free below is an
// alloc-dealloc mismatch under ASan.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using tucker::Workspace;
using tucker::blas::index_t;
using tucker::blas::Matrix;
using tucker::blas::MatView;
using tucker::blas::detail::KernelVariant;
using tucker::blas::detail::kernel_variant;
using tucker::blas::detail::kernel_variant_name;
using tucker::blas::detail::set_kernel_variant;
using tucker::blas::detail::supported_kernel_variants;

// Restores the kernel level the test found on entry.
struct VariantGuard {
  KernelVariant saved = kernel_variant();
  ~VariantGuard() { set_kernel_variant(saved); }
};

// The vector levels this host runs: every supported level but the scalar
// oracle they are compared with.
std::vector<KernelVariant> vector_levels() {
  auto levels = supported_kernel_variants();
  levels.erase(levels.begin());
  return levels;
}

// Restores the pool width the test found on entry.
struct ThreadsGuard {
  int saved = tucker::parallel::max_threads();
  ~ThreadsGuard() { tucker::parallel::set_max_threads(saved); }
};

template <class T>
Matrix<T> rand_mat(index_t m, index_t n, std::uint64_t seed) {
  tucker::Rng rng(seed);
  Matrix<T> a(m, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) a(i, j) = rng.normal<T>();
  return a;
}

template <class T>
bool bitwise_equal(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(T) * static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols())) == 0;
}

// Naive reference with the library's documented accumulation chain: each C
// element starts from the beta-scaled value and accumulates
// (alpha * a(i,k)) * b(k,j) in serial k order. The micro-kernel must match
// this bitwise (no FMA asymmetry, no reassociation).
template <class T>
void ref_gemm(T alpha, MatView<const T> a, MatView<const T> b, T beta,
              MatView<T> c) {
  for (index_t i = 0; i < c.rows(); ++i)
    for (index_t j = 0; j < c.cols(); ++j) {
      T s = beta == T(0) ? T(0) : (beta == T(1) ? c(i, j) : c(i, j) * beta);
      for (index_t k = 0; k < a.cols(); ++k) s += (alpha * a(i, k)) * b(k, j);
      c(i, j) = s;
    }
}

template <class T>
void ref_syrk(T alpha, MatView<const T> a, T beta, MatView<T> c) {
  const index_t m = a.rows(), n = a.cols();
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j <= i; ++j) {
      T s = beta == T(0) ? T(0) : (beta == T(1) ? c(i, j) : c(i, j) * beta);
      for (index_t k = 0; k < n; ++k) s += (alpha * a(i, k)) * a(j, k);
      c(i, j) = s;
    }
  for (index_t i = 0; i < m; ++i)
    for (index_t j = i + 1; j < m; ++j) c(i, j) = c(j, i);
}

constexpr index_t kSizes[] = {1, 2, 3, 7, 17, 64, 129};

enum class Layout { kPlain, kATrans, kBTrans, kCCol, kStrided };
constexpr Layout kLayouts[] = {Layout::kPlain, Layout::kATrans,
                               Layout::kBTrans, Layout::kCCol,
                               Layout::kStrided};

// Runs one gemm under the requested layout: operands are stored so the
// *logical* (m x k) * (k x n) problem is identical, while the views exercise
// the transposed / column-major / strided code paths.
template <class T>
void run_gemm_layout(Layout lay, T alpha, T beta, index_t m, index_t n,
                     index_t k, Matrix<T>& c) {
  switch (lay) {
    case Layout::kPlain: {
      auto a = rand_mat<T>(m, k, 1);
      auto b = rand_mat<T>(k, n, 2);
      tucker::blas::gemm(alpha, MatView<const T>(a.view()),
                         MatView<const T>(b.view()), beta, c.view());
      break;
    }
    case Layout::kATrans: {
      auto at = rand_mat<T>(k, m, 3);
      auto b = rand_mat<T>(k, n, 2);
      tucker::blas::gemm(alpha, MatView<const T>(at.view().t()),
                         MatView<const T>(b.view()), beta, c.view());
      break;
    }
    case Layout::kBTrans: {
      auto a = rand_mat<T>(m, k, 1);
      auto bt = rand_mat<T>(n, k, 4);
      tucker::blas::gemm(alpha, MatView<const T>(a.view()),
                         MatView<const T>(bt.view().t()), beta, c.view());
      break;
    }
    case Layout::kCCol: {
      // Column-major C: write through a transposed view of row-major
      // storage, computing the same logical product via the flip path.
      auto a = rand_mat<T>(m, k, 1);
      auto b = rand_mat<T>(k, n, 2);
      Matrix<T> ct(n, m);
      for (index_t i = 0; i < m; ++i)
        for (index_t j = 0; j < n; ++j) ct(j, i) = c(i, j);
      tucker::blas::gemm(alpha, MatView<const T>(a.view()),
                         MatView<const T>(b.view()), beta, ct.view().t());
      for (index_t i = 0; i < m; ++i)
        for (index_t j = 0; j < n; ++j) c(i, j) = ct(j, i);
      break;
    }
    case Layout::kStrided: {
      // A and B are interior blocks of larger matrices: row stride exceeds
      // the logical width on both operands.
      auto abig = rand_mat<T>(m + 2, k + 3, 5);
      auto bbig = rand_mat<T>(k + 1, n + 2, 6);
      tucker::blas::gemm(
          alpha, MatView<const T>(abig.view().block(1, 2, m, k)),
          MatView<const T>(bbig.view().block(1, 1, k, n)), beta, c.view());
      break;
    }
  }
}

template <class T>
Matrix<T> ref_gemm_layout(Layout lay, T alpha, T beta, index_t m, index_t n,
                          index_t k, const Matrix<T>& c0) {
  Matrix<T> c = c0;
  auto ref = [&](const Matrix<T>& a, const Matrix<T>& b) {
    ref_gemm(alpha, MatView<const T>(a.view()), MatView<const T>(b.view()),
             beta, c.view());
  };
  switch (lay) {
    case Layout::kPlain: {
      ref(rand_mat<T>(m, k, 1), rand_mat<T>(k, n, 2));
      break;
    }
    case Layout::kCCol: {
      // The column-major-C path computes C^T = B^T A^T, so alpha folds into
      // the B factor: the per-element chain is (alpha * b(k,j)) * a(i,k).
      // Exception: a single-row C is row-contiguous too (both strides 1),
      // takes the direct path, and keeps the (alpha * a) * b grouping.
      auto a = rand_mat<T>(m, k, 1);
      auto b = rand_mat<T>(k, n, 2);
      if (m == 1) {
        ref(a, b);
        break;
      }
      for (index_t i = 0; i < m; ++i)
        for (index_t j = 0; j < n; ++j) {
          T s = beta == T(0) ? T(0)
                             : (beta == T(1) ? c(i, j) : c(i, j) * beta);
          for (index_t kk = 0; kk < k; ++kk)
            s += (alpha * b(kk, j)) * a(i, kk);
          c(i, j) = s;
        }
      break;
    }
    case Layout::kATrans: {
      auto at = rand_mat<T>(k, m, 3);
      Matrix<T> a(m, k);
      for (index_t i = 0; i < m; ++i)
        for (index_t j = 0; j < k; ++j) a(i, j) = at(j, i);
      ref(a, rand_mat<T>(k, n, 2));
      break;
    }
    case Layout::kBTrans: {
      auto bt = rand_mat<T>(n, k, 4);
      Matrix<T> b(k, n);
      for (index_t i = 0; i < k; ++i)
        for (index_t j = 0; j < n; ++j) b(i, j) = bt(j, i);
      ref(rand_mat<T>(m, k, 1), b);
      break;
    }
    case Layout::kStrided: {
      auto abig = rand_mat<T>(m + 2, k + 3, 5);
      auto bbig = rand_mat<T>(k + 1, n + 2, 6);
      Matrix<T> a(m, k), b(k, n);
      for (index_t i = 0; i < m; ++i)
        for (index_t j = 0; j < k; ++j) a(i, j) = abig(i + 1, j + 2);
      for (index_t i = 0; i < k; ++i)
        for (index_t j = 0; j < n; ++j) b(i, j) = bbig(i + 1, j + 1);
      ref(a, b);
      break;
    }
  }
  return c;
}

template <class T>
void gemm_variant_sweep() {
  VariantGuard guard;
  const T alpha = T(1.25), beta = T(0.5);
  for (Layout lay : kLayouts)
    for (index_t m : kSizes)
      for (index_t n : kSizes)
        for (index_t k : kSizes) {
          const Matrix<T> c0 = rand_mat<T>(m, n, 7);
          Matrix<T> c_scalar = c0;
          set_kernel_variant(KernelVariant::kScalar);
          run_gemm_layout(lay, alpha, beta, m, n, k, c_scalar);
          const Matrix<T> c_ref =
              ref_gemm_layout<T>(lay, alpha, beta, m, n, k, c0);
          for (KernelVariant v : vector_levels()) {
            Matrix<T> c_simd = c0;
            set_kernel_variant(v);
            run_gemm_layout(lay, alpha, beta, m, n, k, c_simd);
            ASSERT_TRUE(bitwise_equal(c_simd, c_scalar))
                << kernel_variant_name(v) << " layout "
                << static_cast<int>(lay) << " m=" << m << " n=" << n
                << " k=" << k;
            ASSERT_TRUE(bitwise_equal(c_simd, c_ref))
                << kernel_variant_name(v) << " vs reference chain: layout "
                << static_cast<int>(lay) << " m=" << m << " n=" << n
                << " k=" << k;
          }
        }
}

TEST(KernelEquivalence, GemmFloat) { gemm_variant_sweep<float>(); }
TEST(KernelEquivalence, GemmDouble) { gemm_variant_sweep<double>(); }

template <class T>
void syrk_variant_sweep() {
  VariantGuard guard;
  const T alpha = T(0.75), beta = T(1);
  for (index_t m : kSizes)
    for (index_t n : kSizes) {
      const auto a = rand_mat<T>(m, n, 11);
      const Matrix<T> c0 = [&] {
        Matrix<T> c(m, m);
        for (index_t i = 0; i < m; ++i)
          for (index_t j = 0; j <= i; ++j) c(i, j) = c(j, i) = T(i + j) / 8;
        return c;
      }();
      Matrix<T> c_scalar = c0;
      set_kernel_variant(KernelVariant::kScalar);
      tucker::blas::syrk(alpha, MatView<const T>(a.view()), beta,
                         c_scalar.view());
      Matrix<T> c_ref = c0;
      ref_syrk(alpha, MatView<const T>(a.view()), beta, c_ref.view());
      for (KernelVariant v : vector_levels()) {
        Matrix<T> c_simd = c0;
        set_kernel_variant(v);
        tucker::blas::syrk(alpha, MatView<const T>(a.view()), beta,
                           c_simd.view());
        ASSERT_TRUE(bitwise_equal(c_simd, c_scalar))
            << kernel_variant_name(v) << " m=" << m << " n=" << n;
        ASSERT_TRUE(bitwise_equal(c_simd, c_ref))
            << kernel_variant_name(v) << " vs reference chain: m=" << m
            << " n=" << n;
      }
    }
}

TEST(KernelEquivalence, SyrkFloat) { syrk_variant_sweep<float>(); }
TEST(KernelEquivalence, SyrkDouble) { syrk_variant_sweep<double>(); }

template <class T>
void special_value_propagation() {
  VariantGuard guard;
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const T inf = std::numeric_limits<T>::infinity();
  const index_t m = 13, n = 21, k = 9;
  auto a = rand_mat<T>(m, k, 21);
  auto b = rand_mat<T>(k, n, 22);
  a(0, 4) = nan;   // poisons row 0 of C
  a(5, 0) = inf;   // row 5: +/- inf (or NaN where cancelled)
  b(2, 7) = nan;   // poisons column 7 of C
  Matrix<T> out[2];
  set_kernel_variant(KernelVariant::kScalar);
  out[1] = Matrix<T>(m, n);
  tucker::blas::gemm(T(1), MatView<const T>(a.view()),
                     MatView<const T>(b.view()), T(0), out[1].view());
  for (KernelVariant v : vector_levels()) {
    set_kernel_variant(v);
    out[0] = Matrix<T>(m, n);
    tucker::blas::gemm(T(1), MatView<const T>(a.view()),
                       MatView<const T>(b.view()), T(0), out[0].view());
    ASSERT_TRUE(bitwise_equal(out[0], out[1])) << kernel_variant_name(v);
    for (index_t j = 0; j < n; ++j)
      EXPECT_TRUE(std::isnan(out[0](0, j))) << "j=" << j;
    for (index_t i = 0; i < m; ++i)
      EXPECT_TRUE(std::isnan(out[0](i, 7))) << "i=" << i;
    for (index_t j = 0; j < n; ++j) {
      if (j != 7) {
        EXPECT_FALSE(std::isfinite(out[0](5, j))) << "j=" << j;
      }
    }
  }
}

TEST(KernelEquivalence, NanInfPropagationFloat) {
  special_value_propagation<float>();
}
TEST(KernelEquivalence, NanInfPropagationDouble) {
  special_value_propagation<double>();
}

// ------------------------------------------------------------- workspace

TEST(WorkspaceTest, FrameRewindReusesMemory) {
  Workspace ws;
  void* p1 = nullptr;
  void* p2 = nullptr;
  {
    auto f = ws.frame();
    p1 = ws.get<double>(1000);
  }
  {
    auto f = ws.frame();
    p2 = ws.get<double>(1000);
  }
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p1) % 64, 0u);
}

TEST(WorkspaceTest, GetsWithinFrameDoNotAlias) {
  Workspace ws;
  auto f = ws.frame();
  double* a = ws.get<double>(257);
  double* b = ws.get<double>(129);
  float* c = ws.get<float>(65);
  // Disjoint: writing each region leaves the others untouched.
  for (int i = 0; i < 257; ++i) a[i] = 1.0;
  for (int i = 0; i < 129; ++i) b[i] = 2.0;
  for (int i = 0; i < 65; ++i) c[i] = 3.0f;
  for (int i = 0; i < 257; ++i) ASSERT_EQ(a[i], 1.0);
  for (int i = 0; i < 129; ++i) ASSERT_EQ(b[i], 2.0);
  for (int i = 0; i < 65; ++i) ASSERT_EQ(c[i], 3.0f);
}

TEST(WorkspaceTest, NestedFramesAndGrowth) {
  Workspace ws;
  auto outer = ws.frame();
  double* big = ws.get<double>(100000);  // spans multiple blocks
  big[99999] = 7.0;
  {
    auto inner = ws.frame();
    double* more = ws.get<double>(50000);
    more[0] = 1.0;
    EXPECT_NE(big, more);
  }
  EXPECT_EQ(big[99999], 7.0);
  const std::size_t reserved = ws.bytes_reserved();
  {
    auto inner = ws.frame();
    (void)ws.get<double>(50000);
  }
  // Rewound frames re-serve reserved memory: no growth on repeat requests.
  EXPECT_EQ(ws.bytes_reserved(), reserved);
}

TEST(WorkspaceTest, StashPersistsAndIsTypeKeyed) {
  Workspace ws;
  ws.stash<std::vector<double>>("buf").assign(10, 3.5);
  ws.stash<std::vector<float>>("buf").assign(4, 1.0f);  // distinct slot
  EXPECT_EQ(ws.stash<std::vector<double>>("buf").size(), 10u);
  EXPECT_EQ(ws.stash<std::vector<float>>("buf").size(), 4u);
  EXPECT_EQ(ws.stash<std::vector<double>>("buf")[9], 3.5);
}

// ------------------------------------------------------- zero allocations

TEST(ZeroAllocTest, RepeatedTtmIntoDoesNotTouchHeap) {
  using tucker::tensor::Tensor;
  ThreadsGuard threads;
  tucker::parallel::set_max_threads(1);
  Tensor<double> x({24, 18, 20});
  tucker::Rng rng(31);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<double>();
  auto u = rand_mat<double>(9, 18, 32);
  Tensor<double> y;
  // Warm-up: grows y and the arena once.
  tucker::tensor::ttm_into(x, 1, MatView<const double>(u.view()), y);
  const double checksum = y.data()[0];

  const long before = g_live_allocs.load();
  for (int rep = 0; rep < 50; ++rep) {
    tucker::tensor::ttm_into(x, 1, MatView<const double>(u.view()), y);
    // Every mode of the typical truncation chain, not just mode 1:
    tucker::tensor::ttm_into(x, 1, MatView<const double>(u.view()), y);
  }
  const long after = g_live_allocs.load();
  EXPECT_EQ(after - before, 0) << "heap allocations in steady-state ttm";
  EXPECT_EQ(y.data()[0], checksum);
}

TEST(ZeroAllocTest, SthosvdReusesStashedScratch) {
  using tucker::tensor::Tensor;
  ThreadsGuard threads;
  tucker::parallel::set_max_threads(1);
  // Gram, and QR on a shape whose mode-0 and mode-1 LQs are multi-leaf
  // trees (their leaf triangles and leaf copies come from the arena too).
  struct Case {
    tucker::tensor::Dims dims;
    tucker::core::SvdMethod method;
  };
  for (const Case& c : {Case{{12, 10, 8}, tucker::core::SvdMethod::kGram},
                        Case{{24, 40, 40, 10}, tucker::core::SvdMethod::kQr}}) {
    Tensor<double> x(c.dims);
    tucker::Rng rng(33);
    for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<double>();
    if (c.method == tucker::core::SvdMethod::kQr) {
      ASSERT_GT(tucker::tensor::detail::lq_leaves(x, 0).count(), 1);
    }
    tucker::core::TruncationSpec spec;
    spec.ranks.assign(x.order(), 5);
    auto r1 = tucker::core::sthosvd(x, spec, c.method);
    const std::size_t reserved = Workspace::local().bytes_reserved();
    auto r2 = tucker::core::sthosvd(x, spec, c.method);
    // Second run serves all scratch from the warm arena and stash.
    EXPECT_EQ(Workspace::local().bytes_reserved(), reserved);
    ASSERT_EQ(r1.tucker.core.size(), r2.tucker.core.size());
    EXPECT_EQ(std::memcmp(r1.tucker.core.data(), r2.tucker.core.data(),
                          sizeof(double) *
                              static_cast<std::size_t>(r1.tucker.core.size())),
              0);
  }
}

// ------------------------------------------------ TensorLQ tree memory

TEST(TensorLqMemoryTest, ArenaHighWaterStaysBelowHalfTheUnfolding) {
  // The caller's arena holds the leaf triangles (and, at width 1, the leaf
  // copies) -- never a copy of the whole unfolding.
  auto x = tucker::data::random_tensor<double>({24, 40, 40, 10}, 35);
  ASSERT_GT(tucker::tensor::detail::lq_leaves(x, 0).count(), 1);
  Workspace& ws = Workspace::local();
  ws.reset_high_water();
  const std::size_t base = ws.bytes_in_use();
  (void)tucker::tensor::tensor_lq(x, 0);
  EXPECT_LT(ws.high_water() - base,
            sizeof(double) * static_cast<std::size_t>(x.size()) / 2);
}

TEST(TensorLqMemoryTest, WarmMultiLeafCallAllocatesNoMoreThanSingleLeaf) {
  // Leaves reuse the thread's stashed tau and arena scratch, so a warm
  // call's heap traffic (the returned L) does not grow with the leaf count.
  ThreadsGuard threads;
  tucker::parallel::set_max_threads(1);
  auto multi = tucker::data::random_tensor<double>({24, 40, 40, 10}, 36);
  auto single = tucker::data::random_tensor<double>({24, 10, 10}, 37);
  for (std::size_t n : {0u, 1u}) {
    ASSERT_GT(tucker::tensor::detail::lq_leaves(multi, n).count(), 1);
    ASSERT_EQ(tucker::tensor::detail::lq_leaves(single, n).count(), 1);
    (void)tucker::tensor::tensor_lq(multi, n);
    (void)tucker::tensor::tensor_lq(single, n);
    const long a0 = g_live_allocs.load();
    (void)tucker::tensor::tensor_lq(single, n);
    const long a1 = g_live_allocs.load();
    (void)tucker::tensor::tensor_lq(multi, n);
    const long a2 = g_live_allocs.load();
    EXPECT_LE(a2 - a1, a1 - a0) << "mode " << n;
  }
}

// ------------------------------------------------------- Gram heap use

TEST(ZeroAllocTest, WarmMiddleModeGramHasNoPerBlockHeap) {
  // Mode 1 of {32, 64, 12, 10} is 120 blocks of 32 columns. A warm call
  // allocates its returned G and, at width 4, one pool fanout record per
  // fanout (pack and bands per 8-block step); nothing per block.
  ThreadsGuard threads;
  const auto x = tucker::data::random_tensor<double>({32, 64, 12, 10}, 38);
  const index_t nblocks = tucker::tensor::unfolding_num_blocks(x, 1);
  ASSERT_EQ(nblocks, 120);
  for (int width : {4, 1}) {
    tucker::parallel::set_max_threads(width);
    (void)tucker::tensor::gram_of_unfolding(x, 1);  // warms the arena
    const long a0 = g_live_allocs.load();
    (void)tucker::tensor::gram_of_unfolding(x, 1);
    const long allocs = g_live_allocs.load() - a0;
    if (width == 1) {
      EXPECT_EQ(allocs, 1) << "width 1: only the returned matrix";
    } else {
      EXPECT_LT(allocs, nblocks / 2) << "width " << width;
    }
  }
}

// --------------------------------------- sthosvd bitwise across variants

TEST(KernelEquivalence, SthosvdBitwiseAcrossVariantsAndThreads) {
  using tucker::tensor::Tensor;
  VariantGuard guard;
  ThreadsGuard threads;
  Tensor<double> x({16, 14, 12});
  tucker::Rng rng(41);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<double>();
  tucker::core::TruncationSpec spec;
  spec.ranks = {6, 6, 6};

  std::vector<Tensor<double>> cores;
  std::vector<Matrix<double>> factor0s;
  for (KernelVariant v : supported_kernel_variants())
    for (int threads : {1, 2, 4})
      for (auto method :
           {tucker::core::SvdMethod::kGram, tucker::core::SvdMethod::kQr}) {
        set_kernel_variant(v);
        tucker::parallel::set_max_threads(threads);
        auto r = tucker::core::sthosvd(x, spec, method);
        // Compare per method: entry index = method slot.
        const std::size_t slot =
            method == tucker::core::SvdMethod::kGram ? 0 : 1;
        if (cores.size() <= slot) {
          cores.push_back(std::move(r.tucker.core));
          factor0s.push_back(std::move(r.tucker.factors[0]));
          continue;
        }
        ASSERT_EQ(r.tucker.core.size(), cores[slot].size());
        EXPECT_EQ(
            std::memcmp(r.tucker.core.data(), cores[slot].data(),
                        sizeof(double) *
                            static_cast<std::size_t>(cores[slot].size())),
            0)
            << "core mismatch: variant=" << static_cast<int>(v)
            << " threads=" << threads << " method=" << static_cast<int>(slot);
        EXPECT_TRUE(bitwise_equal(r.tucker.factors[0], factor0s[slot]))
            << "factor mismatch: variant=" << static_cast<int>(v)
            << " threads=" << threads << " method=" << static_cast<int>(slot);
      }
}

// --------------------------------- full results at every ISA level

// Every byte of a Tucker result: the core, then each factor.
template <class T>
std::vector<unsigned char> tucker_bytes(
    const tucker::core::TuckerTensor<T>& tk) {
  std::vector<unsigned char> out;
  auto append = [&out](const T* p, index_t n) {
    const auto* b = reinterpret_cast<const unsigned char*>(p);
    out.insert(out.end(), b, b + sizeof(T) * static_cast<std::size_t>(n));
  };
  append(tk.core.data(), tk.core.size());
  for (const auto& u : tk.factors) append(u.data(), u.rows() * u.cols());
  return out;
}

// The full results the level loop below compares: five sthosvd
// configurations, one par_sthosvd on a 2 x 2 simmpi grid, one served
// reconstruct and one served compress.
std::vector<std::vector<unsigned char>> full_results_at_current_level() {
  using tucker::core::SvdMethod;
  using tucker::core::TruncationSpec;
  using tucker::tensor::Tensor;
  const auto x64 = tucker::data::random_tensor<double>({26, 20, 18}, 61);
  const auto x32 = tucker::data::random_tensor<float>({26, 20, 18}, 62);
  const auto spec = TruncationSpec::fixed_ranks({7, 6, 5});
  std::vector<std::vector<unsigned char>> out;
  out.push_back(
      tucker_bytes(tucker::core::sthosvd(x32, spec, SvdMethod::kQr).tucker));
  out.push_back(
      tucker_bytes(tucker::core::sthosvd(x64, spec, SvdMethod::kQr).tucker));
  out.push_back(
      tucker_bytes(tucker::core::sthosvd(x64, spec, SvdMethod::kGram).tucker));
  out.push_back(
      tucker_bytes(tucker::core::sthosvd(x32, spec, SvdMethod::kRand).tucker));
  out.push_back(
      tucker_bytes(tucker::core::sthosvd(x32, spec, SvdMethod::kGram).tucker));

  std::vector<unsigned char> par;
  tucker::mpi::Runtime::run(4, [&](tucker::mpi::Comm& world) {
    tucker::dist::DistTensor<double> dt(
        world, tucker::dist::ProcessorGrid({2, 2, 1}), x64.dims());
    dt.fill_from(x64);
    auto res = tucker::core::par_sthosvd(dt, spec, SvdMethod::kQr);
    auto tk = res.gather_to_root();
    if (world.rank() == 0) par = tucker_bytes(tk);
  });
  out.push_back(std::move(par));

  tucker::serve::Service<double> svc(tucker::serve::ServeOptions{});
  tucker::core::TuckerTensor<double> model =
      tucker::core::sthosvd(x64, spec, SvdMethod::kQr).tucker;
  tucker::serve::ReconstructRequest<double> rreq;
  rreq.model = svc.register_model(std::move(model));
  const Tensor<double> y = svc.submit(rreq).value().get().tensor;
  const auto* yb = reinterpret_cast<const unsigned char*>(y.data());
  out.emplace_back(yb, yb + sizeof(double) * static_cast<std::size_t>(y.size()));
  tucker::serve::CompressRequest<double> creq;
  creq.x = std::make_shared<const Tensor<double>>(x64);
  creq.spec = spec;
  creq.method = SvdMethod::kQr;
  out.push_back(tucker_bytes(
      svc.submit(std::move(creq)).value().get().result.tucker));
  svc.stop();
  return out;
}

TEST(KernelEquivalence, FullResultsBitwiseAcrossLevels) {
  VariantGuard guard;
  ThreadsGuard threads;
  set_kernel_variant(KernelVariant::kScalar);
  tucker::parallel::set_max_threads(1);
  const auto ref = full_results_at_current_level();
  for (KernelVariant v : supported_kernel_variants())
    for (int width : {1, 4}) {
      set_kernel_variant(v);
      tucker::parallel::set_max_threads(width);
      const auto got = full_results_at_current_level();
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(got[i].size(), ref[i].size()) << "result " << i;
        EXPECT_EQ(std::memcmp(got[i].data(), ref[i].data(), ref[i].size()), 0)
            << "result " << i << " level " << kernel_variant_name(v)
            << " width " << width;
      }
    }
}

TEST(KernelEquivalenceDeathTest, ForcingAnUndetectedLevelIsRefused) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The level above the detected one: a real level on a host without
  // AVX-512, one past the last on a host with it. Either is refused.
  const auto above = static_cast<KernelVariant>(
      static_cast<int>(tucker::blas::detail::detected_kernel_variant()) + 1);
  EXPECT_DEATH(set_kernel_variant(above), "does not run that ISA level");
}

}  // namespace
