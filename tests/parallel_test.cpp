// Tests for the tucker::parallel threading layer and its core guarantee:
// kernel results are bitwise independent of TUCKER_NUM_THREADS. Each test
// that sweeps thread counts reconfigures the pool through set_max_threads
// (the runtime equivalent of the environment variable) and compares raw
// bytes with memcmp.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "common/flops.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/sthosvd.hpp"
#include "data/synthetic_tensor.hpp"
#include "simmpi/runtime.hpp"
#include "tensor/preprocess.hpp"
#include "tensor/ttm.hpp"

namespace {

using tucker::blas::index_t;
using tucker::blas::Matrix;
using tucker::blas::MatView;
using tucker::parallel::parallel_for;
using tucker::parallel::set_max_threads;

// Restores the pool width after each test so ordering doesn't leak.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_max_threads(initial_); }
  int initial_ = tucker::parallel::max_threads();
};

const int kSweep[] = {1, 2, 7};

template <class T>
Matrix<T> rand_mat(index_t m, index_t n, std::uint64_t seed) {
  tucker::Rng rng(seed);
  Matrix<T> a(m, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) a(i, j) = rng.normal<T>();
  return a;
}

template <class T>
bool same_bits(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(T) * static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols())) == 0;
}

TEST_F(ParallelTest, EmptyRangeNeverInvokes) {
  for (int w : kSweep) {
    set_max_threads(w);
    std::atomic<int> calls{0};
    parallel_for(5, 5, 1, [&](index_t, index_t) { ++calls; });
    parallel_for(7, 3, 4, [&](index_t, index_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
  }
}

TEST_F(ParallelTest, GrainLargerThanRangeIsOneChunk) {
  EXPECT_EQ(tucker::parallel::num_chunks(0, 5, 100), 1);
  for (int w : kSweep) {
    set_max_threads(w);
    std::vector<std::pair<index_t, index_t>> chunks;
    std::mutex mu;
    parallel_for(2, 7, 100, [&](index_t lo, index_t hi) {
      std::lock_guard<std::mutex> g(mu);
      chunks.emplace_back(lo, hi);
    });
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].first, 2);
    EXPECT_EQ(chunks[0].second, 7);
  }
}

TEST_F(ParallelTest, ChunksTileRangeExactly) {
  for (int w : kSweep) {
    set_max_threads(w);
    std::vector<int> hits(101, 0);
    std::mutex mu;
    parallel_for(3, 101, 7, [&](index_t lo, index_t hi) {
      std::lock_guard<std::mutex> g(mu);
      for (index_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
    });
    for (index_t i = 0; i < 101; ++i)
      EXPECT_EQ(hits[static_cast<std::size_t>(i)], (i >= 3) ? 1 : 0)
          << "index " << i << " width " << w;
  }
}

TEST_F(ParallelTest, ChunkBoundariesIndependentOfThreadCount) {
  std::vector<std::vector<std::pair<index_t, index_t>>> per_width;
  for (int w : kSweep) {
    set_max_threads(w);
    std::vector<std::pair<index_t, index_t>> chunks(
        static_cast<std::size_t>(tucker::parallel::num_chunks(0, 1000, 37)));
    tucker::parallel::parallel_for_chunks(
        0, 1000, 37, [&](index_t c, index_t lo, index_t hi) {
          chunks[static_cast<std::size_t>(c)] = {lo, hi};
        });
    per_width.push_back(std::move(chunks));
  }
  EXPECT_EQ(per_width[0], per_width[1]);
  EXPECT_EQ(per_width[0], per_width[2]);
}

TEST_F(ParallelTest, ExceptionsPropagateToCaller) {
  for (int w : kSweep) {
    set_max_threads(w);
    EXPECT_THROW(
        parallel_for(0, 64, 1,
                     [&](index_t lo, index_t) {
                       if (lo == 13) throw std::runtime_error("chunk 13");
                     }),
        std::runtime_error);
  }
}

TEST_F(ParallelTest, NestedParallelForRunsInlineAndCorrectly) {
  for (int w : kSweep) {
    set_max_threads(w);
    std::vector<int> hits(64 * 64, 0);
    parallel_for(0, 64, 4, [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) {
        parallel_for(0, 64, 8, [&](index_t jlo, index_t jhi) {
          for (index_t j = jlo; j < jhi; ++j)
            ++hits[static_cast<std::size_t>(i * 64 + j)];
        });
      }
    });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST_F(ParallelTest, ThreadWidthCapForcesSerial) {
  set_max_threads(7);
  EXPECT_EQ(tucker::parallel::max_threads(), 7);
  EXPECT_EQ(tucker::parallel::this_thread_width(), 7);
  {
    tucker::parallel::ThreadWidthCap cap(1);
    EXPECT_EQ(tucker::parallel::this_thread_width(), 1);
    {
      tucker::parallel::ThreadWidthCap inner(3);
      EXPECT_EQ(tucker::parallel::this_thread_width(), 3);
    }
    EXPECT_EQ(tucker::parallel::this_thread_width(), 1);
  }
  EXPECT_EQ(tucker::parallel::this_thread_width(), 7);
}

TEST_F(ParallelTest, FlopCountsAggregateAcrossWorkers) {
  for (int w : kSweep) {
    set_max_threads(w);
    tucker::FlopScope scope;
    parallel_for(0, 1000, 3, [&](index_t lo, index_t hi) {
      tucker::add_flops(hi - lo);
    });
    EXPECT_EQ(scope.flops(), 1000) << "width " << w;
  }
}

template <class T>
void gemm_bitwise_sweep() {
  auto a = rand_mat<T>(93, 117, 1);
  auto b = rand_mat<T>(117, 141, 2);
  auto bt = rand_mat<T>(141, 117, 21);  // for the packed (strided-B) path
  std::vector<Matrix<T>> cs, cps, cts;
  for (int w : kSweep) {
    set_max_threads(w);
    Matrix<T> c(93, 141);
    tucker::blas::gemm(T(1), MatView<const T>(a.view()),
                       MatView<const T>(b.view()), T(0), c.view());
    cs.push_back(std::move(c));
    Matrix<T> cp(93, 141);
    tucker::blas::gemm(T(1), MatView<const T>(a.view()),
                       MatView<const T>(bt.view().t()), T(0), cp.view());
    cps.push_back(std::move(cp));
    // Tall C (row-parallel split).
    Matrix<T> ct(141, 93);
    tucker::blas::gemm(T(1), MatView<const T>(b.view().t()),
                       MatView<const T>(a.view().t()), T(0), ct.view());
    cts.push_back(std::move(ct));
  }
  for (std::size_t i = 1; i < cs.size(); ++i) {
    EXPECT_TRUE(same_bits(cs[0], cs[i])) << "threads " << kSweep[i];
    EXPECT_TRUE(same_bits(cps[0], cps[i])) << "threads " << kSweep[i];
    EXPECT_TRUE(same_bits(cts[0], cts[i])) << "threads " << kSweep[i];
  }
}

TEST_F(ParallelTest, GemmBitwiseAcrossThreadCountsFloat) {
  gemm_bitwise_sweep<float>();
}
TEST_F(ParallelTest, GemmBitwiseAcrossThreadCountsDouble) {
  gemm_bitwise_sweep<double>();
}

template <class T>
void syrk_bitwise_sweep() {
  // Each shape fans out over row bands of shared packed panels: 61 x 350
  // into 3 bands (its 94-column remainder step into 1), 126 x 3000 into
  // 15, and 300 x 700 into the 16-band cap.
  for (auto [m, n] : {std::pair<index_t, index_t>{61, 350}, {126, 3000},
                      {300, 700}}) {
    auto a = rand_mat<T>(m, n, 3);
    std::vector<Matrix<T>> gs, gps;
    for (int w : kSweep) {
      set_max_threads(w);
      Matrix<T> g(m, m);
      tucker::blas::syrk(T(1), MatView<const T>(a.view()), T(0), g.view());
      gs.push_back(std::move(g));
      // Strided-A (pack) path via a transposed view of a column-major copy.
      std::vector<T> buf(static_cast<std::size_t>(m * n));
      auto acm = MatView<T>::col_major(buf.data(), n, m);
      tucker::blas::copy(MatView<const T>(a.view().t()), acm);
      Matrix<T> gp(m, m);
      tucker::blas::syrk(T(1), MatView<const T>(acm.t()), T(0), gp.view());
      gps.push_back(std::move(gp));
    }
    for (std::size_t i = 1; i < gs.size(); ++i) {
      EXPECT_TRUE(same_bits(gs[0], gs[i]))
          << m << "x" << n << " threads " << kSweep[i];
      EXPECT_TRUE(same_bits(gps[0], gps[i]))
          << m << "x" << n << " threads " << kSweep[i];
    }
  }
}

TEST_F(ParallelTest, SyrkBitwiseAcrossThreadCountsFloat) {
  syrk_bitwise_sweep<float>();
}
TEST_F(ParallelTest, SyrkBitwiseAcrossThreadCountsDouble) {
  syrk_bitwise_sweep<double>();
}

template <class T>
void ttm_bitwise_sweep() {
  tucker::tensor::Tensor<T> x({17, 19, 23});
  tucker::Rng rng(5);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<T>();
  auto u = rand_mat<T>(11, 19, 6);
  auto u0 = rand_mat<T>(11, 17, 7);
  std::vector<tucker::tensor::Tensor<T>> ys, y0s;
  for (int w : kSweep) {
    set_max_threads(w);
    ys.push_back(tucker::tensor::ttm(x, 1, MatView<const T>(u.view())));
    y0s.push_back(tucker::tensor::ttm(x, 0, MatView<const T>(u0.view())));
  }
  for (std::size_t i = 1; i < ys.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(ys[0].data(), ys[i].data(),
                             sizeof(T) * static_cast<std::size_t>(
                                             ys[0].size())))
        << "threads " << kSweep[i];
    EXPECT_EQ(0, std::memcmp(y0s[0].data(), y0s[i].data(),
                             sizeof(T) * static_cast<std::size_t>(
                                             y0s[0].size())))
        << "threads " << kSweep[i];
  }
}

TEST_F(ParallelTest, TtmBitwiseAcrossThreadCountsFloat) {
  ttm_bitwise_sweep<float>();
}
TEST_F(ParallelTest, TtmBitwiseAcrossThreadCountsDouble) {
  ttm_bitwise_sweep<double>();
}

TEST_F(ParallelTest, SliceStatisticsBitwiseAcrossThreadCounts) {
  tucker::tensor::Tensor<double> x({8, 6, 5, 7});
  tucker::Rng rng(9);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<double>();
  std::vector<std::vector<tucker::tensor::SliceStats>> all;
  for (int w : kSweep) {
    set_max_threads(w);
    all.push_back(tucker::tensor::slice_statistics(x, 1));
  }
  for (std::size_t i = 1; i < all.size(); ++i) {
    ASSERT_EQ(all[0].size(), all[i].size());
    for (std::size_t s = 0; s < all[0].size(); ++s) {
      EXPECT_EQ(all[0][s].min, all[i][s].min);
      EXPECT_EQ(all[0][s].max, all[i][s].max);
      EXPECT_EQ(all[0][s].mean, all[i][s].mean);
      EXPECT_EQ(all[0][s].variance, all[i][s].variance);
    }
  }
}

// The acceptance-level guarantee: whole ST-HOSVD runs (both SVD engines)
// produce bitwise-identical cores and factors at every thread count.
template <class T>
void sthosvd_bitwise_sweep(tucker::core::SvdMethod method) {
  // Runs on the default kAuto small-SVD dispatch deliberately: unpinned
  // kAuto must never consult the live width (jacobi_pipeline_test pins the
  // resolution), so this sweep guards the exact path compress_file takes.
  auto x = tucker::data::random_tensor<T>({14, 12, 10}, /*seed=*/11);
  std::vector<tucker::core::SthosvdResult<T>> rs;
  for (int w : kSweep) {
    set_max_threads(w);
    rs.push_back(tucker::core::sthosvd(
        x, tucker::core::TruncationSpec::tolerance(1e-3), method));
  }
  for (std::size_t i = 1; i < rs.size(); ++i) {
    ASSERT_EQ(rs[0].ranks, rs[i].ranks) << "threads " << kSweep[i];
    EXPECT_EQ(0,
              std::memcmp(rs[0].tucker.core.data(), rs[i].tucker.core.data(),
                          sizeof(T) * static_cast<std::size_t>(
                                          rs[0].tucker.core.size())))
        << "threads " << kSweep[i];
    for (std::size_t f = 0; f < rs[0].tucker.factors.size(); ++f)
      EXPECT_TRUE(same_bits(rs[0].tucker.factors[f], rs[i].tucker.factors[f]))
          << "factor " << f << " threads " << kSweep[i];
  }
}

TEST_F(ParallelTest, SthosvdQrBitwiseAcrossThreadCounts) {
  sthosvd_bitwise_sweep<double>(tucker::core::SvdMethod::kQr);
}
TEST_F(ParallelTest, SthosvdGramBitwiseAcrossThreadCounts) {
  sthosvd_bitwise_sweep<double>(tucker::core::SvdMethod::kGram);
}

TEST_F(ParallelTest, GemmFlopTotalsMatchSerialUnderConcurrency) {
  auto a = rand_mat<double>(80, 90, 12);
  auto b = rand_mat<double>(90, 100, 13);
  std::vector<std::int64_t> totals;
  for (int w : kSweep) {
    set_max_threads(w);
    Matrix<double> c(80, 100);
    tucker::FlopScope scope;
    tucker::blas::gemm(1.0, MatView<const double>(a.view()),
                       MatView<const double>(b.view()), 0.0, c.view());
    totals.push_back(scope.flops());
  }
  EXPECT_EQ(totals[0], 2 * 80 * 90 * 100);
  EXPECT_EQ(totals[0], totals[1]);
  EXPECT_EQ(totals[0], totals[2]);
}

// TTM flop totals exercise worker-side accounting: the per-block gemms run
// on pool workers, whose deltas must be folded back into the caller.
TEST_F(ParallelTest, TtmFlopTotalsMatchSerialUnderConcurrency) {
  tucker::tensor::Tensor<double> x({9, 8, 30});
  tucker::Rng rng(14);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<double>();
  auto u = rand_mat<double>(5, 8, 15);
  std::vector<std::int64_t> totals;
  for (int w : kSweep) {
    set_max_threads(w);
    tucker::FlopScope scope;
    auto y = tucker::tensor::ttm(x, 1, MatView<const double>(u.view()));
    totals.push_back(scope.flops());
  }
  EXPECT_GT(totals[0], 0);
  EXPECT_EQ(totals[0], totals[1]);
  EXPECT_EQ(totals[0], totals[2]);
}

// simmpi rank threads must see per-rank capped kernels and still report
// identical flop totals and results for any TUCKER_NUM_THREADS.
TEST_F(ParallelTest, SimmpiRanksCapKernelThreadsAndKeepFlops) {
  for (int w : {1, 4}) {
    set_max_threads(w);
    auto stats = tucker::mpi::Runtime::run(4, [&](tucker::mpi::Comm& comm) {
      // With 4 ranks on a width <= 4 pool, every rank must be serial.
      EXPECT_EQ(tucker::parallel::this_thread_width(), std::max(1, w / 4));
      auto a = rand_mat<double>(40, 50, 16 + comm.rank());
      auto b = rand_mat<double>(50, 60, 17);
      Matrix<double> c(40, 60);
      tucker::blas::gemm(1.0, MatView<const double>(a.view()),
                         MatView<const double>(b.view()), 0.0, c.view());
    });
    for (const auto& r : stats.ranks)
      EXPECT_EQ(r.flops, 2 * 40 * 50 * 60);
  }
}

}  // namespace
