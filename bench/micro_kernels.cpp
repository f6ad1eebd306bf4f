// Microbenchmarks (google-benchmark) for the local computational kernels
// the paper's performance discussion rests on (Sec 4.2.1): gemm, syrk
// (the Gram kernel), Householder LQ on row- and column-major layouts
// (geqr vs gelq), the structured tpqrt merge, and the small dense
// SVD/EVD solvers. Reported flop rates feed the cost-model sanity checks
// in EXPERIMENTS.md.
//
// Threaded-vs-serial cases (BM_*_threads) sweep the tucker::parallel pool
// width. Running with --kernels-json[=PATH] skips the google-benchmark
// harness and instead writes a machine-readable serial/threaded sweep to
// BENCH_kernels.json (default PATH), which CI and later PRs use to track
// the kernel-throughput trajectory. Each row carries both GFLOPS and the
// minimum-traffic GB/s (roofline coordinates: compute-bound kernels should
// sit near the flop peak, memory-bound ones near bandwidth).
// --compare[=PATH] runs the same sweep and diffs it against the committed
// JSON instead of overwriting it, printing per-row speedups -- the
// regression check for kernel work. --levels prints the detected ISA level
// and, for every level this host runs, the sweep's one-thread gemm, syrk
// and packed-TTM rows in fp32 and fp64 with their ratio (paper claim 3);
// those rows are not gated and are written to no file.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "common/flops.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "data/synthetic_matrix.hpp"
#include "lapack/eig.hpp"
#include "lapack/tridiag_eig.hpp"
#include "lapack/qr.hpp"
#include "lapack/svd.hpp"
#include "lapack/tpqrt.hpp"
#include "tensor/sketch.hpp"
#include "tensor/ttm.hpp"

namespace {

using tucker::blas::index_t;
using tucker::blas::Matrix;
using tucker::blas::MatView;

template <class T>
Matrix<T> rand_mat(index_t m, index_t n, std::uint64_t seed) {
  tucker::Rng rng(seed);
  Matrix<T> a(m, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) a(i, j) = rng.normal<T>();
  return a;
}

template <class T>
void BM_gemm(benchmark::State& state) {
  const index_t n = state.range(0);
  auto a = rand_mat<T>(n, n, 1);
  auto b = rand_mat<T>(n, n, 2);
  Matrix<T> c(n, n);
  for (auto _ : state) {
    tucker::blas::gemm(T(1), MatView<const T>(a.view()),
                       MatView<const T>(b.view()), T(0), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK_TEMPLATE(BM_gemm, float)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK_TEMPLATE(BM_gemm, double)->Arg(64)->Arg(128)->Arg(256);

template <class T>
void BM_syrk_gram(benchmark::State& state) {
  // The Gram kernel: m x n short-fat, row-major.
  const index_t m = state.range(0);
  const index_t n = 64 * m;
  auto a = rand_mat<T>(m, n, 3);
  Matrix<T> g(m, m);
  for (auto _ : state) {
    tucker::blas::syrk(T(1), MatView<const T>(a.view()), T(0), g.view());
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(state.iterations() * m * (m + 1) * n);
}
BENCHMARK_TEMPLATE(BM_syrk_gram, float)->Arg(32)->Arg(64);
BENCHMARK_TEMPLATE(BM_syrk_gram, double)->Arg(32)->Arg(64);

template <class T>
void BM_lq_rowmajor(benchmark::State& state) {
  // LQ of a short-fat row-major matrix (the paper's geqr-equivalent path).
  const index_t m = state.range(0);
  const index_t n = 64 * m;
  auto a0 = rand_mat<T>(m, n, 4);
  std::vector<T> tau;
  for (auto _ : state) {
    state.PauseTiming();
    Matrix<T> a = a0;
    state.ResumeTiming();
    tucker::la::gelqf(a.view(), tau);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * m * n);
}
BENCHMARK_TEMPLATE(BM_lq_rowmajor, float)->Arg(32)->Arg(64);
BENCHMARK_TEMPLATE(BM_lq_rowmajor, double)->Arg(32)->Arg(64);

template <class T>
void BM_lq_colmajor(benchmark::State& state) {
  // LQ of a short-fat column-major matrix (the gelq path after
  // redistribution).
  const index_t m = state.range(0);
  const index_t n = 64 * m;
  auto a0 = rand_mat<T>(m, n, 5);
  std::vector<T> buf(static_cast<std::size_t>(m * n));
  std::vector<T> tau;
  for (auto _ : state) {
    state.PauseTiming();
    auto acm = MatView<T>::col_major(buf.data(), m, n);
    tucker::blas::copy(MatView<const T>(a0.view()), acm);
    state.ResumeTiming();
    tucker::la::gelqf(acm, tau);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * m * n);
}
BENCHMARK_TEMPLATE(BM_lq_colmajor, float)->Arg(32)->Arg(64);
BENCHMARK_TEMPLATE(BM_lq_colmajor, double)->Arg(32)->Arg(64);

template <class T>
void BM_tpqrt_triangle_merge(benchmark::State& state) {
  // The butterfly reduction step: merging two n x n triangles.
  const index_t n = state.range(0);
  auto mk = [&](std::uint64_t seed) {
    auto a = rand_mat<T>(n, n, seed);
    std::vector<T> tau;
    tucker::la::geqrf(a.view(), tau);
    return tucker::la::extract_r<T>(a.view());
  };
  auto r0 = mk(6);
  auto b0 = mk(7);
  std::vector<T> tau;
  for (auto _ : state) {
    state.PauseTiming();
    Matrix<T> r = r0;
    Matrix<T> b = b0;
    state.ResumeTiming();
    tucker::la::tpqrt(r.view(), b.view(), tau,
                      tucker::la::Pentagon::kTriangular);
    benchmark::DoNotOptimize(r.data());
  }
}
BENCHMARK_TEMPLATE(BM_tpqrt_triangle_merge, float)->Arg(64)->Arg(128);
BENCHMARK_TEMPLATE(BM_tpqrt_triangle_merge, double)->Arg(64)->Arg(128);

template <class T>
void BM_jacobi_svd(benchmark::State& state) {
  const index_t n = state.range(0);
  auto sigma = tucker::data::geometric_spectrum(n, 1.0, 1e-6);
  auto ad = tucker::data::matrix_with_spectrum(n, n, sigma, 8);
  auto a = tucker::data::round_to<T>(ad);
  for (auto _ : state) {
    auto r = tucker::la::jacobi_svd(MatView<const T>(a.view()));
    benchmark::DoNotOptimize(r.sigma.data());
  }
}
BENCHMARK_TEMPLATE(BM_jacobi_svd, float)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK_TEMPLATE(BM_jacobi_svd, double)->Arg(32)->Arg(64)->Arg(128);

template <class T>
void BM_jacobi_eig(benchmark::State& state) {
  const index_t n = state.range(0);
  auto g0 = rand_mat<T>(n, 4 * n, 9);
  Matrix<T> g(n, n);
  tucker::blas::syrk(T(1), MatView<const T>(g0.view()), T(0), g.view());
  for (auto _ : state) {
    auto r = tucker::la::jacobi_eig(MatView<const T>(g.view()));
    benchmark::DoNotOptimize(r.lambda.data());
  }
}
BENCHMARK_TEMPLATE(BM_jacobi_eig, float)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK_TEMPLATE(BM_jacobi_eig, double)->Arg(32)->Arg(64)->Arg(128);


template <class T>
void BM_tridiag_eig(benchmark::State& state) {
  const index_t n = state.range(0);
  auto g0 = rand_mat<T>(n, 4 * n, 11);
  Matrix<T> g(n, n);
  tucker::blas::syrk(T(1), MatView<const T>(g0.view()), T(0), g.view());
  for (auto _ : state) {
    auto r = tucker::la::tridiag_eig(MatView<const T>(g.view()));
    benchmark::DoNotOptimize(r.lambda.data());
  }
}
BENCHMARK_TEMPLATE(BM_tridiag_eig, float)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK_TEMPLATE(BM_tridiag_eig, double)->Arg(32)->Arg(64)->Arg(128);

// ------------------------------------------------- threaded vs serial

// Args: {size, pool width}. The pool is reconfigured per run so one binary
// sweeps thread counts; results are bitwise-identical across widths by the
// thread_pool.hpp determinism guarantee, so only timing differs.

template <class T>
void BM_gemm_threads(benchmark::State& state) {
  const index_t n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  tucker::parallel::set_max_threads(threads);
  auto a = rand_mat<T>(n, n, 1);
  auto b = rand_mat<T>(n, n, 2);
  Matrix<T> c(n, n);
  for (auto _ : state) {
    tucker::blas::gemm(T(1), MatView<const T>(a.view()),
                       MatView<const T>(b.view()), T(0), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  tucker::parallel::set_max_threads(1);
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK_TEMPLATE(BM_gemm_threads, float)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4});
BENCHMARK_TEMPLATE(BM_gemm_threads, double)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4});

template <class T>
void BM_syrk_threads(benchmark::State& state) {
  const index_t m = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  tucker::parallel::set_max_threads(threads);
  const index_t n = 2 * m;
  auto a = rand_mat<T>(m, n, 3);
  Matrix<T> g(m, m);
  for (auto _ : state) {
    tucker::blas::syrk(T(1), MatView<const T>(a.view()), T(0), g.view());
    benchmark::DoNotOptimize(g.data());
  }
  tucker::parallel::set_max_threads(1);
  state.SetItemsProcessed(state.iterations() * m * (m + 1) * n);
}
BENCHMARK_TEMPLATE(BM_syrk_threads, float)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4});
BENCHMARK_TEMPLATE(BM_syrk_threads, double)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4});

template <class T>
void BM_ttm_threads(benchmark::State& state) {
  const index_t d = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  tucker::parallel::set_max_threads(threads);
  tucker::tensor::Tensor<T> x({d, d, d});
  tucker::Rng rng(4);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<T>();
  auto u = rand_mat<T>(d / 2, d, 5);
  for (auto _ : state) {
    auto y = tucker::tensor::ttm(x, 1, MatView<const T>(u.view()));
    benchmark::DoNotOptimize(y.data());
  }
  tucker::parallel::set_max_threads(1);
  state.SetItemsProcessed(state.iterations() * 2 * (d / 2) * d * d * d);
}
BENCHMARK_TEMPLATE(BM_ttm_threads, float)
    ->Args({160, 1})->Args({160, 2})->Args({160, 4});
BENCHMARK_TEMPLATE(BM_ttm_threads, double)
    ->Args({160, 1})->Args({160, 2})->Args({160, 4});

// ------------------------------------------------- JSON sweep mode

// Best-of-reps wall seconds for fn().
template <class F>
double time_best(F&& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct SweepRow {
  const char* kernel;
  const char* precision;
  index_t size;
  int threads;
  double seconds;
  double gflops;
  /// Minimum-traffic bandwidth: bytes each operand must cross memory at
  /// least once (A + B read, C read+write), over wall time. Together with
  /// gflops this places the kernel on the roofline.
  double gbytes_per_s;
  double speedup_vs_1t;
};

// One call of a sweep kernel on inputs the case owns, with the flops and
// minimum-traffic bytes of that call.
struct KernelCase {
  const char* kernel;
  index_t size;
  double flops;
  double bytes;
  std::function<void()> run;
};

// gemm: n x n x n, sized from cache-resident to memory-spanning so the
// sweep brackets the roofline ridge.
template <class T>
KernelCase gemm_case(index_t n) {
  struct In {
    Matrix<T> a, b, c;
  };
  auto in = std::make_shared<In>(
      In{rand_mat<T>(n, n, 1), rand_mat<T>(n, n, 2), Matrix<T>(n, n)});
  return {"gemm", n, 2.0 * n * n * n, sizeof(T) * (2.0 * n * n + 2.0 * n * n),
          [in] {
            tucker::blas::gemm(T(1), MatView<const T>(in->a.view()),
                               MatView<const T>(in->b.view()), T(0),
                               in->c.view());
          }};
}

// syrk: m x m Gram of an m x 2m unfolding.
template <class T>
KernelCase syrk_case() {
  const index_t m = 1024, n = 2 * m;
  struct In {
    Matrix<T> a, g;
  };
  auto in = std::make_shared<In>(In{rand_mat<T>(m, n, 3), Matrix<T>(m, m)});
  return {"syrk", m, static_cast<double>(m) * (m + 1) * n,
          sizeof(T) * (static_cast<double>(m) * n +
                       2.0 * static_cast<double>(m) * m),
          [in] {
            tucker::blas::syrk(T(1), MatView<const T>(in->a.view()), T(0),
                               in->g.view());
          }};
}

// ttm: mode-1 product of a d^3 cube with a (d/2 x d) factor, into a
// recycled output tensor (the sthosvd steady-state pattern).
template <class T>
KernelCase ttm_case() {
  const index_t d = 160;
  struct In {
    tucker::tensor::Tensor<T> x, y;
    Matrix<T> u;
  };
  auto in = std::make_shared<In>();
  in->x = tucker::tensor::Tensor<T>({d, d, d});
  tucker::Rng rng(4);
  for (index_t i = 0; i < in->x.size(); ++i)
    in->x.data()[i] = rng.normal<T>();
  in->u = rand_mat<T>(d / 2, d, 5);
  return {"ttm", d, 2.0 * (d / 2) * d * d * d,
          sizeof(T) * (static_cast<double>(d) * d * d +
                       static_cast<double>(d / 2) * d * d +
                       static_cast<double>(d / 2) * d),
          [in] {
            tucker::tensor::ttm_into(in->x, 1, MatView<const T>(in->u.view()),
                                     in->y);
            benchmark::DoNotOptimize(in->y.data());
          }};
}

// The randomized engine's three unfolding kernels on the mode-1 unfolding
// of a d^3 cube at width 24: sketch (the factorization kernel; Omega is
// generated on the fly, so the byte count is the streamed-gemm model from
// flops::sketch_bytes), power (one X X^T W multiply, which streams X
// twice) and projgram (the projected Gram of B = Q^T X, X once).
template <class T>
std::vector<KernelCase> rand_cases() {
  const index_t d = 160, wid = 24;
  struct In {
    tucker::tensor::Tensor<T> x;
    Matrix<T> s, q, out, g;
  };
  auto in = std::make_shared<In>();
  in->x = tucker::tensor::Tensor<T>({d, d, d});
  tucker::Rng rng(6);
  for (index_t i = 0; i < in->x.size(); ++i)
    in->x.data()[i] = rng.normal<T>();
  in->s = Matrix<T>(d, wid);
  in->q = rand_mat<T>(d, wid, 7);
  in->out = Matrix<T>(d, wid);
  in->g = Matrix<T>(wid, wid);
  const auto cols = static_cast<std::int64_t>(d) * d;
  const auto bytes = static_cast<double>(
      tucker::flops::sketch_bytes(d, cols, wid, sizeof(T)));
  return {
      {"sketch", d,
       static_cast<double>(tucker::flops::gaussian_sketch(d, cols, wid)),
       bytes,
       [in] {
         tucker::tensor::sketch_unfolding_cols(in->x, 1, 0x5eedULL, 0, wid,
                                               in->s.view());
         benchmark::DoNotOptimize(in->s.data());
       }},
      {"power", d,
       static_cast<double>(tucker::flops::power_iteration(d, cols, wid)),
       2 * bytes,
       [in] {
         tucker::tensor::unfolding_aat_multiply(in->x, 1, in->q.cview(),
                                                in->out.view());
         benchmark::DoNotOptimize(in->out.data());
       }},
      {"projgram", d,
       static_cast<double>(tucker::flops::projected_gram(d, cols, wid)),
       bytes,
       [in] {
         tucker::tensor::projected_gram(in->x, 1, in->q.cview(),
                                        in->g.view());
         benchmark::DoNotOptimize(in->g.data());
       }}};
}

void sweep_case(std::vector<SweepRow>& rows, const char* prec,
                const KernelCase& kc) {
  double base = 0;
  for (int w : {1, 2, 4}) {
    tucker::parallel::set_max_threads(w);
    const double s = time_best(kc.run, 2);
    if (w == 1) base = s;
    rows.push_back({kc.kernel, prec, kc.size, w, s, kc.flops / s * 1e-9,
                    kc.bytes / s * 1e-9, base / s});
  }
}

template <class T>
void sweep_kernels(std::vector<SweepRow>& rows, const char* prec) {
  for (const index_t n : {index_t{256}, index_t{512}, index_t{1024}})
    sweep_case(rows, prec, gemm_case<T>(n));
  sweep_case(rows, prec, syrk_case<T>());
  sweep_case(rows, prec, ttm_case<T>());
  for (const KernelCase& kc : rand_cases<T>()) sweep_case(rows, prec, kc);
}

void run_sweep(std::vector<SweepRow>& rows) {
  sweep_kernels<float>(rows, "float");
  sweep_kernels<double>(rows, "double");
}

// --levels: the sweep's one-thread gemm (1024), syrk and packed-TTM rows at
// every ISA level this host runs, fp32 against fp64. Each GF/s is the best
// of five calls, with the levels interleaved call by call so machine noise
// lands on every level alike.
int run_levels() {
  namespace mk = tucker::blas::detail;
  const mk::KernelVariant saved = mk::kernel_variant();
  std::vector<mk::KernelVariant> levels = mk::supported_kernel_variants();
  levels.erase(levels.begin());  // the scalar oracle is not a level
  tucker::parallel::set_max_threads(1);
  std::printf("detected ISA level: %s\n",
              mk::kernel_variant_name(mk::detected_kernel_variant()));
  std::printf("%-6s %5s %-8s | %8s %8s | %9s\n", "kernel", "size", "level",
              "fp32 GF", "fp64 GF", "fp32/fp64");
  auto show = [&](const KernelCase& f32, const KernelCase& f64) {
    std::vector<double> s32(levels.size(), 1e300), s64(levels.size(), 1e300);
    for (int rep = 0; rep < 5; ++rep)
      for (std::size_t l = 0; l < levels.size(); ++l) {
        mk::set_kernel_variant(levels[l]);
        s32[l] = std::min(s32[l], time_best(f32.run, 1));
        s64[l] = std::min(s64[l], time_best(f64.run, 1));
      }
    for (std::size_t l = 0; l < levels.size(); ++l) {
      const double g32 = f32.flops / s32[l] * 1e-9;
      const double g64 = f64.flops / s64[l] * 1e-9;
      std::printf("%-6s %5lld %-8s | %8.2f %8.2f | %8.2fx\n", f32.kernel,
                  static_cast<long long>(f32.size),
                  mk::kernel_variant_name(levels[l]), g32, g64, g32 / g64);
    }
  };
  show(gemm_case<float>(1024), gemm_case<double>(1024));
  show(syrk_case<float>(), syrk_case<double>());
  show(ttm_case<float>(), ttm_case<double>());
  mk::set_kernel_variant(saved);
  return 0;
}

// ------------------------------------------------- TTM engine sweep

// Packed-vs-reference TTM rows on the truncation-dominant shapes (short-fat
// U^T factors on an anisotropic tensor): one row per (mode, rank, engine,
// thread width). `size` carries the rank; speedup_vs_ref is the
// reference/packed time ratio (1.0 on reference rows). Written to
// BENCH_ttm.json by --ttm-json and gated by --compare-ttm --fail-under.
struct TtmRow {
  std::string kernel;  // "ttm<mode>_packed" / "ttm<mode>_ref"
  const char* precision;
  index_t size;  // truncation rank
  int threads;
  double seconds;
  double gflops;
  double gbytes_per_s;
  double speedup_vs_ref;
};

template <class T>
void sweep_ttm(std::vector<TtmRow>& rows, const char* prec) {
  // Large enough that the tensor streams from DRAM (the regime the packed
  // engine targets): 78 MB in double, 39 MB in float.
  const tucker::tensor::Dims dims = {384, 160, 160};
  tucker::tensor::Tensor<T> x(dims);
  tucker::Rng rng(12);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<T>();
  tucker::tensor::Tensor<T> y;
  const double xsz = static_cast<double>(x.size());
  for (std::size_t mode = 0; mode < dims.size(); ++mode) {
    const double other = xsz / static_cast<double>(dims[mode]);
    for (const index_t rank : {index_t{8}, index_t{32}}) {
      // The ST-HOSVD truncation operand: U = F^T via a transposed view.
      auto f = rand_mat<T>(dims[mode], rank, 13 + mode);
      auto ut = MatView<const T>(f.view().t());
      const double flops = 2.0 * rank * dims[mode] * other;
      const double bytes =
          sizeof(T) * (xsz + rank * other + rank * dims[mode]);
      for (int w : {1, 2}) {
        tucker::parallel::set_max_threads(w);
        // Interleave the engines rep by rep so transient machine noise
        // lands on both sides of the ratio equally, and keep the best rep
        // of each. The reference rows time the per-block gemm oracle.
        auto time_once = [&](bool reference) {
          return time_best(
              [&] {
                if (reference) {
                  tucker::tensor::detail::ttm_reference_into(x, mode, ut, y);
                } else {
                  tucker::tensor::ttm_into(x, mode, ut, y);
                }
                benchmark::DoNotOptimize(y.data());
              },
              1);
        };
        double ref_s = 1e300, pk_s = 1e300;
        for (int rep = 0; rep < 5; ++rep) {
          ref_s = std::min(ref_s, time_once(true));
          pk_s = std::min(pk_s, time_once(false));
        }
        const std::string m = std::to_string(mode);
        rows.push_back({"ttm" + m + "_ref", prec, rank, w, ref_s,
                        flops / ref_s * 1e-9, bytes / ref_s * 1e-9, 1.0});
        rows.push_back({"ttm" + m + "_packed", prec, rank, w, pk_s,
                        flops / pk_s * 1e-9, bytes / pk_s * 1e-9,
                        ref_s / pk_s});
      }
    }
  }
  tucker::parallel::set_max_threads(1);
}

void run_ttm_sweep(std::vector<TtmRow>& rows) {
  sweep_ttm<float>(rows, "float");
  sweep_ttm<double>(rows, "double");
}

// JSON writer and baseline gate live after the compare-mode section (they
// reuse load_baseline / BaselineRow).

int run_json_sweep(const std::string& path) {
  std::vector<SweepRow> rows;
  run_sweep(rows);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"max_threads_default\": %d,\n  \"results\": [\n",
               tucker::parallel::max_threads());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"precision\": \"%s\", "
                 "\"size\": %lld, \"threads\": %d, \"seconds\": %.6f, "
                 "\"gflops\": %.3f, \"gbytes_per_s\": %.3f, "
                 "\"speedup_vs_1t\": %.3f}%s\n",
                 r.kernel, r.precision, static_cast<long long>(r.size),
                 r.threads, r.seconds, r.gflops, r.gbytes_per_s,
                 r.speedup_vs_1t, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
  return 0;
}

// ------------------------------------------------------------ compare mode

struct BaselineRow {
  char kernel[32];
  char precision[16];
  long long size;
  int threads;
  double gflops;
};

// Parses the rows of a BENCH_kernels.json written by run_json_sweep (one
// object per line). Tolerates the pre-roofline schema (no gbytes_per_s).
std::vector<BaselineRow> load_baseline(const std::string& path) {
  std::vector<BaselineRow> rows;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return rows;
  char line[512];
  while (std::fgets(line, sizeof(line), f)) {
    BaselineRow r{};
    const char* k = std::strstr(line, "\"kernel\": \"");
    const char* p = std::strstr(line, "\"precision\": \"");
    const char* s = std::strstr(line, "\"size\": ");
    const char* t = std::strstr(line, "\"threads\": ");
    const char* g = std::strstr(line, "\"gflops\": ");
    if (!k || !p || !s || !t || !g) continue;
    if (std::sscanf(k, "\"kernel\": \"%31[^\"]", r.kernel) != 1) continue;
    if (std::sscanf(p, "\"precision\": \"%15[^\"]", r.precision) != 1)
      continue;
    if (std::sscanf(s, "\"size\": %lld", &r.size) != 1) continue;
    if (std::sscanf(t, "\"threads\": %d", &r.threads) != 1) continue;
    if (std::sscanf(g, "\"gflops\": %lf", &r.gflops) != 1) continue;
    rows.push_back(r);
  }
  std::fclose(f);
  return rows;
}

// fail_under <= 0 disables the gate; otherwise any matched row's
// new/baseline GFLOPS ratio below it makes the run fail (exit 2) -- the CI
// kernel-regression check.
int run_compare(const std::string& path, double fail_under) {
  const auto base = load_baseline(path);
  if (base.empty()) {
    std::fprintf(stderr, "no baseline rows in %s\n", path.c_str());
    return 1;
  }
  std::vector<SweepRow> rows;
  run_sweep(rows);
  std::printf("%-6s %-7s %6s %3s | %9s %9s | %9s %7s\n", "kernel", "prec",
              "size", "thr", "base GF", "new GF", "new GB/s", "ratio");
  int matched = 0;
  double worst = 1e300;
  for (const auto& r : rows) {
    const BaselineRow* b = nullptr;
    for (const auto& cand : base)
      if (std::strcmp(cand.kernel, r.kernel) == 0 &&
          std::strcmp(cand.precision, r.precision) == 0 &&
          cand.size == r.size && cand.threads == r.threads)
        b = &cand;
    if (!b) continue;
    ++matched;
    const double ratio = r.gflops / b->gflops;
    worst = std::min(worst, ratio);
    std::printf("%-6s %-7s %6lld %3d | %9.3f %9.3f | %9.3f %6.2fx\n",
                r.kernel, r.precision, static_cast<long long>(r.size),
                r.threads, b->gflops, r.gflops, r.gbytes_per_s, ratio);
  }
  if (matched == 0) {
    std::fprintf(stderr, "no rows matched the baseline schema\n");
    return 1;
  }
  std::printf("%d rows compared; worst ratio %.2fx\n", matched, worst);
  if (fail_under > 0 && worst < fail_under) {
    std::fprintf(stderr, "worst ratio %.2fx below --fail-under=%.2f\n",
                 worst, fail_under);
    return 2;
  }
  return 0;
}

int run_ttm_json(const std::string& path) {
  std::vector<TtmRow> rows;
  run_ttm_sweep(rows);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"max_threads_default\": %d,\n  \"results\": [\n",
               tucker::parallel::max_threads());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"precision\": \"%s\", "
                 "\"size\": %lld, \"threads\": %d, \"seconds\": %.6f, "
                 "\"gflops\": %.3f, \"gbytes_per_s\": %.3f, "
                 "\"speedup_vs_ref\": %.3f}%s\n",
                 r.kernel.c_str(), r.precision,
                 static_cast<long long>(r.size), r.threads, r.seconds,
                 r.gflops, r.gbytes_per_s, r.speedup_vs_ref,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
  return 0;
}

// Same gate semantics as run_compare, against a BENCH_ttm.json baseline
// (load_baseline already tolerates the extra speedup_vs_ref field).
int run_ttm_compare(const std::string& path, double fail_under) {
  const auto base = load_baseline(path);
  if (base.empty()) {
    std::fprintf(stderr, "no baseline rows in %s\n", path.c_str());
    return 1;
  }
  std::vector<TtmRow> rows;
  run_ttm_sweep(rows);
  std::printf("%-12s %-7s %5s %3s | %9s %9s | %9s %7s\n", "kernel", "prec",
              "rank", "thr", "base GF", "new GF", "new GB/s", "ratio");
  int matched = 0;
  double worst = 1e300;
  for (const auto& r : rows) {
    const BaselineRow* b = nullptr;
    for (const auto& cand : base)
      if (r.kernel == cand.kernel &&
          std::strcmp(cand.precision, r.precision) == 0 &&
          cand.size == r.size && cand.threads == r.threads)
        b = &cand;
    if (!b) continue;
    ++matched;
    const double ratio = r.gflops / b->gflops;
    worst = std::min(worst, ratio);
    std::printf("%-12s %-7s %5lld %3d | %9.3f %9.3f | %9.3f %6.2fx\n",
                r.kernel.c_str(), r.precision, static_cast<long long>(r.size),
                r.threads, b->gflops, r.gflops, r.gbytes_per_s, ratio);
  }
  if (matched == 0) {
    std::fprintf(stderr, "no rows matched the baseline schema\n");
    return 1;
  }
  std::printf("%d rows compared; worst ratio %.2fx\n", matched, worst);
  if (fail_under > 0 && worst < fail_under) {
    std::fprintf(stderr, "worst ratio %.2fx below --fail-under=%.2f\n", worst,
                 fail_under);
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double fail_under = 0;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--fail-under=", 13) == 0)
      fail_under = std::atof(argv[i] + 13);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--kernels-json", 14) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return run_json_sweep(eq ? eq + 1 : "BENCH_kernels.json");
    }
    if (std::strncmp(argv[i], "--ttm-json", 10) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return run_ttm_json(eq ? eq + 1 : "BENCH_ttm.json");
    }
    // Note: matched before the "--compare" prefix below.
    if (std::strncmp(argv[i], "--compare-ttm", 13) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return run_ttm_compare(eq ? eq + 1 : "BENCH_ttm.json", fail_under);
    }
    if (std::strncmp(argv[i], "--compare", 9) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return run_compare(eq ? eq + 1 : "BENCH_kernels.json", fail_under);
    }
    if (std::strcmp(argv[i], "--levels") == 0) return run_levels();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
