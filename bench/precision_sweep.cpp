// Mixed-precision sweep: one row per (kernel, storage/accumulator config,
// thread width) over the compute kernels the accumulator knob touches --
// gemm and syrk (the Gram kernel) -- plus the classic one-sided Jacobi SVD
// as a serial reference for the small-SVD step.
//
// The acceptance number this binary exists to track: wide accumulation
// (fp32 storage, fp64 register tiles) must stay within ~1.15x of
// plain-single gemm/syrk time (the `rel` column on single_wide rows is
// wide seconds / plain-single seconds).
//
// --precision-json[=PATH] writes the sweep to BENCH_precision.json;
// --compare[=PATH] re-runs it and diffs per-row GFLOPS against the
// committed baseline, failing (exit 2) when any matched row's ratio drops
// below --fail-under=X. No flags: print the table.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "lapack/svd.hpp"

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

struct Row {
  std::string kernel;
  /// "double" / "single" / "single_wide" -- storage plus accumulator
  /// choice.
  const char* config;
  int word_bytes;  ///< storage word the kernel loads/stores
  int threads;
  double seconds;
  double gflops;
  /// This config's seconds / the plain-single seconds at the same threads
  /// -- overhead, lower is better (1.0 on the jacobi_classic rows).
  double rel;
};

// ------------------------------------------------------------- gemm/syrk

void sweep_gemm_syrk(std::vector<Row>& rows) {
  const index_t n = 512;
  auto af = rand_mat<float>(n, n, 1);
  auto bf = rand_mat<float>(n, n, 2);
  auto ad = rand_mat<double>(n, n, 1);
  auto bd = rand_mat<double>(n, n, 2);
  Matrix<float> cf(n, n);
  Matrix<double> cd(n, n);
  const double gemm_flops = 2.0 * n * n * n;

  const index_t m = 512, gn = 2 * m;
  auto gaf = rand_mat<float>(m, gn, 3);
  auto gad = rand_mat<double>(m, gn, 3);
  Matrix<float> gf(m, m);
  Matrix<double> gd(m, m);
  const double syrk_flops = static_cast<double>(m) * (m + 1) * gn;

  for (int w : {1, 2, 4}) {
    tucker::parallel::set_max_threads(w);
    const double g_d = time_best(
        [&] {
          tucker::blas::gemm(1.0, MatView<const double>(ad.view()),
                             MatView<const double>(bd.view()), 0.0,
                             cd.view());
        },
        3);
    const double g_s = time_best(
        [&] {
          tucker::blas::gemm(1.0f, MatView<const float>(af.view()),
                             MatView<const float>(bf.view()), 0.0f,
                             cf.view());
        },
        3);
    const double g_w = time_best(
        [&] {
          tucker::blas::gemm<float, double>(
              1.0f, MatView<const float>(af.view()),
              MatView<const float>(bf.view()), 0.0f, cf.view());
        },
        3);
    rows.push_back({"gemm", "double", 8, w, g_d, gemm_flops / g_d * 1e-9,
                    g_d / g_s});
    rows.push_back(
        {"gemm", "single", 4, w, g_s, gemm_flops / g_s * 1e-9, 1.0});
    rows.push_back({"gemm", "single_wide", 4, w, g_w,
                    gemm_flops / g_w * 1e-9, g_w / g_s});

    const double s_d = time_best(
        [&] {
          tucker::blas::syrk(1.0, MatView<const double>(gad.view()), 0.0,
                             gd.view());
        },
        3);
    const double s_s = time_best(
        [&] {
          tucker::blas::syrk(1.0f, MatView<const float>(gaf.view()), 0.0f,
                             gf.view());
        },
        3);
    const double s_w = time_best(
        [&] {
          tucker::blas::syrk<float, double>(
              1.0f, MatView<const float>(gaf.view()), 0.0f, gf.view());
        },
        3);
    rows.push_back({"syrk", "double", 8, w, s_d, syrk_flops / s_d * 1e-9,
                    s_d / s_s});
    rows.push_back(
        {"syrk", "single", 4, w, s_s, syrk_flops / s_s * 1e-9, 1.0});
    rows.push_back({"syrk", "single_wide", 4, w, s_w,
                    syrk_flops / s_w * 1e-9, s_w / s_s});
  }
  tucker::parallel::set_max_threads(1);
}

// The Gram kernel's real shape in ST-HOSVD is short-fat: m = a mode size,
// n = the product of every other mode. A 32 x 524288 float operand is
// 64 MB -- DRAM-resident -- so these rows measure the wide-accum overhead
// in the streaming regime the driver actually runs in, where the extra
// fp64 arithmetic hides behind memory latency far better than on the
// cache-resident 512 x 1024 shape above.
void sweep_gram_stream(std::vector<Row>& rows) {
  const index_t m = 32, n = index_t{1} << 19;
  auto af = rand_mat<float>(m, n, 4);
  auto ad = rand_mat<double>(m, n, 4);
  Matrix<float> gf(m, m);
  Matrix<double> gd(m, m);
  const double flops = static_cast<double>(m) * (m + 1) * n;
  for (int w : {1, 2, 4}) {
    tucker::parallel::set_max_threads(w);
    const double s_d = time_best(
        [&] {
          tucker::blas::syrk(1.0, MatView<const double>(ad.view()), 0.0,
                             gd.view());
        },
        3);
    const double s_s = time_best(
        [&] {
          tucker::blas::syrk(1.0f, MatView<const float>(af.view()), 0.0f,
                             gf.view());
        },
        3);
    const double s_w = time_best(
        [&] {
          tucker::blas::syrk<float, double>(
              1.0f, MatView<const float>(af.view()), 0.0f, gf.view());
        },
        3);
    rows.push_back({"syrk_stream", "double", 8, w, s_d, flops / s_d * 1e-9,
                    s_d / s_s});
    rows.push_back(
        {"syrk_stream", "single", 4, w, s_s, flops / s_s * 1e-9, 1.0});
    rows.push_back({"syrk_stream", "single_wide", 4, w, s_w,
                    flops / s_w * 1e-9, s_w / s_s});
  }
  tucker::parallel::set_max_threads(1);
}

// ----------------------------------------------------------- jacobi svd

// A tall 512 x 64 panel (the svd_of_l operand after LQ preprocessing of a
// wide unfolding). Flop count is the rotation work of the sweeps actually
// taken: k(k-1)/2 pairs per sweep, ~8m flops per pair (one fp dot + two
// column rotations). The classic schedule is serial: one row per config.
template <class T>
void sweep_jacobi_config(std::vector<Row>& rows, const char* config) {
  const index_t m = 512, k = 64;
  auto a0 = rand_mat<double>(m, k, 7);
  Matrix<T> a(m, k);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < k; ++j) a(i, j) = static_cast<T>(a0(i, j));

  int sweeps = 0;
  const double classic = time_best(
      [&] {
        auto r = tucker::la::jacobi_svd(MatView<const T>(a.view()));
        sweeps = r.sweeps;
      },
      3);
  const double flops =
      static_cast<double>(sweeps) * (k * (k - 1) / 2) * 8.0 * m;
  rows.push_back({"jacobi_classic", config, static_cast<int>(sizeof(T)), 1,
                  classic, flops / classic * 1e-9, 1.0});
}

void run_sweep(std::vector<Row>& rows) {
  sweep_gemm_syrk(rows);
  sweep_gram_stream(rows);
  sweep_jacobi_config<double>(rows, "double");
  sweep_jacobi_config<float>(rows, "single");
}

void print_rows(const std::vector<Row>& rows) {
  std::printf("%-14s %-12s %4s %3s | %9s %9s %6s\n", "kernel", "config",
              "word", "thr", "seconds", "GFLOPS", "rel");
  for (const auto& r : rows)
    std::printf("%-14s %-12s %4d %3d | %9.5f %9.3f %6.2f\n",
                r.kernel.c_str(), r.config, r.word_bytes, r.threads,
                r.seconds, r.gflops, r.rel);
}

int run_json(const std::string& path) {
  std::vector<Row> rows;
  run_sweep(rows);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"config\": \"%s\", "
                 "\"word_bytes\": %d, \"threads\": %d, \"seconds\": %.6f, "
                 "\"gflops\": %.3f, \"rel\": %.3f}%s\n",
                 r.kernel.c_str(), r.config, r.word_bytes, r.threads,
                 r.seconds, r.gflops, r.rel, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
  print_rows(rows);
  return 0;
}

// ----------------------------------------------------------- compare mode

struct BaselineRow {
  char kernel[32];
  char config[16];
  int threads;
  double gflops;
};

std::vector<BaselineRow> load_baseline(const std::string& path) {
  std::vector<BaselineRow> rows;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return rows;
  char line[512];
  while (std::fgets(line, sizeof(line), f)) {
    BaselineRow r{};
    const char* k = std::strstr(line, "\"kernel\": \"");
    const char* c = std::strstr(line, "\"config\": \"");
    const char* t = std::strstr(line, "\"threads\": ");
    const char* g = std::strstr(line, "\"gflops\": ");
    if (!k || !c || !t || !g) continue;
    if (std::sscanf(k, "\"kernel\": \"%31[^\"]", r.kernel) != 1) continue;
    if (std::sscanf(c, "\"config\": \"%15[^\"]", r.config) != 1) continue;
    if (std::sscanf(t, "\"threads\": %d", &r.threads) != 1) continue;
    if (std::sscanf(g, "\"gflops\": %lf", &r.gflops) != 1) continue;
    rows.push_back(r);
  }
  std::fclose(f);
  return rows;
}

int run_compare(const std::string& path, double fail_under) {
  const auto base = load_baseline(path);
  if (base.empty()) {
    std::fprintf(stderr, "no baseline rows in %s\n", path.c_str());
    return 1;
  }
  std::vector<Row> rows;
  run_sweep(rows);
  std::printf("%-14s %-12s %3s | %9s %9s | %6s %7s\n", "kernel", "config",
              "thr", "base GF", "new GF", "rel", "ratio");
  int matched = 0;
  double worst = 1e300;
  for (const auto& r : rows) {
    const BaselineRow* b = nullptr;
    for (const auto& cand : base)
      if (r.kernel == cand.kernel && std::strcmp(cand.config, r.config) == 0 &&
          cand.threads == r.threads)
        b = &cand;
    if (!b) continue;
    ++matched;
    const double ratio = r.gflops / b->gflops;
    worst = std::min(worst, ratio);
    std::printf("%-14s %-12s %3d | %9.3f %9.3f | %6.2f %6.2fx\n",
                r.kernel.c_str(), r.config, r.threads, b->gflops, r.gflops,
                r.rel, ratio);
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
    if (std::strncmp(argv[i], "--precision-json", 16) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return run_json(eq ? eq + 1 : "BENCH_precision.json");
    }
    if (std::strncmp(argv[i], "--compare", 9) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return run_compare(eq ? eq + 1 : "BENCH_precision.json", fail_under);
    }
  }
  std::vector<Row> rows;
  run_sweep(rows);
  print_rows(rows);
  return 0;
}
