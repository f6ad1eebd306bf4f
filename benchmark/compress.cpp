// Compress workloads: one core::sthosvd call at a time on a seeded synthetic
// tensor (a closed loop with one caller). Untraced runs time the library
// call itself. Traced runs re-run its mode loop through the public calls
// core::sthosvd makes per mode, with a span around each, and prove that the
// replay computes the same bits -- so the spans time the computation that
// latency_ms times.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "blas/gemm.hpp"
#include "common.hpp"
#include "common/flops.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "core/sthosvd.hpp"
#include "core/svd_engine.hpp"
#include "core/truncation.hpp"
#include "data/synthetic_tensor.hpp"
#include "lapack/qr.hpp"
#include "lapack/tridiag_eig.hpp"
#include "tensor/gram.hpp"
#include "tensor/sketch.hpp"
#include "tensor/tensor_lq.hpp"
#include "tensor/ttm.hpp"

namespace bench {
namespace {

using tucker::Accum;
using tucker::blas::index_t;
using tucker::tensor::Tensor;
namespace blas = tucker::blas;
namespace core = tucker::core;
namespace data = tucker::data;
namespace la = tucker::la;
namespace parallel = tucker::parallel;
namespace tensor = tucker::tensor;

struct Workload {
  const char* name;
  bool single;  // fp32 working precision (fp64 otherwise)
  core::SvdMethod method;
  double tolerance;  // 0 selects the video tensor at fixed ranks
};

constexpr Workload kWorkloads[] = {
    {"hcci_qr_single", true, core::SvdMethod::kQr, 1e-4},
    {"hcci_gram_double", false, core::SvdMethod::kGram, 1e-4},
    {"video_rand_single", true, core::SvdMethod::kRand, 0},
};

constexpr int kSetupReps = 3;
constexpr double kWarmupS = 2.0;
constexpr std::size_t kTracedReps = 3;

Tensor<double> generate(const Workload& w, const Args& a) {
  if (w.tolerance == 0) return data::video_like(a.smoke ? 0.4 : 1.5, a.seed);
  return data::hcci_like(a.smoke ? 0.3 : 1.0, a.seed);
}

struct Job {
  core::TruncationSpec spec;
  core::SvdMethod method;
  core::RandSvdOptions ropt;  // defaults: oversample 8, 1 power iteration
};

Job make_job(const Workload& w, const tensor::Dims& dims) {
  Job j;
  j.method = w.method;
  j.spec = w.tolerance > 0 ? core::TruncationSpec::tolerance(w.tolerance)
                           : core::TruncationSpec::fixed_ranks(video_ranks(dims));
  return j;
}

template <class T>
core::SthosvdResult<T> compress_once(const Tensor<T>& x, const Job& job) {
  return core::sthosvd(x, job.spec, job.method, core::forward_order(x.order()),
                       job.ropt, Accum::kNative);
}

template <class T>
bool same_bits(const core::SthosvdResult<T>& a, const core::SthosvdResult<T>& b) {
  const auto& ta = a.tucker;
  const auto& tb = b.tucker;
  if (a.ranks != b.ranks || ta.core.dims() != tb.core.dims() ||
      ta.factors.size() != tb.factors.size())
    return false;
  if (std::memcmp(ta.core.data(), tb.core.data(),
                  sizeof(T) * static_cast<std::size_t>(ta.core.size())) != 0)
    return false;
  for (std::size_t n = 0; n < ta.factors.size(); ++n) {
    const auto& fa = ta.factors[n];
    const auto& fb = tb.factors[n];
    if (fa.rows() != fb.rows() || fa.cols() != fb.cols() ||
        std::memcmp(fa.data(), fb.data(),
                    sizeof(T) * static_cast<std::size_t>(fa.rows() * fa.cols())) != 0)
      return false;
  }
  return true;
}

/// ||X - Xhat|| / ||X|| against the fp64 original, Xhat reconstructed in
/// working precision.
template <class T>
double true_error(const Tensor<double>& x, const core::TuckerTensor<T>& tk) {
  const Tensor<T> xhat = tk.reconstruct();
  double diff = 0, ref = 0;
  for (index_t i = 0; i < x.size(); ++i) {
    const double d = x.data()[i] - static_cast<double>(xhat.data()[i]);
    diff += d * d;
    ref += x.data()[i] * x.data()[i];
  }
  return ref > 0 ? std::sqrt(diff / ref) : 0;
}

// ------------------------------------------------------------------ replay

// The phase spans of a mode; the per-layer metrics take their names.
enum : std::size_t { kLq, kGram, kRandSvd, kSmallSvd, kTtm, kNumPhases };
constexpr std::array<const char*, kNumPhases> kPhases = {
    "tensor.lq", "tensor.gram", "core.rand_svd", "la.small_svd", "tensor.ttm"};
constexpr std::array<const char*, 8> kModeSpans = {
    "mode0", "mode1", "mode2", "mode3", "mode4", "mode5", "mode6", "mode7"};

/// core::sthosvd (forward order, Accum::kNative) through the public calls
/// its mode loop makes -- QR: tensor_lq + svd_of_l; Gram: the two calls of
/// core::gram_svd; Rand: core::rand_svd whole -- then rank selection and
/// the truncation TTM. Spans compress -> mode{k} -> phase.
template <class T>
core::SthosvdResult<T> replay(const Tensor<T>& x, const Job& job, Trace& tr) {
  Trace::Scope all(tr, "compress", -1);
  const std::size_t nmodes = x.order();
  const auto& spec = job.spec;
  core::SthosvdResult<T> out;
  out.order = core::forward_order(nmodes);
  out.mode_sigmas.resize(nmodes);
  out.ranks.assign(nmodes, 0);
  out.norm_squared = x.norm_squared();
  const double threshold_sq =
      spec.is_fixed_rank() ? 0
                           : spec.epsilon * spec.epsilon * out.norm_squared /
                                 static_cast<double>(nmodes);

  auto& pp = tucker::Workspace::local().stash<std::array<Tensor<T>, 2>>(
      "core.sthosvd.pingpong");
  const Tensor<T>* ycur = &x;
  int slot = 0;
  out.tucker.factors.resize(nmodes);
  for (std::size_t n : out.order) {
    const Tensor<T>& y = *ycur;
    Trace::Scope mode(tr, kModeSpans.at(n), all.id());
    core::ModeSvd<T> svd;
    switch (job.method) {
      case core::SvdMethod::kQr: {
        blas::Matrix<T> l;
        {
          Trace::Scope s(tr, kPhases[kLq], mode.id());
          l = tensor::tensor_lq(y, n);
        }
        Trace::Scope s(tr, kPhases[kSmallSvd], mode.id());
        svd = core::svd_of_l(std::move(l), core::SmallSvdBackend::kAuto,
                             Accum::kNative);
        break;
      }
      case core::SvdMethod::kGram: {
        blas::Matrix<T> g;
        {
          Trace::Scope s(tr, kPhases[kGram], mode.id());
          g = tensor::gram_of_unfolding(y, n, Accum::kNative);
        }
        Trace::Scope s(tr, kPhases[kSmallSvd], mode.id());
        auto eig = la::tridiag_eig(blas::MatView<const T>(g.view()));
        for (T lam : eig.lambda) svd.sigma_sq.push_back(std::abs(lam));
        svd.u = std::move(eig.v);
        break;
      }
      case core::SvdMethod::kRand: {
        Trace::Scope s(tr, kPhases[kRandSvd], mode.id());
        svd = core::rand_svd(y, n,
                             spec.is_fixed_rank() ? spec.ranks[n] : index_t{0},
                             threshold_sq, job.ropt, Accum::kNative);
        break;
      }
      case core::SvdMethod::kStream:
        TUCKER_CHECK(false, "replay: no workload runs the stream engine");
    }

    std::vector<T>& sig = out.mode_sigmas[n];
    sig.resize(svd.sigma_sq.size());
    for (std::size_t i = 0; i < sig.size(); ++i)
      sig[i] = std::sqrt(svd.sigma_sq[i]);
    const index_t r =
        spec.is_fixed_rank()
            ? std::min(spec.ranks[n], svd.u.cols())
            : std::min(core::select_rank(svd.sigma_sq, threshold_sq),
                       svd.u.cols());
    out.ranks[n] = r;

    blas::Matrix<T> u(y.dim(n), r);
    blas::copy(blas::MatView<const T>(svd.u.view().block(0, 0, y.dim(n), r)),
               u.view());
    {
      Trace::Scope s(tr, kPhases[kTtm], mode.id());
      tensor::ttm_into(y, n, blas::MatView<const T>(u.view().t()), pp[slot],
                       Accum::kNative);
    }
    ycur = &pp[static_cast<std::size_t>(slot)];
    slot ^= 1;
    out.tucker.factors[n] = std::move(u);
  }
  out.tucker.core = *ycur;
  return out;
}

/// What one replay recorded, read back from its spans.
struct RepStats {
  double total = 0;
  std::array<double, kNumPhases> phase_s{};
  std::array<std::int64_t, kNumPhases> phase_flops{};
  std::vector<double> mode_s;
  std::int64_t flops = 0;
  std::int64_t bytes = 0;
};

RepStats stats_since(const Trace& tr, std::size_t first) {
  RepStats st;
  const auto& spans = tr.spans();
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double d = s.t1 - s.t0;
    if (std::strcmp(s.name, "compress") == 0) {
      st.total = d;
      st.flops = s.flops;
      st.bytes = s.bytes;
    } else if (std::strncmp(s.name, "mode", 4) == 0) {
      st.mode_s.push_back(d);
    } else {
      for (std::size_t p = 0; p < kNumPhases; ++p) {
        if (std::strcmp(s.name, kPhases[p]) == 0) {
          st.phase_s[p] += d;
          st.phase_flops[p] += s.flops;
        }
      }
    }
  }
  return st;
}

/// Median seconds and the flops of one call of a kernel reference.
template <class F>
std::pair<double, std::int64_t> time_kernel(int reps, F&& f) {
  std::vector<double> t;
  std::int64_t flops = 0;
  for (int r = 0; r < reps; ++r) {
    tucker::FlopScope fs;
    const double t0 = now_s();
    f();
    t.push_back(now_s() - t0);
    flops = fs.flops();
  }
  return {median(t), flops};
}

double gflops(std::int64_t flops, double s) {
  return s > 0 ? static_cast<double>(flops) / s / 1e9 : 0;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// The randomized engine's three unfolding kernels, called directly on the
/// input's mode-0 unfolding at the sketch width rand_svd uses there: the
/// per-kernel split of core.rand_svd_s, measured where most of it is spent.
template <class T>
void rand_kernels(const Tensor<T>& x, const Job& job, Report& rep) {
  const index_t m = x.dim(0);
  const index_t w =
      std::min({m, x.size() / m, job.spec.ranks[0] + job.ropt.oversample});
  blas::Matrix<T> s(m, w), q(m, w), out(m, w), g(w, w);
  const std::uint64_t stream = tucker::substream(job.ropt.seed, 0);
  auto sketch = [&] {
    tensor::sketch_unfolding_cols(x, 0, stream, 0, w, s.view(), Accum::kNative);
  };
  const auto [sketch_s, sketch_f] = time_kernel(3, sketch);
  const int full = parallel::max_threads();
  parallel::set_max_threads(1);
  const double sketch_1t = time_kernel(1, sketch).first;
  parallel::set_max_threads(full);
  std::vector<T> tau;
  la::geqrf(s.view(), tau);
  la::form_q_into(s.cview(), tau, q.view());
  const double power_s = time_kernel(3, [&] {
                           tensor::unfolding_aat_multiply(
                               x, 0, q.cview(), out.view(), Accum::kNative);
                         }).first;
  const double projgram_s = time_kernel(3, [&] {
                              tensor::projected_gram(x, 0, q.cview(), g.view(),
                                                     Accum::kNative);
                            }).first;
  rep.metric("tensor.sketch_s", sketch_s);
  rep.metric("tensor.sketch_gflops", gflops(sketch_f, sketch_s));
  rep.metric("tensor.sketch_speedup_4t", ratio(sketch_1t, sketch_s));
  rep.metric("tensor.power_s", power_s);
  rep.metric("tensor.projgram_s", projgram_s);
}

template <class T>
void traced_layers(const Workload& w, const Args& a, const Tensor<T>& x,
                   const Job& job, const core::SthosvdResult<T>& ref,
                   double compress_s, Report& rep) {
  Trace tr(1 << 14);
  // The arena high water of the replays alone: set-up, the timed calls and
  // verification have already grown the benchmark thread's arena.
  tucker::Workspace::local().reset_high_water();
  std::vector<RepStats> reps;
  for (std::size_t r = 0; r < kTracedReps; ++r) {
    const std::size_t first = tr.spans().size();
    const auto res = replay(x, job, tr);
    if (!same_bits(res, ref))
      rep.gate_failed("traced replay differs from core::sthosvd");
    reps.push_back(stats_since(tr, first));
  }
  rep.metric("common.arena_high_water_mb",
             static_cast<double>(tucker::Workspace::local().high_water()) /
                 (1 << 20));
  // The plain single-threaded run of the same problem: the *_speedup_4t base.
  const int full = parallel::max_threads();
  parallel::set_max_threads(1);
  const std::size_t first1 = tr.spans().size();
  const auto res1 = replay(x, job, tr);
  const RepStats one = stats_since(tr, first1);
  parallel::set_max_threads(full);
  if (!same_bits(res1, ref))
    rep.gate_failed("single-threaded replay differs from core::sthosvd");
  if (tr.dropped() > 0) rep.gate_failed("trace capacity exceeded");

  auto med = [&](auto field) {
    std::vector<double> v;
    for (const auto& s : reps) v.push_back(field(s));
    return median(v);
  };
  const double total = med([](const RepStats& s) { return s.total; });
  double phase_sum = 0;
  std::array<double, kNumPhases> ps{};
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    ps[p] = med([p](const RepStats& s) { return s.phase_s[p]; });
    phase_sum += ps[p];
  }
  const double glue = med([](const RepStats& s) {
    return s.total - std::accumulate(s.phase_s.begin(), s.phase_s.end(), 0.0);
  });
  for (std::size_t k = 0; k < x.order() && k < 4; ++k)
    rep.metric("core.mode" + std::to_string(k) + "_s",
               med([k](const RepStats& s) { return s.mode_s.at(k); }));
  rep.metric("core.glue_s", glue);
  rep.info("replay_total_s", total, "s");
  rep.info("replay_phase_sum_s", phase_sum, "s");
  rep.metric("core.flops", static_cast<double>(reps[0].flops));
  rep.metric("core.bytes", static_cast<double>(reps[0].bytes));
  rep.metric("core.gflops", gflops(reps[0].flops, total));
  rep.metric("trace.overhead_frac", total / compress_s - 1);

  auto phase_gf = [&](std::size_t p) {
    return gflops(reps[0].phase_flops[p], ps[p]);
  };
  for (std::size_t p : {kLq, kGram, kTtm}) {
    const std::string base = kPhases[p];
    rep.metric(base + "_s", ps[p]);
    rep.metric(base + "_gflops", phase_gf(p));
    rep.metric(base + "_speedup_4t", ratio(one.phase_s[p], ps[p]));
  }
  rep.metric("core.rand_svd_s", ps[kRandSvd]);
  rep.metric("la.small_svd_s", ps[kSmallSvd]);
  if (w.method == core::SvdMethod::kRand) rand_kernels(x, job, rep);

  // Kernel reference rates at the mode-0 shape, precision and width.
  const auto x0 = tensor::unfolding_mode0(x);
  const index_t m0 = x0.rows(), cols0 = x0.cols();
  double syrk_gf = 0;
  if (w.method != core::SvdMethod::kRand) {
    blas::Matrix<T> g(m0, m0);
    const auto [s, f] = time_kernel(3, [&] {
      blas::syrk(T(1), x0, T(0), g.view());
    });
    syrk_gf = gflops(f, s);
  }
  double gelqf_gf = 0;
  if (w.method == core::SvdMethod::kQr) {
    std::vector<T> buf(static_cast<std::size_t>(m0 * cols0));
    std::vector<T> tau;
    auto work = blas::MatView<T>::row_major(buf.data(), m0, cols0);
    std::vector<double> t;
    std::int64_t f = 0;
    for (int r = 0; r < 3; ++r) {
      blas::copy(x0, work);
      tucker::FlopScope fs;
      const double t0 = now_s();
      la::gelqf(work, tau);
      t.push_back(now_s() - t0);
      f = fs.flops();
    }
    gelqf_gf = gflops(f, median(t));
  }
  const auto& u0 = ref.tucker.factors[0];
  blas::Matrix<T> ct(cols0, u0.cols());
  const auto [gemm_s, gemm_f] = time_kernel(3, [&] {
    blas::gemm(T(1), blas::MatView<const T>(x0.t()), u0.cview(), T(0),
               ct.view());
  });
  const double gemm_gf = gflops(gemm_f, gemm_s);
  rep.metric("blas.syrk_gflops", syrk_gf);
  rep.metric("la.gelqf_gflops", gelqf_gf);
  rep.metric("blas.gemm_gflops", gemm_gf);
  rep.metric("tensor.lq_vs_syrk", ratio(syrk_gf, phase_gf(kLq)));
  rep.metric("tensor.gram_vs_syrk", ratio(syrk_gf, phase_gf(kGram)));
  rep.metric("tensor.ttm_vs_gemm", ratio(gemm_gf, phase_gf(kTtm)));

  const std::string path = a.out_dir + "/trace_" + w.name + ".json";
  tr.write_chrome(path);
  rep.meta("trace_file", path);
}

template <class T>
void run_workload(const Workload& w, const Args& a, Report& rep) {
  // Set-up (generate in fp64, round to the working precision), repeated so
  // setup_s is a median. Each repetition frees the previous inputs first.
  std::vector<double> setup, gen;
  Tensor<double> x64;
  Tensor<T> xround;
  for (int i = 0; i < kSetupReps; ++i) {
    x64 = Tensor<double>();
    xround = Tensor<T>();
    const double t0 = now_s();
    x64 = generate(w, a);
    gen.push_back(now_s() - t0);
    if constexpr (!std::is_same_v<T, double>)
      xround = data::round_tensor_to<T>(x64);
    setup.push_back(now_s() - t0);
  }
  const Tensor<T>* xp;
  if constexpr (std::is_same_v<T, double>) {
    xp = &x64;
  } else {
    xp = &xround;
  }
  const Tensor<T>& x = *xp;
  const Job job = make_job(w, x.dims());

  // Warm-up: grows the arenas and the ping-pong scratch, spawns the pool.
  // It lasts kWarmupS because on a virtual machine all four threads run
  // slower for the first second or so after the single-threaded set-up.
  // The first call gives the reference bits.
  const double warm_end = now_s() + (a.smoke ? 0 : kWarmupS);
  const auto ref = compress_once(x, job);
  while (now_s() < warm_end)
    if (!same_bits(compress_once(x, job), ref))
      rep.gate_failed("warm-up rep differs from the first");

  // Untraced runs fill --seconds; traced runs time kTracedReps calls, the
  // base of trace.overhead_frac.
  std::vector<double> times;
  std::uint64_t mismatches = 0;
  const double t_end = now_s() + a.seconds;
  for (;;) {
    const double t0 = now_s();
    const auto r = compress_once(x, job);
    times.push_back(now_s() - t0);
    if (!same_bits(r, ref)) ++mismatches;
    if (times.size() >= kTracedReps && (a.trace || now_s() >= t_end)) break;
  }
  const double peak = peak_rss_mib();
  // The median call. On a shared host a whole run can land in a stretch in
  // which every call is slower; over two sets of ten runs the fastest call
  // moved between runs by up to half again as much as the median did.
  const double compress_s = median(times);
  rep.attempted(times.size());
  rep.failed(mismatches);
  if (mismatches > 0) rep.gate_failed("a timed rep differs from the first");

  // Verification, excluded from every timing above. The true error may not
  // exceed the bound sthosvd certified (ST-HOSVD's discarded energies add
  // up to the squared error) by more than rounding.
  const double err = true_error(x64, ref.tucker);
  const double bound = ref.estimated_relative_error();
  if (!(err <= 1.01 * bound))
    rep.gate_failed("rel_error above the certified bound");
  if (w.tolerance > 0 && !(err <= w.tolerance))
    rep.gate_failed("rel_error above tolerance");
  if (w.tolerance == 0 && a.trace) {
    // The sketch must lose little against the deterministic QR-SVD at the
    // same ranks. Checked in traced runs only, to keep timed runs short.
    const auto qr = core::sthosvd(x64, job.spec, core::SvdMethod::kQr,
                                  core::forward_order(x64.order()), {},
                                  Accum::kNative);
    const double err_qr = true_error(x64, qr.tucker);
    rep.info("rel_error_qr_double", err_qr, "ratio");
    if (!(err <= 1.05 * err_qr))
      rep.gate_failed("rel_error above 1.05x the QR-double error");
  }

  auto join = [](const std::vector<index_t>& v) {
    std::string s;
    for (index_t e : v) {
      if (!s.empty()) s += 'x';
      s += std::to_string(e);
    }
    return s;
  };
  rep.meta("input_dims", join(x.dims()));
  rep.meta("input_bytes",
           std::to_string(static_cast<std::size_t>(x.size()) * sizeof(T)));
  rep.meta("precision", std::is_same_v<T, double> ? "fp64" : "fp32");
  rep.meta("method", std::string(core::method_name(w.method)));
  rep.meta("ranks", join(ref.ranks));
  rep.info("compress_reps", static_cast<double>(times.size()), "count");
  rep.info("compress_min_s", *std::min_element(times.begin(), times.end()), "s");
  rep.info("compress_max_s", *std::max_element(times.begin(), times.end()), "s");
  rep.info("compression_ratio", ref.tucker.compression_ratio(), "x");
  rep.info("rel_error", err, "ratio");
  rep.info("estimated_rel_error", bound, "ratio");
  rep.info("error_vs_bound", err / bound, "ratio");

  if (a.trace) {
    rep.metric("data.generate_s", median(gen));
    rep.metric("core.compression_ratio", ref.tucker.compression_ratio());
    traced_layers(w, a, x, job, ref, compress_s, rep);
  } else {
    rep.metric("setup_s", median(setup));
    rep.metric("peak_rss_mb", peak);
    rep.metric("latency_ms", 1e3 * compress_s);
    // One caller, one call at a time on every core: the rate is the
    // latency's inverse.
    rep.metric("ops_per_s", 1 / compress_s);
  }
}

}  // namespace

bool is_compress_workload(const std::string& name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return true;
  return false;
}

void run_compress(const Args& args, Report& rep) {
  for (const auto& w : kWorkloads) {
    if (args.workload != w.name) continue;
    if (w.single) {
      run_workload<float>(w, args, rep);
    } else {
      run_workload<double>(w, args, rep);
    }
  }
}

}  // namespace bench
