#pragma once
// Shared harness utilities for the per-figure/table benchmark binaries.
//
// Every binary regenerates one table or figure of the paper: it prints the
// same rows/series the paper reports (per-variant times, GFLOPS, time
// breakdowns, compression/error matrices, singular-value series), using the
// simulated-MPI runtime. Absolute numbers differ from the Andes cluster;
// the shapes are the reproduction target (see EXPERIMENTS.md).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/par_sthosvd.hpp"
#include "core/sthosvd.hpp"
#include "data/synthetic_tensor.hpp"
#include "simmpi/runtime.hpp"

namespace tucker::bench {

using blas::index_t;
using core::SvdMethod;
using core::TruncationSpec;
using tensor::Dims;

// ------------------------------------------------------------------- CLI

/// Minimal --key=value parser (integers and doubles).
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string s = argv[i];
      auto eq = s.find('=');
      if (s.rfind("--", 0) == 0 && eq != std::string::npos)
        kv_[s.substr(2, eq - 2)] = s.substr(eq + 1);
    }
  }
  double get(const std::string& key, double dflt) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : std::atof(it->second.c_str());
  }
  long geti(const std::string& key, long dflt) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : std::atol(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> kv_;
};

// -------------------------------------------------------------- variants

struct Variant {
  SvdMethod method;
  bool single;  // single precision?
  const char* name;
};

inline const std::vector<Variant>& all_variants() {
  static const std::vector<Variant> v = {
      {SvdMethod::kQr, true, "QR single"},
      {SvdMethod::kQr, false, "QR double"},
      {SvdMethod::kGram, true, "Gram single"},
      {SvdMethod::kGram, false, "Gram double"},
  };
  return v;
}

// ------------------------------------------------------------------ data

/// Relative Frobenius error of an approximation held in working precision
/// T against the double-precision original, accumulated in double -- the
/// one reconstruct-and-compare loop every bench shares.
template <class T>
double relative_error(const tensor::Tensor<double>& ref,
                      const tensor::Tensor<T>& approx) {
  double diff = 0, den = 0;
  for (index_t i = 0; i < ref.size(); ++i) {
    const double d = ref.data()[i] - static_cast<double>(approx.data()[i]);
    diff += d * d;
    den += ref.data()[i] * ref.data()[i];
  }
  return den > 0 ? std::sqrt(diff / den) : 0.0;
}

/// The paper's dataset stand-ins by name ("hcci", "sp", "video"), at the
/// given linear scale. Shared by the per-figure binaries so a dataset knob
/// means the same thing in every bench.
inline tensor::Tensor<double> dataset_by_name(const std::string& name,
                                              double scale) {
  if (name == "hcci") return data::hcci_like(scale);
  if (name == "sp") return data::sp_like(scale);
  if (name == "video") return data::video_like(scale);
  std::fprintf(stderr, "unknown dataset '%s' (hcci|sp|video)\n",
               name.c_str());
  std::exit(2);
}

/// Per-mode computed singular values of x under one engine/precision, run
/// without compression (fixed ranks = full dims) -- the series Figs 5-7
/// plot. Values normalized by the caller.
template <class T>
std::vector<std::vector<double>> spectra_for(const tensor::Tensor<double>& x,
                                             SvdMethod method) {
  auto xt = data::round_tensor_to<T>(x);
  tensor::Dims full = xt.dims();
  auto res = core::sthosvd(xt, TruncationSpec::fixed_ranks(full), method);
  std::vector<std::vector<double>> out(res.mode_sigmas.size());
  for (std::size_t n = 0; n < out.size(); ++n)
    out[n].assign(res.mode_sigmas[n].begin(), res.mode_sigmas[n].end());
  return out;
}

// --------------------------------------------------------------- results

/// Aggregated outcome of one parallel ST-HOSVD run.
struct CaseResult {
  double makespan = 0;       // simulated parallel time (s)
  double compute = 0;        // slowest rank compute (s)
  double comm = 0;           // slowest rank comm (s)
  double lq_gram = 0;        // slowest rank: LQ or Gram regions (s)
  double svd_evd = 0;        // slowest rank: SVD or EVD regions (s)
  double ttm = 0;            // slowest rank: TTM regions (s)
  std::int64_t total_flops = 0;
  std::int64_t total_bytes = 0;
  std::vector<index_t> ranks;
  /// Mode processing order the run actually used (auto or explicit).
  std::vector<std::size_t> order;
  std::vector<std::vector<double>> mode_sigmas;
  double compression = 0;
  double error = 0;  // vs the double-precision original
  /// Per-mode breakdown of the slowest rank: label -> seconds
  /// (compute + modeled comm).
  std::map<std::string, double> regions;
};

inline void aggregate_regions(const mpi::RankStats& slowest, CaseResult* r) {
  auto add = [&](const std::map<std::string, double>& m) {
    for (const auto& [k, v] : m) {
      r->regions[k] += v;
      // "/Sketch" is the randomized engine's factorization phase -- it
      // plays the role LQ/Gram play for the deterministic engines.
      if (k.find("/LQ") != std::string::npos ||
          k.find("/Gram") != std::string::npos ||
          k.find("/Sketch") != std::string::npos)
        r->lq_gram += v;
      else if (k.find("/SVD") != std::string::npos ||
               k.find("/EVD") != std::string::npos)
        r->svd_evd += v;
      else if (k.find("/TTM") != std::string::npos)
        r->ttm += v;
    }
  };
  add(slowest.region_compute);
  add(slowest.region_comm);
  r->compute = slowest.compute_seconds;
  r->comm = slowest.comm_seconds;
}

/// Runs one (method, precision) variant of parallel ST-HOSVD on `input`
/// (held in double; rounded per variant), over `grid` with `order`.
/// If `reference_error` is true the result is gathered on root and compared
/// against the double-precision input.
template <class T>
CaseResult run_case_typed(const tensor::Tensor<double>& input,
                          const Dims& grid_dims, const TruncationSpec& spec,
                          SvdMethod method,
                          const std::vector<std::size_t>& order,
                          bool reference_error) {
  auto x = data::round_tensor_to<T>(input);
  CaseResult result;
  const int p = dist::ProcessorGrid(grid_dims).total();
  auto stats = mpi::Runtime::run(p, [&](mpi::Comm& world) {
    dist::DistTensor<T> dt(world, dist::ProcessorGrid(grid_dims), x.dims());
    dt.fill_from(x);
    world.sync_cpu_clock();
    world.breakdown().set_region("other");
    auto res = core::par_sthosvd(dt, spec, method, order);
    if (world.rank() == 0) {
      result.ranks = res.ranks;
      result.order = res.order;
      result.mode_sigmas.resize(res.mode_sigmas.size());
      for (std::size_t n = 0; n < res.mode_sigmas.size(); ++n)
        result.mode_sigmas[n].assign(res.mode_sigmas[n].begin(),
                                     res.mode_sigmas[n].end());
    }
    if (reference_error) {
      auto tk = res.gather_to_root();
      if (world.rank() == 0) {
        result.compression = tk.compression_ratio();
        // Reconstruct in working precision, compare in double.
        tensor::Tensor<T> xhat = tk.reconstruct();
        result.error = relative_error(input, xhat);
      }
    } else if (world.rank() == 0) {
      // Compression from dimensions alone (no gather).
      double full = 1, params = 1;
      for (std::size_t n = 0; n < res.ranks.size(); ++n) {
        full *= static_cast<double>(x.dim(n));
        params *= static_cast<double>(res.ranks[n]);
      }
      for (std::size_t n = 0; n < res.ranks.size(); ++n)
        params += static_cast<double>(x.dim(n) * res.ranks[n]);
      result.compression = full / params;
    }
  });
  result.makespan = stats.makespan();
  result.total_flops = stats.total_flops();
  result.total_bytes = stats.total_bytes();
  aggregate_regions(stats.slowest(), &result);
  return result;
}

inline CaseResult run_case(const tensor::Tensor<double>& input,
                           const Dims& grid_dims, const TruncationSpec& spec,
                           const Variant& variant,
                           const std::vector<std::size_t>& order,
                           bool reference_error = true) {
  return variant.single
             ? run_case_typed<float>(input, grid_dims, spec, variant.method,
                                     order, reference_error)
             : run_case_typed<double>(input, grid_dims, spec, variant.method,
                                      order, reference_error);
}

// -------------------------------------------------------------- printing

inline void print_rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline std::string dims_to_string(const Dims& d) {
  std::string s;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (i) s += "x";
    s += std::to_string(d[i]);
  }
  return s;
}

inline void print_breakdown_row(const char* label, const CaseResult& r) {
  std::printf("%-14s total=%9.4fs  LQ/Gram=%9.4fs  SVD/EVD=%9.4fs  "
              "TTM=%9.4fs  comm=%9.4fs\n",
              label, r.makespan, r.lq_gram, r.svd_evd, r.ttm, r.comm);
}

inline std::string order_to_string(const std::vector<std::size_t>& order) {
  std::string s;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i) s += ">";
    s += std::to_string(order[i]);
  }
  return s;
}

/// One "modeN[svd ...s ttm ...s]" entry per mode, in processing order, from
/// the slowest rank's "modeN/<kernel>" region ledger (par_sthosvd tags every
/// compute and comm charge this way; see simmpi/breakdown.hpp). "svd" rolls
/// up the factorization regions (LQ/Gram/Sketch + SVD/EVD) so one column
/// means the same thing across all four engines.
inline std::string mode_breakdown_string(const CaseResult& r) {
  std::string s;
  for (std::size_t i = 0; i < r.order.size(); ++i) {
    const std::string prefix = "mode" + std::to_string(r.order[i]) + "/";
    double svd = 0, ttm = 0;
    for (const auto& [label, sec] : r.regions) {
      if (label.rfind(prefix, 0) != 0) continue;
      const std::string suffix = label.substr(prefix.size());
      if (suffix == "TTM")
        ttm += sec;
      else
        svd += sec;  // LQ, Gram, Sketch, SVD, EVD
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "%smode%zu[svd %.4fs ttm %.4fs]",
                  i ? " " : "", r.order[i], svd, ttm);
    s += buf;
  }
  return s;
}

}  // namespace tucker::bench
