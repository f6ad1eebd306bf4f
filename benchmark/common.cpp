#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "build_info.hpp"
#include "common/thread_pool.hpp"

extern char** environ;

namespace bench {

namespace {

const auto kStart = std::chrono::steady_clock::now();

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kStart)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

Tail supported_tail(std::vector<double> v, double cap) {
  Tail t;
  const double n = static_cast<double>(v.size());
  for (double p = std::floor(cap); p >= 50; p -= 1) {
    if (n * (1 - p / 100) >= 10) {
      t.pct = p;
      t.value = quantile(std::move(v), p / 100);
      return t;
    }
  }
  return t;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<tucker::blas::index_t> video_ranks(const tucker::tensor::Dims& dims) {
  constexpr double kFrac[] = {30.0 / 162, 30.0 / 288, 1.0, 15.0 / 165};
  std::vector<tucker::blas::index_t> r(dims.size());
  for (std::size_t n = 0; n < dims.size() && n < 4; ++n)
    r[n] = std::max<tucker::blas::index_t>(
        1, std::lround(kFrac[n] * static_cast<double>(dims[n])));
  return r;
}

std::uint64_t fnv1a64(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001b3ull;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

// ------------------------------------------------------------------- trace

std::int64_t Trace::add(const Span& s) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(s);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

Trace::Scope::Scope(Trace& tr, const char* name, std::int64_t parent)
    : tr_(tr), id_(tr.add({name, parent, -1, now_s(), 0, 0, 0})) {}

Trace::Scope::~Scope() {
  if (id_ < 0) return;
  Span& s = tr_.spans_[static_cast<std::size_t>(id_)];
  s.t1 = now_s();
  s.flops = fs_.flops();
  s.bytes = fs_.traffic();
}

void Trace::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const std::string& ev) {
    out << (first ? "" : ",\n") << ev;
    first = false;
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string args = "\"args\":{\"span\":" + std::to_string(i) +
                             ",\"parent\":" + std::to_string(s.parent) +
                             ",\"flops\":" + std::to_string(s.flops) +
                             ",\"bytes\":" + std::to_string(s.bytes) + "}";
    const std::string name = "\"name\":\"" + json_escape(s.name) + "\"";
    if (s.req < 0) {
      // Synchronous spans nest on the benchmark thread: complete events.
      emit("{" + name + ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
           num(s.t0 * 1e6) + ",\"dur\":" + num((s.t1 - s.t0) * 1e6) + "," +
           args + "}");
    } else {
      // Served requests overlap: async begin/end pairs keyed by request id,
      // so a request's child spans nest under it in its own track.
      const std::string head = "{" + name +
                               ",\"cat\":\"request\",\"pid\":1,\"id\":" +
                               std::to_string(s.req);
      emit(head + ",\"ph\":\"b\",\"ts\":" + num(s.t0 * 1e6) + "," + args +
           "}");
      emit(head + ",\"ph\":\"e\",\"ts\":" + num(s.t1 * 1e6) + "}");
    }
  }
  out << "\n]}\n";
}

// ----------------------------------------------------------------- metrics

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"latency_ms", "ms"},
    {"ops_per_s", "1/s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"data.generate_s", "s"},
    {"core.mode0_s", "s"},
    {"core.mode1_s", "s"},
    {"core.mode2_s", "s"},
    {"core.mode3_s", "s"},
    {"core.glue_s", "s"},
    {"core.flops", "count"},
    {"core.bytes", "bytes"},
    {"core.gflops", "GF/s"},
    {"core.compression_ratio", "x"},
    {"trace.overhead_frac", "frac"},
    {"tensor.lq_s", "s"},
    {"tensor.lq_gflops", "GF/s"},
    {"tensor.lq_speedup_4t", "x"},
    {"tensor.gram_s", "s"},
    {"tensor.gram_gflops", "GF/s"},
    {"tensor.gram_speedup_4t", "x"},
    {"core.rand_svd_s", "s"},
    {"tensor.sketch_s", "s"},
    {"tensor.sketch_gflops", "GF/s"},
    {"tensor.sketch_speedup_4t", "x"},
    {"tensor.power_s", "s"},
    {"tensor.projgram_s", "s"},
    {"tensor.ttm_s", "s"},
    {"tensor.ttm_gflops", "GF/s"},
    {"tensor.ttm_speedup_4t", "x"},
    {"la.small_svd_s", "s"},
    {"blas.syrk_gflops", "GF/s"},
    {"la.gelqf_gflops", "GF/s"},
    {"blas.gemm_gflops", "GF/s"},
    {"tensor.lq_vs_syrk", "x"},
    {"tensor.gram_vs_syrk", "x"},
    {"tensor.ttm_vs_gemm", "x"},
    {"common.arena_high_water_mb", "MiB"},
    {"core.reconstruct_ms", "ms"},
    {"core.region_ms", "ms"},
    {"core.compress_direct_ms", "ms"},
    {"serve.read_p99_ms", "ms"},
    {"serve.write_p50_ms", "ms"},
    {"serve.write_tail_ms", "ms"},
    {"serve.submit_p99_us", "us"},
    {"serve.overhead_ms", "ms"},
    {"serve.batch_mean_ref", "count"},
    {"serve.batch_mean_sat", "count"},
    {"serve.batched_frac_ref", "frac"},
    {"serve.batched_frac_sat", "frac"},
    {"serve.flops_saved_frac_ref", "frac"},
    {"serve.flops_saved_frac_sat", "frac"},
    {"serve.queue_high_water", "count"},
    {"serve.shed_frac", "frac"},
    {"serve.arena_high_water_mb", "MiB"},
    {"serve.pack_mb", "MiB"},
};

void Report::metric(const std::string& name, double value) {
  metrics_[name] = value;
}

void Report::info(const std::string& name, double value,
                  const std::string& unit) {
  info_.push_back({name, {value, unit}});
}

void Report::meta(const std::string& key, const std::string& value) {
  meta_.push_back({key, value});
}

void Report::gate_failed(const std::string& what) {
  gate_failures_.push_back(what);
  std::fprintf(stderr, "GATE FAILED [%s]: %s\n", args_.workload.c_str(),
               what.c_str());
}

int Report::finish() {
  const auto& defs = args_.trace ? kPerLayer : kEndToEnd;
  for (const auto& d : defs) {
    auto it = metrics_.find(d.name);
    if (it == metrics_.end()) {
      // A per-layer metric of a layer this workload does not run reads 0;
      // every end-to-end metric must have been measured.
      if (!args_.trace) gate_failed(std::string("not measured: ") + d.name);
      metrics_[d.name] = 0;
    } else if (!std::isfinite(it->second)) {
      gate_failed(std::string("non-finite value: ") + d.name);
      it->second = 0;
    }
  }
  if (attempted_ == 0) {
    gate_failed("no operation attempted");
    attempted_ = 1;
    failed_ = std::max<std::uint64_t>(failed_, 1);
  }
  const bool ok = correct();
  if (!ok && failed_ == 0) failed_ = 1;

  for (const auto& [k, v] : meta_)
    std::printf("# meta %s: %s\n", k.c_str(), v.c_str());
  for (const auto& [k, vu] : info_)
    std::printf("# info %s %s %.6g %s\n", args_.workload.c_str(), k.c_str(),
                vu.first, vu.second.c_str());
  std::string metrics_json;
  for (const auto& d : defs) {
    const double v = metrics_[d.name];
    std::printf("%s %s %.6g %s\n", args_.workload.c_str(), d.name, v, d.unit);
    metrics_json += std::string(metrics_json.empty() ? "" : ", ") + "\"" +
                    d.name + "\": {\"value\": " + num(v) + ", \"unit\": \"" +
                    d.unit + "\"}";
  }
  const std::string result =
      std::string("{\"correct\": ") + (ok ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted_) +
      ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
      metrics_json + "}}";

  std::error_code ec;
  std::filesystem::create_directories(args_.out_dir, ec);
  const std::string path = args_.out_dir + "/" + args_.workload + "_seed" +
                           std::to_string(args_.seed) +
                           (args_.trace ? "_trace" : "") + ".json";
  if (std::ofstream out(path); out) {
    out << "{\"workload\": \"" << json_escape(args_.workload)
        << "\", \"seed\": " << args_.seed
        << ", \"trace\": " << (args_.trace ? "true" : "false")
        << ", \"result\": " << result << ", \"info\": {";
    bool first = true;
    for (const auto& [k, vu] : info_) {
      out << (first ? "" : ", ") << "\"" << json_escape(k)
          << "\": {\"value\": " << num(vu.first) << ", \"unit\": \""
          << json_escape(vu.second) << "\"}";
      first = false;
    }
    out << "}, \"gate_failures\": [";
    for (std::size_t i = 0; i < gate_failures_.size(); ++i)
      out << (i ? ", " : "") << "\"" << json_escape(gate_failures_[i]) << "\"";
    out << "], \"meta\": {";
    for (std::size_t i = 0; i < meta_.size(); ++i)
      out << (i ? ", " : "") << "\"" << json_escape(meta_[i].first)
          << "\": \"" << json_escape(meta_[i].second) << "\"";
    out << "}}\n";
    std::printf("# results %s\n", path.c_str());
  }
  std::fflush(stdout);
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------- metadata

void add_run_metadata(Report& rep, const Args& args) {
  const char* sha = std::getenv("BENCH_GIT_SHA");
  rep.meta("git_sha", sha && *sha ? sha : "unknown");
  rep.meta("compiler", BENCH_COMPILER);
  rep.meta("build_type", BENCH_BUILD_TYPE);
  rep.meta("cxx_flags", BENCH_CXX_FLAGS);
  rep.meta("cmake_TUCKER_SIMD", BENCH_TUCKER_SIMD);
  rep.meta("cmake_TUCKER_NATIVE", BENCH_TUCKER_NATIVE);
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  rep.meta("nproc", std::to_string(nproc));
  rep.meta("pool_threads", std::to_string(tucker::parallel::max_threads()));
  const char* nt = std::getenv("TUCKER_NUM_THREADS");
  rep.meta("TUCKER_NUM_THREADS", nt ? nt : "(unset)");
  std::string tucker_env;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "TUCKER_", 7) == 0)
      tucker_env += std::string(tucker_env.empty() ? "" : " ") + *e;
  rep.meta("tucker_env", tucker_env.empty() ? "(none)" : tucker_env);

  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  rep.meta("cpu_model", model);
  std::string caches;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_line(dir + "level");
    if (level.empty()) break;
    caches += std::string(caches.empty() ? "" : "; ") + "L" + level + " " +
              read_line(dir + "type") + " " + read_line(dir + "size") +
              " shared by cpus " + read_line(dir + "shared_cpu_list");
  }
  rep.meta("caches", caches.empty() ? "unknown" : caches);
  rep.meta("cache_note",
           "inputs are sized against the per-core L2, not the shared L3: "
           "spilling a reported L3 of hundreds of MiB would need inputs over "
           "1.2 GB and more than 20 s of set-up per workload");
  rep.meta("workload", args.workload);
  rep.meta("seed", std::to_string(args.seed));
  rep.meta("seconds", num(args.seconds));
  rep.meta("smoke", args.smoke ? "1" : "0");
}

}  // namespace bench
