#pragma once
// Shared pieces of the end-to-end benchmark: the clock, order statistics,
// the in-memory span recorder, the metric tables and the result printer.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/flops.hpp"
#include "tensor/tensor.hpp"

namespace bench {

/// Seconds on the steady clock since the process started.
double now_s();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_build/out";
};

/// Median of v (mean of the two middle values for even sizes); 0 if empty.
double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1]; 0 if empty.
double quantile(std::vector<double> v, double q);

/// The highest whole percentile, at most `cap`, that leaves at least ten
/// samples beyond it: the tail the sample count supports. pct is 0 when
/// there are fewer than eleven samples.
struct Tail {
  double pct = 0;
  double value = 0;
};
Tail supported_tail(std::vector<double> v, double cap = 99);

/// Peak resident set of the process (getrusage ru_maxrss), MiB.
double peak_rss_mib();

/// Fixed ranks for a data::video_like tensor of any scale: the per-mode
/// fractions of the paper's video run (30 x 30 x 3 x 15 of a
/// 162 x 288 x 3 x 165 tensor), rounded, at least 1.
std::vector<tucker::blas::index_t> video_ranks(const tucker::tensor::Dims& dims);

/// FNV-1a over 64-bit words: a fast fingerprint of a response buffer.
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t h = 0xcbf29ce484222325ull);

/// One recorded interval. parent is -1 at a root; req ties the spans of one
/// served request together and is -1 on synchronous (compress) spans.
struct Span {
  const char* name;
  std::int64_t parent;
  std::int64_t req;
  double t0, t1;
  std::int64_t flops, bytes;
};

/// Spans held in a vector reserved up front: recording never allocates, and
/// spans past the capacity are counted and dropped.
class Trace {
 public:
  explicit Trace(std::size_t capacity) { spans_.reserve(capacity); }

  /// Returns the span id, or -1 when the trace is full.
  std::int64_t add(const Span& s);
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }
  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  void write_chrome(const std::string& path) const;

  /// Span around a block of the calling thread: wall time plus the flops
  /// and computed bytes the library credited to FlopScope inside it.
  class Scope {
   public:
    Scope(Trace& tr, const char* name, std::int64_t parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const { return id_; }

   private:
    Trace& tr_;
    std::int64_t id_;
    tucker::FlopScope fs_;
  };

 private:
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run reports, in BENCHMARK.json order.
extern const std::vector<MetricDef> kEndToEnd;
/// The per-layer metrics every traced run reports; a layer the workload does
/// not run reads 0.
extern const std::vector<MetricDef> kPerLayer;

/// Collects one run's metrics, diagnostics and gate results, then prints
/// them: `workload metric value unit` lines, a results JSON under
/// Args::out_dir, and the one-line result JSON last on stdout.
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  /// A metric of kEndToEnd or kPerLayer; the table gives its unit.
  void metric(const std::string& name, double value);
  /// A diagnostic outside the tables (latencies, sample counts, ...):
  /// printed and written to the results file, not to the result JSON.
  void info(const std::string& name, double value, const std::string& unit);
  void meta(const std::string& key, const std::string& value);
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }
  /// A correctness gate that did not hold.
  void gate_failed(const std::string& what);
  bool correct() const { return gate_failures_.empty(); }

  /// Prints everything and returns the process exit code.
  int finish();

 private:
  const Args& args_;
  std::map<std::string, double> metrics_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> info_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> gate_failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Host, build and environment metadata shared by every workload.
void add_run_metadata(Report& rep, const Args& args);

bool is_compress_workload(const std::string& name);
bool is_serve_workload(const std::string& name);
void run_compress(const Args& args, Report& rep);
void run_serve(const Args& args, Report& rep);

}  // namespace bench
