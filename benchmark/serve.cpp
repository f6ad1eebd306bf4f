// Serve workloads: one long-lived serve::Service<double> answering
// reconstruction reads -- and, in serve_mixed, compress writes -- sent by
// one generator thread acting as a set of callers, each of which sends its
// next request as soon as its last one is answered. The schedule is a
// warm-up; a reference window with as many callers as workers, so no read
// waits in the queue for another and the read latency measures the request
// path; and a saturation window with kCallers callers, which keeps the
// queue deep enough for full request fusion and measures how many requests
// per second the service completes. The reference window runs in two
// halves, one on each side of the saturation window.

#include <algorithm>
#include <cmath>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/tuning.hpp"
#include "core/sthosvd.hpp"
#include "core/tucker_tensor.hpp"
#include "data/synthetic_tensor.hpp"
#include "serve/admission.hpp"
#include "serve/service.hpp"

namespace bench {
namespace {

using tucker::blas::index_t;
using tucker::tensor::Tensor;
namespace core = tucker::core;
namespace data = tucker::data;
namespace parallel = tucker::parallel;
namespace serve = tucker::serve;

enum class Dataset { kHcci, kSp, kVideo };

struct TenantSpec {
  Dataset dataset;
  double scale;
  double tolerance;            // the paper's tolerance the ranks stand for
  std::vector<index_t> ranks;  // empty: the paper's video rank fractions
};

// The tenants are the paper's three datasets at small scale, compressed
// with QR-SVD: HCCI and SP at the ranks the paper's tolerances 1e-2, 1e-3
// and 1e-4 select (the largest rank each mode took over seeds 1-10), the
// video at its per-mode rank fractions. The ranks are fixed rather than
// selected per seed because a rank more or less in one mode changes a
// read's cost by up to a half. Outputs hold 0.15-0.48 M elements. Listed
// in popularity order.
const std::vector<TenantSpec> kTenants = {
    {Dataset::kHcci, 0.3, 1e-3, {5, 4, 2, 6}},
    {Dataset::kSp, 0.5, 1e-3, {2, 2, 2, 2, 2}},
    {Dataset::kVideo, 0.3, 0, {}},
    {Dataset::kHcci, 0.3, 1e-4, {6, 6, 2, 7}},
    {Dataset::kSp, 0.5, 1e-4, {2, 2, 2, 2, 3}},
    {Dataset::kVideo, 0.4, 0, {}},
    {Dataset::kHcci, 0.3, 1e-2, {3, 3, 1, 4}},
    {Dataset::kSp, 0.5, 1e-2, {2, 2, 2, 2, 2}},
};

// The traffic mix. Model popularity is Zipf-like with exponent 0.8, inside
// the 0.64-0.83 range Breslau et al. measured for web requests ("Web
// Caching and Zipf-like Distributions: Evidence and Implications",
// INFOCOM 1999); that model reads follow web popularity is an assumption.
// The region share, the half-box region shape and serve_mixed's write
// share are assumptions with no trace behind them.
constexpr double kZipfS = 0.8;
constexpr double kRegionFrac = 0.3;
// Requests are dealt from a deck of this many, which holds the mix exactly
// (see make_deck).
constexpr std::size_t kDeckSize = 200;

struct ServeWorkload {
  const char* name;
  double write_frac;
};

const std::vector<ServeWorkload> kServeWorkloads = {
    {"serve_read", 0.0},
    {"serve_mixed", 0.05},
};

constexpr double kWriteTolerance = 1e-4;
constexpr int kWritePool = 4;
constexpr int kSetupReps = 5;  // short set-ups: two stalls cannot move the median
constexpr int kWorkers = 3;
constexpr std::size_t kQueueDepth = 256;
constexpr int kClientBuffers = 4;
constexpr std::uint64_t kHashEvery = 16;
constexpr std::uint64_t kWriteCheckEvery = 8;
constexpr double kFailed = 1e12;  // latency charged to a shed or failed request
// The reference window's callers: one per worker.
constexpr std::size_t kRefCallers = kWorkers;
// The saturation window's callers: more than the 3 workers times the
// default batch cap of 8, so every worker can always take a full batch.
constexpr std::size_t kCallers = 64;
// The saturation window is counted in sub-windows of this length.
constexpr double kSubWindowS = 1.0;

enum Kind : std::uint8_t { kFull, kRegion, kWrite };

struct Card {
  Kind kind;
  std::uint8_t tenant;
};

/// Splits `total` in proportion to the shares p, by largest remainder.
std::vector<std::size_t> apportion(const std::vector<double>& p,
                                   std::size_t total) {
  std::vector<std::size_t> n(p.size());
  std::vector<std::pair<double, std::size_t>> rest;
  std::size_t given = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double exact = p[i] * static_cast<double>(total);
    n[i] = static_cast<std::size_t>(exact);
    given += n[i];
    rest.push_back({exact - static_cast<double>(n[i]), i});
  }
  std::sort(rest.begin(), rest.end(), std::greater<>());
  for (std::size_t k = 0; given < total; ++k, ++given) ++n[rest[k].second];
  return n;
}

/// The traffic mix as a deck of kDeckSize cards: the write share, and the
/// full and region reads of each tenant in proportion to its popularity.
/// Dealing a shuffled deck keeps every stretch of kDeckSize requests at the
/// same work, so only the order and the region boxes vary with the seed.
/// With independent draws, the number of 20-35 ms writes in a second varied
/// by a tenth, and the run's throughput and read latency with it.
std::vector<Card> make_deck(const std::vector<double>& zipf_p,
                            double write_frac) {
  const auto writes = static_cast<std::size_t>(
      std::lround(write_frac * static_cast<double>(kDeckSize)));
  const std::size_t reads = kDeckSize - writes;
  const auto regions =
      static_cast<std::size_t>(std::lround(kRegionFrac * static_cast<double>(reads)));
  std::vector<Card> deck(writes, Card{kWrite, 0});
  const auto full_n = apportion(zipf_p, reads - regions);
  const auto region_n = apportion(zipf_p, regions);
  for (std::size_t i = 0; i < zipf_p.size(); ++i) {
    const auto t = static_cast<std::uint8_t>(i);
    deck.insert(deck.end(), full_n[i], Card{kFull, t});
    deck.insert(deck.end(), region_n[i], Card{kRegion, t});
  }
  return deck;
}

struct Box {
  std::vector<index_t> lo, hi;
  double flops = 0;
};

struct Tenant {
  serve::ModelId id = 0;
  Tensor<double> x;  // the data the model was compressed from
  core::TuckerTensor<double> model;
  double tolerance = 0;        // the paper's tolerance the ranks stand for
  double estimated_error = 0;  // the bound sthosvd certified
  double full_flops = 0;
  std::vector<Box> boxes;  // the 2^N half-box corners
};

/// Everything one set-up builds: the tenants' models registered in a fresh
/// service, and the write pool.
struct Setup {
  std::vector<Tenant> tenants;
  std::vector<std::shared_ptr<const Tensor<double>>> writes;
  std::unique_ptr<serve::Service<double>> svc;
  double generate_s = 0;  // the data generation share of the set-up
};

serve::ServeOptions serve_options() {
  serve::ServeOptions o;
  o.workers = kWorkers;
  o.queue_depth = kQueueDepth;
  return o;
}

Tensor<double> generate(const TenantSpec& spec, std::uint64_t seed) {
  switch (spec.dataset) {
    case Dataset::kHcci:
      return data::hcci_like(spec.scale, seed);
    case Dataset::kSp:
      return data::sp_like(spec.scale, seed);
    case Dataset::kVideo:
      return data::video_like(spec.scale, seed);
  }
  return {};
}

Setup set_up(const ServeWorkload& w, const Args& a) {
  Setup s;
  s.svc = std::make_unique<serve::Service<double>>(serve_options());
  for (std::size_t i = 0; i < kTenants.size(); ++i) {
    const auto& spec = kTenants[i];
    const double t0 = now_s();
    Tenant t;
    t.x = generate(spec, a.seed * 1009 + i);
    s.generate_s += now_s() - t0;
    t.tolerance = spec.tolerance;
    auto res = core::sthosvd(
        t.x,
        core::TruncationSpec::fixed_ranks(
            spec.ranks.empty() ? video_ranks(t.x.dims()) : spec.ranks),
        core::SvdMethod::kQr);
    t.estimated_error = res.estimated_relative_error();
    t.model = std::move(res.tucker);
    const auto& dims = t.x.dims();
    t.full_flops =
        serve::reconstruct_cost(t.model.core_dims(), dims, sizeof(double)).flops;
    const std::size_t nm = dims.size();
    for (std::size_t c = 0; c < (std::size_t{1} << nm); ++c) {
      Box b;
      for (std::size_t n = 0; n < nm; ++n) {
        const index_t half = dims[n] / 2;
        const bool upper = (c >> n) & 1;
        b.lo.push_back(upper ? half : 0);
        b.hi.push_back(upper ? dims[n] : half);
      }
      b.flops = serve::region_cost(t.model.core_dims(), b.lo, b.hi,
                                   sizeof(double))
                    .flops;
      t.boxes.push_back(std::move(b));
    }
    t.id = s.svc->register_model(t.model);
    s.tenants.push_back(std::move(t));
  }
  const double t0 = now_s();
  if (w.write_frac > 0)
    for (int k = 0; k < kWritePool; ++k)
      s.writes.push_back(std::make_shared<const Tensor<double>>(
          data::sp_like(0.5, a.seed * 7919 + k)));
  s.generate_s += now_s() - t0;
  return s;
}

struct Req {
  double sent = 0, ret = 0, done = 0;  // now_s() seconds
  double flops = 0;  // modeled price at submit (reads)
  std::uint8_t phase = 0;
  Kind kind = kFull;
  std::uint8_t tenant = 0;
  std::uint8_t box = 0;
  std::uint8_t pool = 0;
  bool check = false;  // hashed read / kept write
  bool shed = false;
  bool error = false;
  bool failed() const { return shed || error; }
  double latency() const { return failed() ? kFailed : done - sent; }
};

struct Flight {
  std::size_t req;
  std::future<serve::ReconstructResponse<double>> read;
  std::future<serve::CompressResponse<double>> write;
  std::shared_ptr<Tensor<double>> buf;
};

struct Snapshot {
  serve::ServeStats stats;
  double read_flops = 0;
};

/// Service counters at the two ends of a window, and the completion count
/// at the start of each of its sub-windows and at its end.
struct Window {
  Snapshot begin, end;
  std::vector<std::pair<double, double>> marks;  // (time, completions)
};

std::uint64_t hash_tensor(const Tensor<double>& t) {
  std::uint64_t h = fnv1a64(t.dims().data(), t.dims().size() * sizeof(index_t));
  return fnv1a64(t.data(), static_cast<std::size_t>(t.size()) * sizeof(double),
                 h);
}

struct BatchStats {
  double mean = 0, batched_frac = 0, flops_saved_frac = 0;
};

/// Fusion over the windows together.
BatchStats batch_stats(const std::vector<const Window*>& wins) {
  double reads = 0, batched = 0, groups = 0, price = 0, saved = 0;
  for (const Window* win : wins) {
    const auto& a = win->begin;
    const auto& b = win->end;
    reads += static_cast<double>(b.stats.reconstruct_done - a.stats.reconstruct_done);
    batched += static_cast<double>(b.stats.batched_requests - a.stats.batched_requests);
    groups += static_cast<double>(b.stats.batches_done - a.stats.batches_done);
    price += b.read_flops - a.read_flops;
    saved += b.stats.batched_flops_saved - a.stats.batched_flops_saved;
  }
  BatchStats r;
  const double jobs = reads - batched + groups;
  r.mean = jobs > 0 ? reads / jobs : 0;
  r.batched_frac = reads > 0 ? batched / reads : 0;
  r.flops_saved_frac = price > 0 ? saved / price : 0;
  return r;
}

void run_workload(const ServeWorkload& w, const Args& a, Report& rep) {
  // ---- set-up, repeated so setup_s is a median; the last one is served.
  std::vector<double> setup_t, gen_t;
  Setup s;
  for (int i = 0; i < kSetupReps; ++i) {
    s = Setup();
    const double t0 = now_s();
    s = set_up(w, a);
    setup_t.push_back(now_s() - t0);
    gen_t.push_back(s.generate_s);
  }
  serve::Service<double>& svc = *s.svc;
  const std::size_t ntenants = s.tenants.size();
  rep.info("setup_peak_rss_mb", peak_rss_mib(), "MiB");

  std::vector<double> zipf_p(ntenants);
  for (std::size_t i = 0; i < ntenants; ++i)
    zipf_p[i] = std::pow(static_cast<double>(i + 1), -kZipfS);
  const double zsum = std::accumulate(zipf_p.begin(), zipf_p.end(), 0.0);
  for (double& p : zipf_p) p /= zsum;
  std::vector<Card> deck = make_deck(zipf_p, w.write_frac);
  std::size_t dealt = deck.size();  // a full deck is shuffled before dealing

  // ---- schedule: the warm-up comes before the measured --seconds, which
  // the reference window, in two halves, and the saturation window share.
  const double warm = a.smoke ? 0.25 : 1.0;
  const double ref = a.smoke ? 1.0 : 0.4 * a.seconds;
  const double sat = a.smoke ? 1.25 : std::max(3.0, a.seconds - ref);
  // The saturation window's first part, at least min_ramp, lets the queue
  // fill and the fusion settle; completions are counted over the whole
  // sub-windows that fit after it. On serve_mixed the completion rate takes
  // about 2 s to fall to its steady value, while the slow writes collect
  // in the queue.
  const double min_ramp = a.smoke ? 0.25 : 2.0;
  const auto sat_subs = std::max<std::size_t>(
      1, static_cast<std::size_t>((sat - min_ramp) / kSubWindowS));
  const double sat_ramp = std::max(0.0, sat - static_cast<double>(sat_subs) * kSubWindowS);

  std::vector<Req> reqs;
  reqs.reserve(static_cast<std::size_t>(2e4 * (warm + ref) + 3e4 * sat) + 4096);
  Trace tr(a.trace ? 3 * reqs.capacity() : 0);

  // ---- run
  tucker::Rng rng(a.seed * 0x9e3779b97f4a7c15ull + 17);
  std::vector<Flight> inflight;
  // The client keeps a few full-size response buffers per model, so only a
  // burst beyond them allocates during the run.
  std::vector<std::vector<std::shared_ptr<Tensor<double>>>> free_bufs(ntenants);
  for (std::size_t i = 0; i < ntenants; ++i)
    for (int k = 0; k < kClientBuffers; ++k)
      free_bufs[i].push_back(
          std::make_shared<Tensor<double>>(s.tenants[i].x.dims()));
  std::vector<std::pair<std::size_t, std::uint64_t>> hashes;
  std::vector<std::pair<std::size_t, core::TuckerTensor<double>>> kept_writes;
  std::uint64_t reads_sent = 0, writes_sent = 0;
  double read_flops = 0;

  auto settle = [&](Flight& f) {
    Req& r = reqs[f.req];
    try {
      double lat;
      if (r.kind == kWrite) {
        auto resp = f.write.get();
        lat = resp.latency_seconds;
        if (r.check) kept_writes.push_back({f.req, std::move(resp.result.tucker)});
      } else {
        lat = f.read.get().latency_seconds;
        if (r.check) hashes.push_back({f.req, hash_tensor(*f.buf)});
      }
      // The service stamps its clock just before queueing, inside the
      // submit call: counting from the submit's return is conservative.
      r.done = r.ret + lat;
    } catch (...) {
      r.error = true;
      r.done = now_s();
    }
    if (f.buf) free_bufs[r.tenant].push_back(std::move(f.buf));
    if (a.trace && !r.error) {
      const auto id = static_cast<std::int64_t>(f.req);
      const std::int64_t root = tr.add({"request", -1, id, r.sent, r.done, 0, 0});
      tr.add({"client.submit", root, id, r.sent, r.ret, 0, 0});
      tr.add({"service", root, id, r.ret, r.done, 0, 0});
    }
  };
  // Settles every finished request, in any order, so a buffer returns to its
  // pool as soon as its own read is done rather than behind a slower one.
  auto harvest = [&] {
    for (std::size_t i = 0; i < inflight.size();) {
      Flight& f = inflight[i];
      const bool ready =
          reqs[f.req].kind == kWrite
              ? f.write.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready
              : f.read.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready;
      if (!ready) {
        ++i;
        continue;
      }
      settle(f);
      std::swap(f, inflight.back());
      inflight.pop_back();
    }
  };

  auto send = [&](std::uint8_t phase) {
    if (dealt == deck.size()) {
      for (std::size_t i = deck.size() - 1; i > 0; --i)
        std::swap(deck[i], deck[rng.index(i + 1)]);
      dealt = 0;
    }
    const Card c = deck[dealt++];
    Req r;
    r.phase = phase;
    r.kind = c.kind;
    if (r.kind == kWrite) {
      r.pool = static_cast<std::uint8_t>(rng.index(s.writes.size()));
      r.check = writes_sent++ % kWriteCheckEvery == 0;
    } else {
      r.tenant = c.tenant;
      const Tenant& tn = s.tenants[r.tenant];
      r.box = static_cast<std::uint8_t>(rng.index(tn.boxes.size()));
      r.flops = r.kind == kFull ? tn.full_flops : tn.boxes[r.box].flops;
      r.check = reads_sent++ % kHashEvery == 0;
    }

    Flight f{reqs.size(), {}, {}, nullptr};
    r.sent = now_s();
    bool ok;
    if (r.kind == kWrite) {
      serve::CompressRequest<double> cr;
      cr.x = s.writes[r.pool];
      cr.spec = core::TruncationSpec::tolerance(kWriteTolerance);
      cr.method = core::SvdMethod::kQr;
      auto fut = svc.try_submit(std::move(cr));
      r.ret = now_s();
      ok = fut.has_value();
      if (ok) f.write = std::move(*fut);
    } else {
      auto& pool = free_bufs[r.tenant];
      if (pool.empty()) {
        f.buf = std::make_shared<Tensor<double>>();
      } else {
        f.buf = std::move(pool.back());
        pool.pop_back();
      }
      serve::ReconstructRequest<double> rr;
      rr.model = s.tenants[r.tenant].id;
      if (r.kind == kRegion) {
        rr.lo = s.tenants[r.tenant].boxes[r.box].lo;
        rr.hi = s.tenants[r.tenant].boxes[r.box].hi;
      }
      rr.out = f.buf;
      auto fut = svc.try_submit(std::move(rr));
      r.ret = now_s();
      ok = fut.has_value();
      if (ok) {
        f.read = std::move(*fut);
        read_flops += r.flops;
      } else {
        free_bufs[r.tenant].push_back(std::move(f.buf));
      }
    }
    r.shed = !ok;
    reqs.push_back(r);
    if (ok) inflight.push_back(std::move(f));
  };

  auto done = [](const serve::ServeStats& x) {
    return static_cast<double>(x.reconstruct_done + x.compress_done);
  };
  // `callers` callers, each sending its next request as soon as its last is
  // answered, for `ramp` seconds and then `subs` sub-windows of `sub_s`
  // seconds; then waits for the requests still in flight. Each window
  // starts on a fresh deck.
  auto closed_loop = [&](std::uint8_t phase, std::size_t callers, double ramp,
                         std::size_t subs, double sub_s) {
    Window win;
    dealt = deck.size();
    double next_mark = now_s() + ramp;
    while (win.marks.size() <= subs) {
      if (now_s() >= next_mark) {
        const auto st = svc.stats();
        if (win.marks.empty()) win.begin = Snapshot{st, read_flops};
        win.marks.push_back({now_s(), done(st)});
        next_mark += sub_s;
      }
      harvest();
      while (inflight.size() < callers) send(phase);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    win.end = Snapshot{svc.stats(), read_flops};
    while (!inflight.empty()) {
      harvest();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return win;
  };
  // Completions per second between marks i < j.
  auto rate = [](const Window& win, std::size_t i, std::size_t j) {
    const auto& m = win.marks;
    return (m[j].second - m[i].second) / (m[j].first - m[i].first);
  };

  constexpr std::uint8_t kWarm = 0, kRef = 1, kSat = 2;
  closed_loop(kWarm, kRefCallers, warm, 0, 0);
  // The reference window's halves come before and after the saturation
  // window: the host's speed drifts over seconds to minutes, and two samples
  // of it a saturation window apart vary less between runs than one.
  const std::size_t first_begin = reqs.size();
  const Window ref_first = closed_loop(kRef, kRefCallers, 0, 1, ref / 2);
  const std::size_t first_end = reqs.size();
  // The footprint of serving at the reference load: the saturation window
  // holds kCallers responses in flight.
  const double peak = peak_rss_mib();
  const Window sat_win = closed_loop(kSat, kCallers, sat_ramp, sat_subs, kSubWindowS);
  const std::size_t last_begin = reqs.size();
  const Window ref_last = closed_loop(kRef, kRefCallers, 0, 1, ref / 2);
  double sat_ops = 0;  // the best sub-window's
  for (std::size_t k = 1; k < sat_win.marks.size(); ++k)
    sat_ops = std::max(sat_ops, rate(sat_win, k - 1, k));
  std::vector<double> sat_read;
  for (const Req& r : reqs)
    if (r.phase == kSat && r.kind != kWrite) sat_read.push_back(1e3 * r.latency());
  rep.info("sat_windows", static_cast<double>(sat_subs), "count");
  rep.info("sat_ops_per_s_all", rate(sat_win, 0, sat_subs), "1/s");
  rep.info("sat_read_p50_ms", median(sat_read), "ms");

  const serve::ServeStats final_stats = svc.stats();  // every window drained
  svc.stop();

  // ---- reference window
  std::vector<double> read_lat, write_lat, submit;
  std::uint64_t ref_attempted = 0, ref_failed = 0, ref_shed = 0;
  for (const Req& r : reqs) {
    if (r.phase != kRef) continue;
    ++ref_attempted;
    if (r.failed()) ++ref_failed;
    if (r.shed) ++ref_shed;
    submit.push_back(1e6 * (r.ret - r.sent));
    (r.kind == kWrite ? write_lat : read_lat).push_back(1e3 * r.latency());
  }
  const double read_p50 = median(read_lat);
  const Tail read_tail = supported_tail(read_lat, 99);
  const Tail write_tail = supported_tail(write_lat, 95);
  rep.attempted(ref_attempted);
  rep.failed(ref_failed);
  rep.info("ref_requests", static_cast<double>(ref_attempted), "count");
  rep.info("ref_failed_frac",
           static_cast<double>(ref_failed) / static_cast<double>(ref_attempted),
           "frac");
  rep.info("read_samples", static_cast<double>(read_lat.size()), "count");
  rep.info("read_p50_ms", read_p50, "ms");
  rep.info("read_tail_pct", read_tail.pct, "pct");
  rep.info("read_tail_ms", read_tail.value, "ms");
  // Each half's median read latency: how far the host drifted in the run.
  auto half_p50 = [&](std::size_t begin, std::size_t end) {
    std::vector<double> lat;
    for (std::size_t i = begin; i < end; ++i)
      if (reqs[i].kind != kWrite) lat.push_back(1e3 * reqs[i].latency());
    return median(lat);
  };
  rep.info("read_p50_first_ms", half_p50(first_begin, first_end), "ms");
  rep.info("read_p50_last_ms", half_p50(last_begin, reqs.size()), "ms");
  if (w.write_frac > 0) {
    rep.info("write_samples", static_cast<double>(write_lat.size()), "count");
    rep.info("write_p50_ms", median(write_lat), "ms");
    rep.info("write_tail_pct", write_tail.pct, "pct");
    rep.info("write_tail_ms", write_tail.value, "ms");
  }

  // ---- verification (excluded from every metric above)
  std::map<std::pair<std::size_t, int>, std::uint64_t> direct;
  std::uint64_t bad = 0;
  for (const auto& [idx, h] : hashes) {
    const Req& r = reqs[idx];
    const int box = r.kind == kRegion ? r.box : -1;
    auto it = direct.find({r.tenant, box});
    if (it == direct.end()) {
      const auto& tn = s.tenants[r.tenant];
      Tensor<double> out;
      if (box < 0) {
        const auto packs = core::prepack_factors(tn.model);
        core::reconstruct_into(tn.model, out, &packs);
      } else {
        out = tn.model.reconstruct_region(tn.boxes[box].lo, tn.boxes[box].hi);
      }
      it = direct.emplace(std::make_pair(r.tenant, box), hash_tensor(out)).first;
    }
    if (it->second != h) ++bad;
  }
  rep.info("hashed_reads", static_cast<double>(hashes.size()), "count");
  if (bad > 0) {
    rep.failed(bad);
    rep.gate_failed(std::to_string(bad) + " hashed reads differ from direct reconstruction");
  }
  std::uint64_t bad_writes = 0;
  for (const auto& [idx, tk] : kept_writes) {
    const double err = core::relative_error(*s.writes[reqs[idx].pool], tk);
    if (!(err <= kWriteTolerance)) ++bad_writes;
  }
  if (w.write_frac > 0)
    rep.info("checked_writes", static_cast<double>(kept_writes.size()), "count");
  if (bad_writes > 0) {
    rep.failed(bad_writes);
    rep.gate_failed(std::to_string(bad_writes) + " served writes above tolerance");
  }
  // What readers receive: each tenant's true error within the bound sthosvd
  // certified for it. At fixed ranks the error can pass the tolerance the
  // ranks stand for; the worst ratio is printed.
  double tenant_elems = 0, over_tolerance = 0;
  for (const Tenant& tn : s.tenants) {
    const double err = core::relative_error(tn.x, tn.model);
    if (!(err <= 1.01 * tn.estimated_error))
      rep.gate_failed("a tenant model is less accurate than sthosvd certified");
    if (tn.tolerance > 0) over_tolerance = std::max(over_tolerance, err / tn.tolerance);
    tenant_elems += static_cast<double>(tn.x.size());
  }
  rep.info("tenant_error_over_tolerance_max", over_tolerance, "ratio");
  const auto opt = serve_options();
  rep.meta("serve_options",
           "workers=" + std::to_string(opt.workers) +
               " queue_depth=" + std::to_string(opt.queue_depth) +
               " batch_max=" + std::to_string(tucker::tune::serve_batch_max()) +
               " batch_wait_us=" +
               std::to_string(tucker::tune::serve_batch_wait_us()) +
               " flop_budget=" + std::to_string(tucker::tune::serve_flop_budget()) +
               " cache_models=" +
               std::to_string(tucker::tune::serve_cache_models()));
  rep.meta("input_bytes", std::to_string(static_cast<std::size_t>(
                              tenant_elems * sizeof(double))));
  rep.meta("schedule", "warmup " + std::to_string(warm) + " s, reference " +
                           std::to_string(ref / 2) + " s with " +
                           std::to_string(kRefCallers) + " callers, saturation " +
                           std::to_string(sat) + " s with " +
                           std::to_string(kCallers) + " callers, reference " +
                           std::to_string(ref / 2) + " s");

  if (!a.trace) {
    rep.metric("setup_s", median(setup_t));
    rep.metric("peak_rss_mb", peak);
    rep.metric("latency_ms", read_p50);
    rep.metric("ops_per_s", sat_ops);
    return;
  }

  // ---- per-layer metrics; the direct timings run alone, at worker width.
  const BatchStats bref = batch_stats({&ref_first, &ref_last});
  const BatchStats bsat = batch_stats({&sat_win});
  std::size_t arena_hw = 0;
  for (const auto& ws : final_stats.workers)
    arena_hw = std::max(arena_hw, ws.arena_high_water);

  // direct_ms[tenant][0] is a full read, [1 + box] a region read.
  std::vector<std::vector<double>> direct_ms(ntenants);
  double full_ms = 0, region_ms = 0;
  {
    parallel::ThreadWidthCap cap(1);
    for (std::size_t i = 0; i < ntenants; ++i) {
      const auto& tn = s.tenants[i];
      const auto packs = core::prepack_factors(tn.model);
      Tensor<double> out;
      std::vector<double> tf;
      for (int r = 0; r < 17; ++r) {
        const double q = now_s();
        core::reconstruct_into(tn.model, out, &packs);
        if (r >= 2) tf.push_back(1e3 * (now_s() - q));
      }
      direct_ms[i].push_back(median(tf));
      for (const auto& b : tn.boxes) {
        std::vector<double> tg;
        for (int r = 0; r < 3; ++r) {
          const double q = now_s();
          out = tn.model.reconstruct_region(b.lo, b.hi);
          tg.push_back(1e3 * (now_s() - q));
        }
        direct_ms[i].push_back(median(tg));
      }
      const std::vector<double> regions(direct_ms[i].begin() + 1,
                                        direct_ms[i].end());
      full_ms += zipf_p[i] * direct_ms[i][0];
      region_ms += zipf_p[i] * median(regions);
    }
    if (w.write_frac > 0) {
      std::vector<double> tc;
      for (int r = 0; r < 3; ++r) {
        const double q = now_s();
        core::sthosvd(*s.writes[0], core::TruncationSpec::tolerance(kWriteTolerance),
                      core::SvdMethod::kQr, core::SthosvdOptions{});
        tc.push_back(now_s() - q);
      }
      rep.metric("core.compress_direct_ms", 1e3 * median(tc));
    }
  }
  rep.metric("data.generate_s", median(gen_t));
  rep.metric("core.reconstruct_ms", full_ms);
  rep.metric("core.region_ms", region_ms);
  rep.metric("serve.read_p99_ms", read_tail.value);
  if (w.write_frac > 0) {
    rep.metric("serve.write_p50_ms", median(write_lat));
    rep.metric("serve.write_tail_ms", write_tail.value);
  }
  rep.metric("serve.submit_p99_us", quantile(submit, 0.99));
  // What serving adds to each read beyond executing it directly: hand-off,
  // planning and fulfilment.
  std::vector<double> overhead;
  for (const Req& r : reqs)
    if (r.phase == kRef && r.kind != kWrite && !r.failed())
      overhead.push_back(1e3 * r.latency() -
                         direct_ms[r.tenant][r.kind == kFull ? 0 : 1 + r.box]);
  rep.metric("serve.overhead_ms", median(overhead));
  rep.metric("serve.batch_mean_ref", bref.mean);
  rep.metric("serve.batch_mean_sat", bsat.mean);
  rep.metric("serve.batched_frac_ref", bref.batched_frac);
  rep.metric("serve.batched_frac_sat", bsat.batched_frac);
  rep.metric("serve.flops_saved_frac_ref", bref.flops_saved_frac);
  rep.metric("serve.flops_saved_frac_sat", bsat.flops_saved_frac);
  rep.metric("serve.queue_high_water",
             static_cast<double>(final_stats.queue_high_water));
  rep.metric("serve.shed_frac", static_cast<double>(ref_shed) /
                                    static_cast<double>(ref_attempted));
  rep.metric("serve.arena_high_water_mb",
             static_cast<double>(arena_hw) / (1 << 20));
  rep.metric("serve.pack_mb",
             static_cast<double>(final_stats.model_pack_bytes) / (1 << 20));
  if (tr.dropped() > 0) rep.gate_failed("trace capacity exceeded");
  const std::string path = a.out_dir + "/trace_" + w.name + ".json";
  tr.write_chrome(path);
  rep.meta("trace_file", path);
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  for (const auto& w : kServeWorkloads)
    if (name == w.name) return true;
  return false;
}

void run_serve(const Args& args, Report& rep) {
  for (const auto& w : kServeWorkloads)
    if (args.workload == w.name) run_workload(w, args, rep);
}

}  // namespace bench
