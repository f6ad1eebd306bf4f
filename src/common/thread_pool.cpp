#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/flops.hpp"
#include "common/workspace.hpp"

namespace tucker::parallel {

namespace {

thread_local int t_width_cap = 0;  // 0 = uncapped
thread_local bool t_is_worker = false;

int default_width() {
  if (const char* s = std::getenv("TUCKER_NUM_THREADS")) {
    const int v = std::atoi(s);
    // Clamp: a width beyond any real machine is operator error, and
    // actually spawning it aborts on thread-creation failure (EAGAIN)
    // instead of degrading. 256 comfortably covers the widths the pool
    // can exploit while keeping hostile/garbage values safe.
    if (v >= 1) return std::min(v, 256);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

using Body = std::function<void(index_t, index_t, index_t)>;  // (chunk, lo, hi)

// One fanout's state. The pool keeps a record per pool thread and reuses
// them, so a fanout allocates nothing but what copying its body takes
// (none for parallel_for's one-pointer wrapper). A worker that takes a
// record counts itself in `holders` until it has stopped reading it, and
// the submitter reuses only a record no worker holds: a worker that wakes
// late still finds its record intact, with no chunks left, and lets it go.
struct Fanout {
  index_t begin = 0;
  index_t nchunks = 0;
  index_t base = 0;  // chunk sizes: first `rem` chunks get base + 1
  index_t rem = 0;
  Body body;  // copied in; parallel_for's wrapper fits the small buffer
  std::atomic<index_t> next{0};
  std::atomic<index_t> done{0};
  std::atomic<std::int64_t> worker_flops{0};
  std::atomic<std::int64_t> worker_traffic{0};
  std::exception_ptr eptr;
  std::mutex eptr_mutex;
  std::atomic<int> holders{0};

  void start(index_t b, index_t n, index_t bs, index_t r, const Body& fn) {
    begin = b;
    nchunks = n;
    base = bs;
    rem = r;
    body = fn;
    next.store(0, std::memory_order_relaxed);
    done.store(0, std::memory_order_relaxed);
    worker_flops.store(0, std::memory_order_relaxed);
    worker_traffic.store(0, std::memory_order_relaxed);
    eptr = nullptr;
  }

  void chunk_bounds(index_t t, index_t& lo, index_t& hi) const {
    lo = begin + t * base + std::min(t, rem);
    hi = lo + base + (t < rem ? 1 : 0);
  }
};

// What a finished fanout hands back to its submitter.
struct FanoutResult {
  std::int64_t worker_flops = 0;
  std::int64_t worker_traffic = 0;
  std::exception_ptr eptr;
};

class Pool {
 public:
  static Pool& instance() {
    static Pool* p = new Pool();  // never destroyed: workers outlive main
    return *p;
  }

  int width() {
    std::lock_guard<std::mutex> g(config_mutex_);
    ensure_started_locked();
    return width_;
  }

  void set_width(int n) {
    std::lock_guard<std::mutex> g(config_mutex_);
    stop_workers_locked();
    width_ = std::max(1, n);
    start_workers_locked();
  }

  // Runs chunks [0, nchunks) of fn on the workers and the calling thread.
  // Returns only after every chunk has completed.
  FanoutResult run(index_t begin, index_t nchunks, index_t base, index_t rem,
                   const Body& fn) {
    {
      std::lock_guard<std::mutex> g(config_mutex_);
      ensure_started_locked();
    }
    // One fanout at a time: a second top-level submitter (e.g. another
    // simmpi rank granted width > 1) just runs its chunks inline on a
    // private record, which is correct because chunk placement never
    // affects results.
    std::unique_lock<std::mutex> submit(submit_mutex_, std::try_to_lock);
    if (!submit.owns_lock()) {
      Fanout own;
      own.start(begin, nchunks, base, rem, fn);
      drain(own, /*on_worker=*/false);
      return {0, 0, own.eptr};
    }
    Fanout& job = free_record();
    job.start(begin, nchunks, base, rem, fn);
    {
      std::lock_guard<std::mutex> g(wake_mutex_);
      current_ = &job;
      ++generation_;
    }
    wake_cv_.notify_all();
    drain(job, /*on_worker=*/false);
    wait_done(job);
    {
      std::lock_guard<std::mutex> g(wake_mutex_);
      current_ = nullptr;
    }
    return {job.worker_flops.load(std::memory_order_relaxed),
            job.worker_traffic.load(std::memory_order_relaxed), job.eptr};
  }

 private:
  Pool() = default;

  void ensure_started_locked() {
    if (width_ == 0) {
      width_ = default_width();
      start_workers_locked();
    }
  }

  void start_workers_locked() {
    shutdown_ = false;
    while (records_.size() < static_cast<std::size_t>(width_))
      records_.push_back(std::make_unique<Fanout>());
    const int nworkers = width_ - 1;
    workers_.reserve(static_cast<std::size_t>(nworkers));
    for (int i = 0; i < nworkers; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  void stop_workers_locked() {
    {
      std::lock_guard<std::mutex> g(wake_mutex_);
      shutdown_ = true;
      ++generation_;
    }
    wake_cv_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
  }

  // A record no worker holds. Called with submit_mutex_ held and no record
  // published, so no worker can take the one returned. Each worker holds
  // at most one record and there is one per pool thread, so one is free.
  Fanout& free_record() {
    for (const auto& r : records_)
      if (r->holders.load(std::memory_order_acquire) == 0) return *r;
    records_.push_back(std::make_unique<Fanout>());  // unreachable
    return *records_.back();
  }

  void worker_loop() {
    t_is_worker = true;
    std::uint64_t seen = 0;
    for (;;) {
      Fanout* job;
      {
        std::unique_lock<std::mutex> lk(wake_mutex_);
        wake_cv_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
        job = current_;
        if (job) job->holders.fetch_add(1, std::memory_order_relaxed);
      }
      if (job) {
        drain(*job, /*on_worker=*/true);
        job->holders.fetch_sub(1, std::memory_order_release);
      }
    }
  }

  // Claims and executes chunks until none remain. Exceptions are captured
  // (first wins) rather than aborting the remaining chunks, so `done`
  // always reaches nchunks and the submitter can rethrow deterministically.
  // Every chunk runs on its thread's chunk arena, so no chunk's scratch
  // lands in the submitter's own arena, whichever chunks it claims.
  void drain(Fanout& job, bool on_worker) {
    for (;;) {
      const index_t t = job.next.fetch_add(1, std::memory_order_relaxed);
      if (t >= job.nchunks) break;
      index_t lo, hi;
      job.chunk_bounds(t, lo, hi);
      const std::int64_t flops0 = on_worker ? thread_flops() : 0;
      const std::int64_t bytes0 = on_worker ? thread_traffic() : 0;
      try {
        const Workspace::ChunkScope chunk_arena;
        job.body(t, lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> g(job.eptr_mutex);
        if (!job.eptr) job.eptr = std::current_exception();
      }
      if (on_worker) {
        job.worker_flops.fetch_add(thread_flops() - flops0,
                                   std::memory_order_relaxed);
        job.worker_traffic.fetch_add(thread_traffic() - bytes0,
                                     std::memory_order_relaxed);
      }
      if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          job.nchunks) {
        std::lock_guard<std::mutex> g(done_mutex_);
        done_cv_.notify_all();
      }
    }
  }

  void wait_done(Fanout& job) {
    std::unique_lock<std::mutex> lk(done_mutex_);
    done_cv_.wait(lk, [&] {
      return job.done.load(std::memory_order_acquire) == job.nchunks;
    });
  }

  std::mutex config_mutex_;  // worker lifecycle
  std::mutex submit_mutex_;  // one fanout at a time
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  Fanout* current_ = nullptr;  // the published fanout, if any
  // One per pool thread, made with the workers; picked by the holder of
  // submit_mutex_.
  std::vector<std::unique_ptr<Fanout>> records_;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  int width_ = 0;  // 0 = not yet started
  std::vector<std::thread> workers_;
};

void run_indexed(index_t begin, index_t end, index_t grain,
                 const std::function<void(index_t, index_t, index_t)>& fn) {
  const index_t nchunks = num_chunks(begin, end, grain);
  if (nchunks == 0) return;
  const index_t range = end - begin;
  const index_t base = range / nchunks;
  const index_t rem = range % nchunks;

  if (nchunks == 1 || this_thread_width() <= 1) {
    // Inline execution, same chunk boundaries: bitwise-identical to the
    // fanned-out run for any kernel honoring the disjointness contract.
    index_t lo = begin;
    for (index_t t = 0; t < nchunks; ++t) {
      const index_t hi = lo + base + (t < rem ? 1 : 0);
      fn(t, lo, hi);
      lo = hi;
    }
    return;
  }

  const FanoutResult res =
      Pool::instance().run(begin, nchunks, base, rem, fn);
  // Worker-side flops belong to the logical computation this thread
  // submitted; fold them into its counter.
  if (res.worker_flops != 0) add_flops(res.worker_flops);
  if (res.worker_traffic != 0) add_traffic(res.worker_traffic);
  if (res.eptr) std::rethrow_exception(res.eptr);
}

}  // namespace

int max_threads() { return Pool::instance().width(); }

void set_max_threads(int n) { Pool::instance().set_width(n); }

int this_thread_width() {
  if (t_is_worker) return 1;
  const int w = max_threads();
  return t_width_cap > 0 ? std::min(w, t_width_cap) : w;
}

ThreadWidthCap::ThreadWidthCap(int cap) : prev_(t_width_cap) {
  t_width_cap = std::max(1, cap);
}

ThreadWidthCap::~ThreadWidthCap() { t_width_cap = prev_; }

index_t num_chunks(index_t begin, index_t end, index_t grain) {
  if (end <= begin) return 0;
  const index_t g = std::max<index_t>(1, grain);
  return (end - begin + g - 1) / g;
}

void parallel_for(index_t begin, index_t end, index_t grain,
                  const std::function<void(index_t, index_t)>& fn) {
  run_indexed(begin, end, grain,
              [&fn](index_t, index_t lo, index_t hi) { fn(lo, hi); });
}

void parallel_for_chunks(
    index_t begin, index_t end, index_t grain,
    const std::function<void(index_t, index_t, index_t)>& fn) {
  run_indexed(begin, end, grain, fn);
}

}  // namespace tucker::parallel
