#pragma once
// Multi-tenant batched serving layer: a long-lived decomposition /
// reconstruction service over the library's deterministic kernels.
//
// Architecture (DESIGN.md Sec 14):
//
//   submit -> price (serve/admission.hpp) -> BoundedQueue -> worker pool
//
// Each worker is a plain std::thread layered on tucker::parallel:
//   * width-capped to max_threads()/workers (ThreadWidthCap), so W workers
//     collectively never oversubscribe the pool; the cap changes only how
//     far each kernel fans out, never its bits;
//   * owner of its thread-local Workspace arena, reset() (not released)
//     between requests: after warm-up a steady-state request performs zero
//     heap allocation inside the kernels, and the high-water mark each
//     worker reports is the arena footprint serving actually needs.
//
// Two request kinds. Compress runs the full ST-HOSVD with a per-request
// spec/method/options. Reconstruct is the TTM-only fast path: the model's
// factors were prepacked at registration (serve/model_cache.hpp), so a
// request is just the ping-pong TTM chain of core::reconstruct_into over
// cached panels -- no SVD, no pack_a, no steady-state allocation.
//
// Cross-request batching (DESIGN.md Sec 15): with batch_max > 1 a worker
// drains up to batch_max queued reconstructions of one (model, accum)
// fusion key as a single fused job -- per-tenant round-robin across keys,
// FIFO within a key (BoundedQueue::pop_group). The batch planner
// (serve/batch.hpp) dedups identical demand boxes, answers region
// requests out of a fused full reconstruction where bitwise-safe, and
// runs the remaining chains through core::reconstruct_batch_into, whose
// per-mode multi-RHS prepacked TTM passes stream each factor panel
// through cache once for the whole batch. Fused requests are re-priced at
// their *marginal* modeled cost and the difference refunded to admission.
//
// Determinism contract: every kernel underneath is bitwise-invariant to
// thread width, no policy choice consults the width, and workers share no
// mutable per-request state. A served compress therefore runs exactly the
// offline core::sthosvd code and returns its bits at any pool width and
// worker count, and responses are bitwise identical across worker counts,
// queue interleavings, and batch compositions (pinned by
// tests/serve_test.cpp and tests/serve_batch_test.cpp).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "core/sthosvd.hpp"
#include "core/svd_engine.hpp"
#include "core/tucker_tensor.hpp"
#include "serve/admission.hpp"
#include "serve/batch.hpp"
#include "serve/model_cache.hpp"
#include "serve/queue.hpp"

namespace tucker::serve {

struct ServeOptions {
  /// Worker threads; 0 = one worker per hardware thread.
  int workers = 0;
  /// Request-queue depth: try_submit sheds beyond it.
  std::size_t queue_depth = 64;
  /// Modeled-flop admission budget. 0 = unlimited.
  double flop_budget = 0;
  /// Tests: construct stopped, enqueue a fixed batch, then start() -- a
  /// deterministic interleaving for shed and ordering assertions.
  bool autostart = true;
  /// Largest fused reconstruction batch. 1 disables batching (strict-FIFO
  /// pop, the pre-batching behavior).
  std::size_t batch_max = 8;
  /// Microseconds a worker holding a partial batch lingers for more
  /// same-key arrivals. 0 = take only what is already queued.
  long batch_wait_us = 0;
  /// Model-cache LRU capacity in models. 0 = unbounded.
  std::size_t cache_models = 0;
};

template <class T>
struct CompressRequest {
  /// shared_ptr so the caller can keep the tensor or hand it off; the
  /// service holds it only while the request is in flight.
  std::shared_ptr<const tensor::Tensor<T>> x;
  core::TruncationSpec spec;
  core::SvdMethod method = core::SvdMethod::kQr;
  core::SthosvdOptions opt;
};

template <class T>
struct CompressResponse {
  core::SthosvdResult<T> result;
  RequestCost cost;
  double latency_seconds = 0;  // submit -> response, wall clock
};

template <class T>
struct ReconstructRequest {
  ModelId model = 0;
  /// Optional region of interest, one [lo, hi) per mode; empty = full
  /// reconstruction (the prepacked fast path -- regions take the plain
  /// reconstruct_region route since their row slices defeat the panel).
  std::vector<index_t> lo, hi;
  Accum accum = Accum::kNative;
  /// Optional client-owned response buffer: the worker reconstructs
  /// directly into *out and the response's tensor stays empty. Tensors
  /// grow but never shrink, so a client cycling the same buffer makes its
  /// steady-state requests allocation-free end to end (no fresh response
  /// tensor, no zero-initialization pass). The buffer must stay alive and
  /// untouched until the future resolves, and must not be shared between
  /// in-flight requests.
  std::shared_ptr<tensor::Tensor<T>> out;
};

template <class T>
struct ReconstructResponse {
  tensor::Tensor<T> tensor;
  RequestCost cost;
  double latency_seconds = 0;
};

struct WorkerStats {
  std::uint64_t requests = 0;
  std::size_t arena_high_water = 0;  // Workspace::high_water()
  std::size_t arena_reserved = 0;    // Workspace::bytes_reserved()
};

struct ServeStats {
  std::uint64_t compress_done = 0;
  std::uint64_t reconstruct_done = 0;
  std::uint64_t shed_budget = 0;  // refused by the admission controller
  std::uint64_t shed_queue = 0;   // refused by a full queue (try_submit)
  std::size_t queue_high_water = 0;
  double in_flight_flops = 0;
  std::size_t model_count = 0;
  std::size_t model_pack_bytes = 0;
  std::uint64_t batches_done = 0;      // fused groups (>= 2 requests) run
  std::uint64_t batched_requests = 0;  // requests answered inside them
  std::size_t batch_size_high_water = 0;
  double batched_flops_saved = 0;  // admission refunds (marginal pricing)
  std::uint64_t model_evictions = 0;  // LRU cache evictions
  std::vector<WorkerStats> workers;
};

template <class T>
class Service {
 public:
  explicit Service(ServeOptions opt = {})
      : opt_(normalize(opt)),
        queue_(opt_.queue_depth),
        admission_(opt_.flop_budget),
        models_(opt_.cache_models) {
    if (opt_.autostart) start();
  }
  ~Service() { stop(); }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  int workers() const { return opt_.workers; }

  /// Registers a tenant's model for reconstruction serving; prepacks its
  /// factors once. Returns the id ReconstructRequest::model refers to.
  ModelId register_model(core::TuckerTensor<T> m) {
    return models_.insert(std::move(m));
  }
  bool unregister_model(ModelId id) { return models_.erase(id); }

  /// Blocking submit: waits for queue space; nullopt only when the
  /// admission budget sheds the request or the service is stopped.
  std::optional<std::future<CompressResponse<T>>> submit(
      CompressRequest<T> req) {
    return submit_compress(std::move(req), /*blocking=*/true);
  }
  std::optional<std::future<ReconstructResponse<T>>> submit(
      ReconstructRequest<T> req) {
    return submit_reconstruct(std::move(req), /*blocking=*/true);
  }

  /// Nonblocking submit: additionally sheds when the queue is full.
  std::optional<std::future<CompressResponse<T>>> try_submit(
      CompressRequest<T> req) {
    return submit_compress(std::move(req), /*blocking=*/false);
  }
  std::optional<std::future<ReconstructResponse<T>>> try_submit(
      ReconstructRequest<T> req) {
    return submit_reconstruct(std::move(req), /*blocking=*/false);
  }

  /// Launches the worker pool (idempotent). With autostart this already
  /// happened in the constructor.
  void start() {
    if (started_) return;
    started_ = true;
    worker_stats_ = std::vector<SlotStats>(opt_.workers);
    threads_.reserve(opt_.workers);
    for (int w = 0; w < opt_.workers; ++w)
      threads_.emplace_back([this, w] { worker_main(w); });
  }

  /// Waits until every accepted request has produced its response.
  void drain() {
    std::unique_lock<std::mutex> lk(done_mu_);
    done_cv_.wait(lk, [&] { return done_ == accepted_; });
  }

  /// Closes the queue, lets workers finish everything accepted, joins
  /// them. After stop() every submit is shed; the service is one-shot.
  void stop() {
    queue_.close();
    for (auto& th : threads_)
      if (th.joinable()) th.join();
    threads_.clear();
  }

  ServeStats stats() const {
    ServeStats s;
    s.compress_done = compress_done_.load(std::memory_order_relaxed);
    s.reconstruct_done = reconstruct_done_.load(std::memory_order_relaxed);
    s.shed_budget = admission_.shed();
    s.shed_queue = shed_queue_.load(std::memory_order_relaxed);
    s.queue_high_water = queue_.high_water();
    s.in_flight_flops = admission_.in_flight_flops();
    s.model_count = models_.size();
    s.model_pack_bytes = models_.pack_bytes();
    s.batches_done = batches_done_.load(std::memory_order_relaxed);
    s.batched_requests = batched_requests_.load(std::memory_order_relaxed);
    s.batch_size_high_water =
        batch_high_water_.load(std::memory_order_relaxed);
    s.batched_flops_saved = flops_saved_.load(std::memory_order_relaxed);
    s.model_evictions = models_.evictions();
    s.workers.reserve(worker_stats_.size());
    for (const auto& ws : worker_stats_) {
      WorkerStats w;
      w.requests = ws.requests.load(std::memory_order_relaxed);
      w.arena_high_water = ws.arena_high_water.load(std::memory_order_relaxed);
      w.arena_reserved = ws.arena_reserved.load(std::memory_order_relaxed);
      s.workers.push_back(w);
    }
    return s;
  }

 private:
  using Clock = std::chrono::steady_clock;

  enum class Kind { kCompress, kReconstruct };

  struct Task {
    Kind kind;
    CompressRequest<T> creq;
    ReconstructRequest<T> rreq;
    std::promise<CompressResponse<T>> cpromise;
    std::promise<ReconstructResponse<T>> rpromise;
    RequestCost cost;
    Clock::time_point submitted;
    std::uint64_t batch_key = 0;  // serve::fuse_key; 0 = never fuses
    bool fusable = false;
  };

  struct SlotStats {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::size_t> arena_high_water{0};
    std::atomic<std::size_t> arena_reserved{0};
  };

  static ServeOptions normalize(ServeOptions o) {
    if (o.workers <= 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      o.workers = hw == 0 ? 1 : static_cast<int>(hw);
    }
    return o;
  }

  std::optional<std::future<CompressResponse<T>>> submit_compress(
      CompressRequest<T> req, bool blocking) {
    TUCKER_CHECK(req.x != nullptr, "serve: compress request needs a tensor");
    auto task = std::make_unique<Task>();
    task->kind = Kind::kCompress;
    task->cost =
        compress_cost(req.x->dims(), req.spec, req.method, req.opt, sizeof(T));
    task->creq = std::move(req);
    auto fut = task->cpromise.get_future();
    if (!enqueue(std::move(task), blocking)) return std::nullopt;
    return fut;
  }

  std::optional<std::future<ReconstructResponse<T>>> submit_reconstruct(
      ReconstructRequest<T> req, bool blocking) {
    auto sm = models_.find(req.model);
    if (sm == nullptr) return std::nullopt;  // unknown/evicted tenant model
    auto task = std::make_unique<Task>();
    task->kind = Kind::kReconstruct;
    // Regions are priced at their own (smaller) TTM chain; malformed
    // region bounds keep the full price and stay unfusable, so the worker
    // runs them alone and they hit the same fail-fast TUCKER_CHECK the
    // unbatched path fires -- a bad request never takes a batch with it.
    bool valid = true;
    if (!req.lo.empty() || !req.hi.empty()) {
      const std::size_t nm = sm->model.factors.size();
      valid = req.lo.size() == nm && req.hi.size() == nm;
      for (std::size_t n = 0; valid && n < nm; ++n)
        valid = 0 <= req.lo[n] && req.lo[n] <= req.hi[n] &&
                req.hi[n] <= sm->model.factors[n].rows();
      task->cost = valid ? region_cost(sm->model.core_dims(), req.lo, req.hi,
                                       sizeof(T))
                         : sm->cost;
    } else {
      task->cost = sm->cost;
    }
    task->batch_key = fuse_key(req.model, req.accum);
    task->fusable = valid;
    task->rreq = std::move(req);
    auto fut = task->rpromise.get_future();
    if (!enqueue(std::move(task), blocking)) return std::nullopt;
    return fut;
  }

  bool enqueue(std::unique_ptr<Task> task, bool blocking) {
    const RequestCost cost = task->cost;
    if (!admission_.try_admit(cost)) return false;
    task->submitted = Clock::now();
    {
      std::lock_guard<std::mutex> lk(done_mu_);
      ++accepted_;
    }
    const bool ok = blocking ? queue_.push(std::move(task))
                             : queue_.try_push(std::move(task));
    if (!ok) {
      admission_.release(cost);
      shed_queue_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lk(done_mu_);
        --accepted_;
      }
      done_cv_.notify_all();
      return false;
    }
    return true;
  }

  void worker_main(int slot) {
    // Cap so all workers together match the pool. The cap bounds how far
    // each kernel fans out; results do not depend on it.
    parallel::ThreadWidthCap cap(
        std::max(1, parallel::max_threads() / opt_.workers));
    Workspace& arena = Workspace::local();
    const auto wait = std::chrono::microseconds(opt_.batch_wait_us);
    std::vector<std::unique_ptr<Task>> group;
    while (true) {
      if (opt_.batch_max <= 1) {
        // Batching disabled: strict-FIFO pop, the pre-batching behavior.
        auto task = queue_.pop();
        if (!task) break;
        group.clear();
        group.push_back(std::move(*task));
      } else {
        group = queue_.pop_group(
            opt_.batch_max, wait, [](const std::unique_ptr<Task>& t) {
              return std::pair<std::uint64_t, bool>(t->batch_key, t->fusable);
            });
        if (group.empty()) break;
      }
      if (group.size() == 1) {
        process(*group.front());  // the exact unbatched path
      } else {
        process_group(group);
      }
      const std::uint64_t n = group.size();
      group.clear();  // drop tasks before reporting them done
      arena.reset();  // rewind (and, in debug, poison) -- never frees
      auto& st = worker_stats_[static_cast<std::size_t>(slot)];
      st.requests.fetch_add(n, std::memory_order_relaxed);
      st.arena_high_water.store(arena.high_water(),
                                std::memory_order_relaxed);
      st.arena_reserved.store(arena.bytes_reserved(),
                              std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lk(done_mu_);
        done_ += n;
      }
      done_cv_.notify_all();
    }
  }

  void process(Task& task) {
    try {
      if (task.kind == Kind::kCompress) {
        CompressResponse<T> resp;
        resp.cost = task.cost;
        resp.result = core::sthosvd(*task.creq.x, task.creq.spec,
                                    task.creq.method, task.creq.opt);
        task.creq.x.reset();  // drop the input before fulfilling
        resp.latency_seconds = seconds_since(task.submitted);
        admission_.release(task.cost);
        compress_done_.fetch_add(1, std::memory_order_relaxed);
        task.cpromise.set_value(std::move(resp));
      } else {
        auto sm = models_.find(task.rreq.model);
        TUCKER_CHECK(sm != nullptr,
                     "serve: model unregistered while request in flight");
        ReconstructResponse<T> resp;
        resp.cost = task.cost;
        tensor::Tensor<T>* dst =
            task.rreq.out ? task.rreq.out.get() : &resp.tensor;
        if (task.rreq.lo.empty()) {
          core::reconstruct_into(sm->model, *dst, &sm->packs,
                                 task.rreq.accum);
        } else {
          *dst = sm->model.reconstruct_region(task.rreq.lo, task.rreq.hi);
        }
        task.rreq.out.reset();  // drop the buffer ref before fulfilling
        resp.latency_seconds = seconds_since(task.submitted);
        admission_.release(task.cost);
        reconstruct_done_.fetch_add(1, std::memory_order_relaxed);
        task.rpromise.set_value(std::move(resp));
      }
    } catch (...) {
      admission_.release(task.cost);
      if (task.kind == Kind::kCompress)
        task.cpromise.set_exception(std::current_exception());
      else
        task.rpromise.set_exception(std::current_exception());
    }
  }

  // A fused group: every task is a reconstruction against the same
  // (model, accum) fusion key -- pop_group only groups equal keys, and
  // every box was validated at submit (fusable). Plans the batch, refunds
  // the marginal-pricing difference, runs the fused chains, materializes
  // gathers/copies, then fulfills promises in task order. Any failure
  // rejects every not-yet-fulfilled promise with the same exception the
  // unbatched path would surface.
  void process_group(std::vector<std::unique_ptr<Task>>& group) {
    const std::size_t m = group.size();
    std::vector<ReconstructResponse<T>> resps(m);
    std::vector<char> fulfilled(m, 0);
    auto dst = [&](std::size_t i) -> tensor::Tensor<T>* {
      return group[i]->rreq.out ? group[i]->rreq.out.get() : &resps[i].tensor;
    };
    try {
      auto sm = models_.find(group[0]->rreq.model);
      TUCKER_CHECK(sm != nullptr,
                   "serve: model unregistered while request in flight");
      const Accum accum = group[0]->rreq.accum;
      const double full_elems =
          static_cast<double>(tensor::num_elements(sm->model.full_dims()));

      auto& plan = Workspace::local().stash<FusedPlan>("serve.batch.plan");
      auto& items =
          Workspace::local().stash<std::vector<PlanItem>>("serve.batch.items");
      items.clear();
      for (std::size_t i = 0; i < m; ++i) {
        const auto& r = group[i]->rreq;
        PlanItem it;
        it.admitted = group[i]->cost;
        if (!r.lo.empty()) {
          it.lo = &r.lo;
          it.hi = &r.hi;
          double e = 1;
          for (std::size_t n = 0; n < r.lo.size(); ++n)
            e *= static_cast<double>(r.hi[n] - r.lo[n]);
          it.elems = e;
        } else {
          it.elems = full_elems;
        }
        items.push_back(it);
      }
      plan_batch(items, accum, sizeof(T), plan);

      // Refund the marginal-pricing difference the moment the plan is
      // fixed: a copy/gather request keeps only its scatter bytes, so its
      // completion release below balances its admission charge exactly.
      for (std::size_t i = 0; i < m; ++i) {
        if (plan.assign[i].src == FusedPlan::Source::kChain) continue;
        admission_.release({group[i]->cost.flops, 0});
        group[i]->cost = plan.marginal[i];
      }
      add_flops_saved(plan.flops_saved);

      std::vector<core::DemandBox> boxes;
      std::vector<tensor::Tensor<T>*> outs;
      boxes.reserve(plan.chain_tasks.size());
      outs.reserve(plan.chain_tasks.size());
      for (std::size_t c : plan.chain_tasks) {
        core::DemandBox b;
        if (!group[c]->rreq.lo.empty()) {
          b.lo = group[c]->rreq.lo;
          b.hi = group[c]->rreq.hi;
        }
        boxes.push_back(std::move(b));
        outs.push_back(dst(c));
      }
      core::reconstruct_batch_into(sm->model, boxes, outs, &sm->packs, accum);
      for (std::size_t i = 0; i < m; ++i)
        if (plan.assign[i].src == FusedPlan::Source::kGather)
          core::gather_region_into(*dst(plan.assign[i].ref),
                                   group[i]->rreq.lo, group[i]->rreq.hi,
                                   *dst(i));
      for (std::size_t i = 0; i < m; ++i)
        if (plan.assign[i].src == FusedPlan::Source::kCopy)
          *dst(i) = *dst(plan.assign[i].ref);

      batches_done_.fetch_add(1, std::memory_order_relaxed);
      batched_requests_.fetch_add(m, std::memory_order_relaxed);
      std::size_t hw = batch_high_water_.load(std::memory_order_relaxed);
      while (m > hw && !batch_high_water_.compare_exchange_weak(
                           hw, m, std::memory_order_relaxed)) {
      }

      for (std::size_t i = 0; i < m; ++i) {
        auto& task = *group[i];
        resps[i].cost = task.cost;
        task.rreq.out.reset();  // drop the buffer ref before fulfilling
        resps[i].latency_seconds = seconds_since(task.submitted);
        admission_.release(task.cost);
        reconstruct_done_.fetch_add(1, std::memory_order_relaxed);
        fulfilled[i] = 1;
        task.rpromise.set_value(std::move(resps[i]));
      }
    } catch (...) {
      for (std::size_t i = 0; i < m; ++i) {
        if (fulfilled[i]) continue;
        admission_.release(group[i]->cost);
        group[i]->rpromise.set_exception(std::current_exception());
      }
    }
  }

  // std::atomic<double> has no fetch_add until C++20's library support is
  // uniform; a CAS loop is portable and this is a per-batch statistic.
  void add_flops_saved(double v) {
    if (v <= 0) return;
    double cur = flops_saved_.load(std::memory_order_relaxed);
    while (!flops_saved_.compare_exchange_weak(cur, cur + v,
                                               std::memory_order_relaxed)) {
    }
  }

  static double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  ServeOptions opt_;
  BoundedQueue<std::unique_ptr<Task>> queue_;
  AdmissionController admission_;
  ModelCache<T> models_;
  std::vector<std::thread> threads_;
  std::vector<SlotStats> worker_stats_;
  bool started_ = false;

  std::atomic<std::uint64_t> compress_done_{0};
  std::atomic<std::uint64_t> reconstruct_done_{0};
  std::atomic<std::uint64_t> shed_queue_{0};
  std::atomic<std::uint64_t> batches_done_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<std::size_t> batch_high_water_{0};
  std::atomic<double> flops_saved_{0};

  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::uint64_t accepted_ = 0;  // guarded by done_mu_
  std::uint64_t done_ = 0;      // guarded by done_mu_
};

}  // namespace tucker::serve
