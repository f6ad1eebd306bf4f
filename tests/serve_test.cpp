// The serving layer's contracts:
//  - BoundedQueue is FIFO, sheds on try_push when full, drains after close,
//    and records its backlog high-water mark;
//  - AdmissionController bounds modeled flops in flight, sheds over-budget
//    requests, and admits an oversized request only when idle;
//  - a compress request through the service is bitwise identical to calling
//    sthosvd directly at pool widths {1, 2, 4} x workers {1, 2, 3} x
//    methods {QR, Gram, Rand} (and for a QR compress whose LQs are
//    multi-leaf trees), and a reconstruct request (prepacked TTM fast path)
//    is bitwise identical to TuckerTensor::reconstruct();
//  - responses are bitwise identical across worker counts {1, 2, 7} and
//    across submission interleavings;
//  - shed paths (queue depth, flop budget) refuse deterministically with
//    autostart = false;
//  - a worker's arena stops growing after warm-up (steady-state requests
//    reuse reserved blocks);
//  - Workspace::reset() rewinds without shrinking reservation or watermark,
//    and debug builds poison scratch released by Frame close and reset().

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "core/sthosvd.hpp"
#include "core/tucker_tensor.hpp"
#include "data/synthetic_tensor.hpp"
#include "serve/admission.hpp"
#include "serve/model_cache.hpp"
#include "serve/queue.hpp"
#include "serve/service.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_lq.hpp"

namespace tucker {
namespace {

using blas::index_t;
using tensor::Dims;
using tensor::Tensor;

struct ThreadsGuard {
  int prev = parallel::max_threads();
  ~ThreadsGuard() { parallel::set_max_threads(prev); }
};

template <class T>
void append_bytes(std::vector<unsigned char>& out, const T* p, std::size_t n) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  out.insert(out.end(), b, b + n * sizeof(T));
}

template <class T>
std::vector<unsigned char> fingerprint(const core::SthosvdResult<T>& r) {
  std::vector<unsigned char> f;
  append_bytes(f, r.tucker.core.data(),
               static_cast<std::size_t>(r.tucker.core.size()));
  for (const auto& u : r.tucker.factors)
    append_bytes(f, u.data(), static_cast<std::size_t>(u.rows() * u.cols()));
  append_bytes(f, r.ranks.data(), r.ranks.size());
  for (const auto& sig : r.mode_sigmas)
    append_bytes(f, sig.data(), sig.size());
  return f;
}

template <class T>
std::vector<unsigned char> fingerprint(const Tensor<T>& t) {
  std::vector<unsigned char> f;
  append_bytes(f, t.data(), static_cast<std::size_t>(t.size()));
  return f;
}

/// A small served model: fixed-rank decomposition of a random tensor.
core::TuckerTensor<double> make_model(const Dims& dims,
                                      const std::vector<index_t>& ranks,
                                      std::uint64_t seed) {
  auto x = data::random_tensor<double>(dims, seed);
  return core::sthosvd(x, core::TruncationSpec::fixed_ranks(ranks),
                       core::SvdMethod::kGram)
      .tucker;
}

TEST(BoundedQueue, FifoAndHighWater) {
  serve::BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.high_water(), 3u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_TRUE(q.push(4));
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.pop().value(), 4);
  EXPECT_EQ(q.high_water(), 3u);  // backlog never exceeded 3
}

TEST(BoundedQueue, TryPushShedsWhenFull) {
  serve::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_TRUE(q.try_push(3));  // space again
}

TEST(BoundedQueue, CloseDrainsThenEnds) {
  serve::BoundedQueue<int> q(8);
  EXPECT_TRUE(q.push(7));
  EXPECT_TRUE(q.push(8));
  q.close();
  EXPECT_FALSE(q.push(9));
  EXPECT_FALSE(q.try_push(9));
  EXPECT_EQ(q.pop().value(), 7);  // accepted work still drains
  EXPECT_EQ(q.pop().value(), 8);
  EXPECT_FALSE(q.pop().has_value());  // closed and empty
}

TEST(Admission, BudgetShedsAndReleases) {
  serve::AdmissionController ac(100.0);
  serve::RequestCost a{60.0, 0.0};
  serve::RequestCost b{60.0, 0.0};
  EXPECT_TRUE(ac.try_admit(a));
  EXPECT_FALSE(ac.try_admit(b));  // 120 > 100 with work in flight
  EXPECT_EQ(ac.shed(), 1u);
  ac.release(a);
  EXPECT_TRUE(ac.try_admit(b));
  EXPECT_DOUBLE_EQ(ac.in_flight_flops(), 60.0);
}

TEST(Admission, OversizedAdmittedOnlyWhenIdle) {
  serve::AdmissionController ac(100.0);
  serve::RequestCost big{500.0, 0.0};
  serve::RequestCost small{10.0, 0.0};
  EXPECT_TRUE(ac.try_admit(big));  // idle: would otherwise starve forever
  EXPECT_FALSE(ac.try_admit(small));
  ac.release(big);
  EXPECT_TRUE(ac.try_admit(small));
}

TEST(Admission, ZeroBudgetIsUnlimited) {
  serve::AdmissionController ac(0.0);
  for (int i = 0; i < 16; ++i)
    EXPECT_TRUE(ac.try_admit(serve::RequestCost{1e18, 0.0}));
  EXPECT_EQ(ac.shed(), 0u);
}

TEST(Admission, ReconstructCostMatchesManualChain) {
  // core 3x4x5 -> full 6x8x10: mode 0 gemm (6 x 20 x 3), then (8 x 30 x 4),
  // then (10 x 48 x 5).
  const auto c = serve::reconstruct_cost({3, 4, 5}, {6, 8, 10}, 8);
  const double flops =
      2.0 * (6.0 * 3 * 20 + 8.0 * 4 * 30 + 10.0 * 5 * 48);
  EXPECT_DOUBLE_EQ(c.flops, flops);
  EXPECT_GT(c.bytes, 0.0);
}

TEST(Admission, CompressCostUsesSpecRanks) {
  const Dims dims{16, 14, 12};
  core::SthosvdOptions opt;
  const auto fixed = serve::compress_cost(
      dims, core::TruncationSpec::fixed_ranks({4, 4, 4}),
      core::SvdMethod::kQr, opt, 8);
  const auto bigger = serve::compress_cost(
      dims, core::TruncationSpec::fixed_ranks({8, 8, 8}),
      core::SvdMethod::kQr, opt, 8);
  EXPECT_GT(fixed.flops, 0.0);
  EXPECT_GT(bigger.flops, fixed.flops);
  // Tolerance specs price the dim/8 default estimate without crashing.
  const auto tol = serve::compress_cost(
      dims, core::TruncationSpec::tolerance(1e-3), core::SvdMethod::kQr, opt,
      8);
  EXPECT_GT(tol.flops, 0.0);
}

TEST(ModelCache, RegisterFindErase) {
  serve::ModelCache<double> cache;
  auto id = cache.insert(make_model({12, 10, 8}, {3, 3, 3}, 11));
  EXPECT_EQ(cache.size(), 1u);
  auto sm = cache.find(id);
  ASSERT_NE(sm, nullptr);
  EXPECT_EQ(sm->packs.size(), 3u);
  EXPECT_GT(sm->cost.flops, 0.0);
  EXPECT_GT(sm->pack_bytes, 0u);
  EXPECT_EQ(cache.pack_bytes(), sm->pack_bytes);
  EXPECT_EQ(cache.find(id + 1), nullptr);
  EXPECT_TRUE(cache.erase(id));
  EXPECT_FALSE(cache.erase(id));
  EXPECT_EQ(cache.size(), 0u);
  // A worker holding the shared_ptr keeps the model alive past erase.
  EXPECT_EQ(sm->packs.size(), 3u);
}

// A served compress runs exactly the offline core::sthosvd code, so its
// bits equal one offline run at width 1 for every pool width, worker count
// and method. The widths are explicit: a test that inherits the host's
// width only checks whatever width the host happens to have.
TEST(Service, CompressMatchesDirectSthosvd) {
  ThreadsGuard guard;
  auto x = std::make_shared<Tensor<double>>(
      data::random_tensor<double>({14, 12, 10}, 23));
  const auto spec = core::TruncationSpec::fixed_ranks({4, 4, 4});
  for (auto method :
       {core::SvdMethod::kQr, core::SvdMethod::kGram, core::SvdMethod::kRand}) {
    parallel::set_max_threads(1);
    const auto direct = fingerprint(core::sthosvd(*x, spec, method));
    for (int width : {1, 2, 4}) {
      for (int workers : {1, 2, 3}) {
        parallel::set_max_threads(width);
        serve::ServeOptions opt;
        opt.workers = workers;
        serve::Service<double> svc(opt);
        serve::CompressRequest<double> req;
        req.x = x;
        req.spec = spec;
        req.method = method;
        auto fut = svc.submit(std::move(req));
        ASSERT_TRUE(fut.has_value());
        auto resp = fut->get();
        EXPECT_EQ(fingerprint(resp.result), direct)
            << core::method_name(method) << " width=" << width
            << " workers=" << workers;
        EXPECT_GT(resp.cost.flops, 0.0);
        EXPECT_GE(resp.latency_seconds, 0.0);
        svc.stop();
        const auto stats = svc.stats();
        EXPECT_EQ(stats.compress_done, 1u);
        EXPECT_EQ(stats.shed_budget + stats.shed_queue, 0u);
      }
    }
  }
}

// A QR compress whose mode-0 and mode-1 LQs are multi-leaf trees: with two
// workers each worker's capped width fans the leaves out over the pool,
// with three they run inline; the tree's shape ignores both, so every
// served result equals the offline one.
TEST(Service, MultiLeafQrCompressMatchesDirectSthosvd) {
  ThreadsGuard guard;
  auto x = std::make_shared<Tensor<double>>(
      data::random_tensor<double>({24, 40, 40, 10}, 31));
  ASSERT_GT(tensor::detail::lq_leaves(*x, 0).count(), 1);
  const auto spec = core::TruncationSpec::fixed_ranks({5, 5, 5, 5});
  parallel::set_max_threads(1);
  const auto direct =
      fingerprint(core::sthosvd(*x, spec, core::SvdMethod::kQr));
  for (int width : {2, 4}) {
    for (int workers : {1, 2, 3}) {
      parallel::set_max_threads(width);
      serve::ServeOptions opt;
      opt.workers = workers;
      serve::Service<double> svc(opt);
      std::vector<std::future<serve::CompressResponse<double>>> futs;
      for (int r = 0; r < workers; ++r) {
        serve::CompressRequest<double> req;
        req.x = x;
        req.spec = spec;
        req.method = core::SvdMethod::kQr;
        auto fut = svc.submit(std::move(req));
        ASSERT_TRUE(fut.has_value());
        futs.push_back(std::move(*fut));
      }
      for (auto& f : futs)
        EXPECT_EQ(fingerprint(f.get().result), direct)
            << "width=" << width << " workers=" << workers;
      svc.stop();
    }
  }
}

// The same contract on the mixed-precision path: fp32 storage with wide
// accumulation, where the accumulator reaches the Gram, sketch and TTM
// kernels but not the LQ or the small SVD.
TEST(Service, SingleWideCompressMatchesDirectSthosvd) {
  ThreadsGuard guard;
  auto x = std::make_shared<Tensor<float>>(data::round_tensor_to<float>(
      data::random_tensor<double>({14, 12, 10}, 29)));
  const auto spec = core::TruncationSpec::fixed_ranks({4, 4, 3});
  core::SthosvdOptions sopt;
  sopt.accum = Accum::kWide;
  for (auto method : {core::SvdMethod::kQr, core::SvdMethod::kGram,
                      core::SvdMethod::kRand, core::SvdMethod::kStream}) {
    parallel::set_max_threads(1);
    const auto direct = fingerprint(core::sthosvd(*x, spec, method, sopt));
    for (int width : {1, 2, 4}) {
      for (int workers : {1, 3}) {
        parallel::set_max_threads(width);
        serve::ServeOptions opt;
        opt.workers = workers;
        serve::Service<float> svc(opt);
        serve::CompressRequest<float> req;
        req.x = x;
        req.spec = spec;
        req.method = method;
        req.opt = sopt;
        auto fut = svc.submit(std::move(req));
        ASSERT_TRUE(fut.has_value());
        EXPECT_EQ(fingerprint(fut->get().result), direct)
            << core::method_name(method) << " width=" << width
            << " workers=" << workers;
        svc.stop();
      }
    }
  }
}

// Several compresses in flight at once, one per width-capped worker, each
// still equal to its offline run at width 1.
TEST(Service, ConcurrentCompressesMatchDirectSthosvd) {
  ThreadsGuard guard;
  const std::vector<std::shared_ptr<const Tensor<double>>> xs{
      std::make_shared<Tensor<double>>(
          data::random_tensor<double>({14, 12, 10}, 37)),
      std::make_shared<Tensor<double>>(
          data::random_tensor<double>({10, 13, 11}, 39))};
  const std::vector<core::SvdMethod> methods{
      core::SvdMethod::kQr, core::SvdMethod::kGram, core::SvdMethod::kRand};
  const auto spec = core::TruncationSpec::fixed_ranks({4, 3, 4});

  parallel::set_max_threads(1);
  std::vector<std::vector<unsigned char>> direct;
  for (const auto& x : xs)
    for (auto method : methods)
      direct.push_back(fingerprint(core::sthosvd(*x, spec, method)));

  for (int width : {1, 4}) {
    parallel::set_max_threads(width);
    serve::ServeOptions opt;
    opt.workers = 3;
    opt.queue_depth = 16;
    opt.autostart = false;
    serve::Service<double> svc(opt);
    std::vector<std::future<serve::CompressResponse<double>>> futs;
    for (const auto& x : xs)
      for (auto method : methods) {
        serve::CompressRequest<double> req;
        req.x = x;
        req.spec = spec;
        req.method = method;
        auto fut = svc.try_submit(std::move(req));
        ASSERT_TRUE(fut.has_value());
        futs.push_back(std::move(*fut));
      }
    svc.start();
    svc.drain();
    for (std::size_t i = 0; i < futs.size(); ++i)
      EXPECT_EQ(fingerprint(futs[i].get().result), direct[i])
          << "request " << i << " width=" << width;
    EXPECT_EQ(svc.stats().compress_done, futs.size()) << "width=" << width;
    svc.stop();
  }
}

TEST(Service, ReconstructFastPathMatchesReconstruct) {
  auto model = make_model({18, 14, 10}, {4, 3, 3}, 31);
  const auto reference = model.reconstruct();

  serve::ServeOptions opt;
  opt.workers = 1;
  serve::Service<double> svc(opt);
  const auto id = svc.register_model(std::move(model));
  serve::ReconstructRequest<double> req;
  req.model = id;
  auto fut = svc.submit(req);
  ASSERT_TRUE(fut.has_value());
  auto resp = fut->get();
  EXPECT_EQ(fingerprint(resp.tensor), fingerprint(reference));
  EXPECT_EQ(svc.stats().reconstruct_done, 1u);
}

// A client-owned response buffer gets the same bytes as a fresh response
// tensor, and a reused (already-sized, stale-contents) buffer is fully
// overwritten -- the allocation-free steady state the replay bench times.
TEST(Service, ClientBufferMatchesFreshResponse) {
  auto model = make_model({18, 14, 10}, {4, 3, 3}, 31);
  const auto reference = model.reconstruct();

  serve::ServeOptions opt;
  opt.workers = 1;
  serve::Service<double> svc(opt);
  const auto id = svc.register_model(std::move(model));

  auto buf = std::make_shared<Tensor<double>>();
  serve::ReconstructRequest<double> req;
  req.model = id;
  req.out = buf;
  auto fut = svc.submit(req);
  ASSERT_TRUE(fut.has_value());
  auto resp = fut->get();
  EXPECT_EQ(resp.tensor.size(), 0) << "response tensor stays empty";
  EXPECT_EQ(fingerprint(*buf), fingerprint(reference));

  // Scribble over the buffer, then reuse it: same dims, so the worker
  // writes in place (no realloc, no zero pass) and must overwrite fully.
  for (index_t i = 0; i < buf->size(); ++i) buf->data()[i] = -7.5;
  auto fut2 = svc.submit(req);
  ASSERT_TRUE(fut2.has_value());
  fut2->get();
  EXPECT_EQ(fingerprint(*buf), fingerprint(reference));
  EXPECT_EQ(svc.stats().reconstruct_done, 2u);
}

TEST(Service, RegionReconstructMatchesReconstructRegion) {
  auto model = make_model({16, 12, 10}, {4, 4, 3}, 37);
  const std::vector<index_t> lo{2, 0, 5};
  const std::vector<index_t> hi{9, 12, 10};
  const auto reference = model.reconstruct_region(lo, hi);

  serve::Service<double> svc(serve::ServeOptions{1, 8, -1, true});
  const auto id = svc.register_model(std::move(model));
  serve::ReconstructRequest<double> req;
  req.model = id;
  req.lo = lo;
  req.hi = hi;
  auto fut = svc.submit(req);
  ASSERT_TRUE(fut.has_value());
  EXPECT_EQ(fingerprint(fut->get().tensor), fingerprint(reference));
}

TEST(Service, UnknownModelRefusedAtSubmit) {
  serve::Service<double> svc(serve::ServeOptions{1, 8, -1, true});
  serve::ReconstructRequest<double> req;
  req.model = 999;
  EXPECT_FALSE(svc.submit(req).has_value());
  EXPECT_FALSE(svc.try_submit(req).has_value());
}

// The headline determinism contract: every response is bitwise identical
// whatever the worker count and whatever order the batch was enqueued in.
TEST(Service, ResponsesBitwiseAcrossWorkerCountsAndInterleavings) {
  ThreadsGuard guard;
  auto xa = std::make_shared<Tensor<double>>(
      data::random_tensor<double>({14, 12, 10}, 41));
  auto xb = std::make_shared<Tensor<double>>(
      data::random_tensor<double>({10, 10, 12}, 43));
  auto model_a = make_model({16, 12, 10}, {4, 3, 3}, 47);
  auto model_b = make_model({12, 14, 8}, {3, 4, 2}, 53);

  // One run = register both models, enqueue the 6-request batch in the
  // given order (autostart = false, so the queue fixes the interleaving),
  // then start and collect per-request fingerprints.
  auto run = [&](int workers,
                 const std::vector<int>& order) {
    serve::ServeOptions opt;
    opt.workers = workers;
    opt.queue_depth = 16;
    opt.autostart = false;
    serve::Service<double> svc(opt);
    const auto ida = svc.register_model(model_a);
    const auto idb = svc.register_model(model_b);

    std::vector<std::future<serve::CompressResponse<double>>> cf(3);
    std::vector<std::future<serve::ReconstructResponse<double>>> rf(3);
    auto enqueue = [&](int req) {
      switch (req) {
        case 0: {
          serve::CompressRequest<double> r;
          r.x = xa;
          r.spec = core::TruncationSpec::fixed_ranks({4, 4, 4});
          r.method = core::SvdMethod::kQr;
          cf[0] = *svc.try_submit(std::move(r));
          break;
        }
        case 1: {
          serve::CompressRequest<double> r;
          r.x = xb;
          r.spec = core::TruncationSpec::tolerance(1e-2);
          r.method = core::SvdMethod::kGram;
          cf[1] = *svc.try_submit(std::move(r));
          break;
        }
        case 2: {
          serve::CompressRequest<double> r;
          r.x = xa;
          r.spec = core::TruncationSpec::fixed_ranks({6, 5, 4});
          r.method = core::SvdMethod::kGram;
          cf[2] = *svc.try_submit(std::move(r));
          break;
        }
        case 3: {
          serve::ReconstructRequest<double> r;
          r.model = ida;
          rf[0] = *svc.try_submit(r);
          break;
        }
        case 4: {
          serve::ReconstructRequest<double> r;
          r.model = idb;
          rf[1] = *svc.try_submit(r);
          break;
        }
        case 5: {
          serve::ReconstructRequest<double> r;
          r.model = ida;
          r.lo = {1, 2, 0};
          r.hi = {13, 10, 9};
          rf[2] = *svc.try_submit(r);
          break;
        }
      }
    };
    for (int req : order) enqueue(req);
    svc.start();
    svc.drain();

    std::vector<std::vector<unsigned char>> fps;
    for (auto& f : cf) fps.push_back(fingerprint(f.get().result));
    for (auto& f : rf) fps.push_back(fingerprint(f.get().tensor));
    svc.stop();
    return fps;
  };

  const std::vector<int> fifo{0, 1, 2, 3, 4, 5};
  const std::vector<int> shuffled{5, 2, 4, 0, 3, 1};
  const auto ref = run(1, fifo);
  for (int workers : {2, 7}) {
    const auto got = run(workers, fifo);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(got[i], ref[i]) << "workers=" << workers << " request " << i;
  }
  const auto got = run(2, shuffled);
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(got[i], ref[i]) << "shuffled order, request " << i;
}

TEST(Service, ShedByQueueDepthIsDeterministic) {
  auto model = make_model({12, 10, 8}, {3, 3, 2}, 59);
  serve::ServeOptions opt;
  opt.workers = 1;
  opt.queue_depth = 2;
  opt.autostart = false;  // nothing drains, so the third try_submit sheds
  serve::Service<double> svc(opt);
  const auto id = svc.register_model(std::move(model));
  serve::ReconstructRequest<double> req;
  req.model = id;
  auto f1 = svc.try_submit(req);
  auto f2 = svc.try_submit(req);
  auto f3 = svc.try_submit(req);
  EXPECT_TRUE(f1.has_value());
  EXPECT_TRUE(f2.has_value());
  EXPECT_FALSE(f3.has_value());
  EXPECT_EQ(svc.stats().shed_queue, 1u);
  svc.start();
  svc.drain();
  EXPECT_EQ(svc.stats().reconstruct_done, 2u);
  svc.stop();
}

TEST(Service, ShedByFlopBudgetIsDeterministic) {
  auto model = make_model({12, 10, 8}, {3, 3, 2}, 61);
  const auto cost = serve::reconstruct_cost(model.core_dims(),
                                            model.full_dims(), sizeof(double));
  serve::ServeOptions opt;
  opt.workers = 1;
  opt.queue_depth = 16;
  opt.flop_budget = 1.5 * cost.flops;  // room for one request, not two
  opt.autostart = false;
  serve::Service<double> svc(opt);
  const auto id = svc.register_model(std::move(model));
  serve::ReconstructRequest<double> req;
  req.model = id;
  auto f1 = svc.try_submit(req);
  auto f2 = svc.try_submit(req);
  EXPECT_TRUE(f1.has_value());
  EXPECT_FALSE(f2.has_value());
  EXPECT_EQ(svc.stats().shed_budget, 1u);
  svc.start();
  svc.drain();
  // The budget frees as work completes: the same request is admitted now.
  EXPECT_TRUE(svc.try_submit(req).has_value());
  svc.drain();
  svc.stop();
  EXPECT_EQ(svc.stats().reconstruct_done, 2u);
}

// The arena-pooling claim: after a warm-up request, serving more requests
// of the same shape neither grows the reservation nor moves the watermark.
TEST(Service, SteadyStateArenaStopsGrowing) {
  auto model = make_model({20, 16, 12}, {5, 4, 3}, 67);
  serve::ServeOptions opt;
  opt.workers = 1;
  serve::Service<double> svc(opt);
  const auto id = svc.register_model(std::move(model));
  serve::ReconstructRequest<double> req;
  req.model = id;

  auto burst = [&](int n) {
    std::vector<std::future<serve::ReconstructResponse<double>>> fs;
    for (int i = 0; i < n; ++i) fs.push_back(*svc.submit(req));
    for (auto& f : fs) f.get();
    svc.drain();  // stats are recorded after the promise is fulfilled
  };
  burst(3);  // warm-up
  const auto warm = svc.stats().workers.at(0);
  EXPECT_EQ(warm.requests, 3u);
  burst(10);
  const auto steady = svc.stats().workers.at(0);
  EXPECT_EQ(steady.requests, 13u);
  EXPECT_EQ(steady.arena_reserved, warm.arena_reserved);
  EXPECT_EQ(steady.arena_high_water, warm.arena_high_water);
  svc.stop();
}

TEST(Workspace, ResetPreservesReservationAndWatermark) {
  Workspace ws;
  {
    Workspace::Frame f(ws);
    ws.get<double>(1000);
    EXPECT_GT(ws.bytes_in_use(), 0u);
  }
  const std::size_t reserved = ws.bytes_reserved();
  const std::size_t water = ws.high_water();
  EXPECT_GT(reserved, 0u);
  EXPECT_GE(water, 1000 * sizeof(double));
  ws.get<double>(16);  // top-level scratch, no frame
  ws.reset();
  EXPECT_EQ(ws.bytes_in_use(), 0u);
  EXPECT_EQ(ws.bytes_reserved(), reserved);
  EXPECT_EQ(ws.high_water(), water);
  // Stash survives reset (required by the ping-pong reconstruct chain).
  auto& slot = ws.stash<int>("serve.test.slot");
  slot = 42;
  ws.reset();
  EXPECT_EQ(ws.stash<int>("serve.test.slot"), 42);
}

#ifndef NDEBUG
TEST(Workspace, FrameClosePoisonsReleasedScratch) {
  Workspace ws;
  const unsigned char* released = nullptr;
  {
    Workspace::Frame f(ws);
    double* x = ws.get<double>(64);
    std::fill(x, x + 64, 1.0);
    released = reinterpret_cast<const unsigned char*>(x);
  }
  // The block is still reserved by the arena, so the read is in-bounds;
  // the bytes must now be poison, not the stale 1.0 pattern.
  for (std::size_t i = 0; i < 64 * sizeof(double); ++i)
    ASSERT_EQ(released[i], Workspace::kPoisonByte) << "byte " << i;
}

TEST(Workspace, ResetPoisonsReleasedScratch) {
  Workspace ws;
  double* x = ws.get<double>(32);  // top-level, outside any frame
  std::fill(x, x + 32, 2.0);
  const auto* released = reinterpret_cast<const unsigned char*>(x);
  ws.reset();
  for (std::size_t i = 0; i < 32 * sizeof(double); ++i)
    ASSERT_EQ(released[i], Workspace::kPoisonByte) << "byte " << i;
}
#endif  // !NDEBUG

}  // namespace
}  // namespace tucker
