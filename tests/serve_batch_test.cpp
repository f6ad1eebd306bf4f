// Contracts of the cross-request batching layer (DESIGN.md Sec 15):
//  - BoundedQueue::pop_group fuses only same-key fusable items, stays FIFO
//    within a key, round-robins across keys, and pops non-fusable items
//    alone;
//  - plan_batch dedups identical boxes, gathers regions out of a full
//    chain, and reprices non-chain requests at their marginal
//    (scatter-bytes-only) cost;
//  - gather_region_into out of a full reconstruction is bitwise identical
//    to reconstruct_region (the fusion eligibility rule's foundation);
//  - ttm_packed_multi_into and reconstruct_batch_into are bitwise
//    identical to their per-request counterparts at widths {1, 2, 7} and
//    for mixed batch compositions, in double and single;
//  - through the service, every response is bitwise identical across
//    batch sizes {1, 2, max}, worker counts, linger windows, and mixed
//    region/full/duplicate bursts; mixed-model queues never fuse;
//  - shedding under batching stays deterministic, fused steady state stops
//    growing the arena, regions are priced at region_cost, and the model
//    cache LRU-evicts beyond its cap and refuses evicted ids.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "core/tucker_tensor.hpp"
#include "data/synthetic_tensor.hpp"
#include "serve/admission.hpp"
#include "serve/batch.hpp"
#include "serve/model_cache.hpp"
#include "serve/queue.hpp"
#include "serve/service.hpp"
#include "tensor/prepacked.hpp"
#include "tensor/tensor.hpp"

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
std::vector<unsigned char> fingerprint(const Tensor<T>& t) {
  const auto* b = reinterpret_cast<const unsigned char*>(t.data());
  return std::vector<unsigned char>(
      b, b + static_cast<std::size_t>(t.size()) * sizeof(T));
}

template <class T>
void expect_bitwise(const Tensor<T>& a, const Tensor<T>& b,
                    const std::string& what) {
  ASSERT_EQ(a.dims(), b.dims()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.size()) * sizeof(T)))
      << what;
}

/// Random Tucker model with a tall mode-1 factor (70 rows > the 64-row
/// panel threshold), so the fused multi-RHS prepacked sweep actually
/// engages while region slices below 64 rows cross the kernel-dispatch
/// boundary -- the hardest bitwise case.
template <class T = double>
core::TuckerTensor<T> make_model(const Dims& dims,
                                 const std::vector<index_t>& ranks,
                                 std::uint64_t seed) {
  core::TuckerTensor<T> tk;
  tk.core = data::random_tensor<T>(Dims(ranks.begin(), ranks.end()), seed);
  for (std::size_t n = 0; n < dims.size(); ++n) {
    blas::Matrix<T> u(dims[n], ranks[n]);
    Rng rng(seed + 101 * n + 7);
    for (index_t i = 0; i < u.rows(); ++i)
      for (index_t j = 0; j < u.cols(); ++j) u(i, j) = rng.normal<T>();
    tk.factors.push_back(std::move(u));
  }
  return tk;
}

const Dims kDims{24, 70, 18};
const std::vector<index_t> kRanks{6, 8, 5};

// ---------------------------------------------------------------- queue --

using KeyedItem = std::pair<std::uint64_t, int>;  // {key, fusable flag}

auto keyed = [](const KeyedItem& it) {
  return std::pair<std::uint64_t, bool>(it.first, it.second != 0);
};

TEST(PopGroup, FusesSameKeyFifoWithinKey) {
  serve::BoundedQueue<KeyedItem> q(16);
  // Same-key items separated by another key: the sweep must pick them up
  // in FIFO order and leave the other key queued.
  q.push({2, 10});
  q.push({4, 20});
  q.push({2, 11});
  q.push({2, 12});
  auto g = q.pop_group(8, std::chrono::microseconds(0), keyed);
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g[0].second, 10);
  EXPECT_EQ(g[1].second, 11);
  EXPECT_EQ(g[2].second, 12);
  EXPECT_EQ(q.size(), 1u);
}

TEST(PopGroup, RoundRobinsAcrossKeys) {
  serve::BoundedQueue<KeyedItem> q(16);
  q.push({2, 1});
  q.push({2, 2});
  q.push({4, 3});
  q.push({4, 4});
  auto g1 = q.pop_group(8, std::chrono::microseconds(0), keyed);
  ASSERT_EQ(g1.size(), 2u);
  EXPECT_EQ(g1[0].first, 2u);
  // Key 2 was just served; key 4 must go next even though more key-2 work
  // could arrive at the front.
  q.push({2, 5});
  auto g2 = q.pop_group(8, std::chrono::microseconds(0), keyed);
  ASSERT_EQ(g2.size(), 2u);
  EXPECT_EQ(g2[0].first, 4u);
  // Wrap-around: only key 2 left.
  auto g3 = q.pop_group(8, std::chrono::microseconds(0), keyed);
  ASSERT_EQ(g3.size(), 1u);
  EXPECT_EQ(g3[0].second, 5);
}

TEST(PopGroup, NonFusablePopsAlone) {
  serve::BoundedQueue<KeyedItem> q(16);
  q.push({2, 0});  // not fusable
  q.push({2, 1});
  q.push({2, 2});
  auto g = q.pop_group(8, std::chrono::microseconds(0), keyed);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0].second, 0);
  EXPECT_EQ(q.size(), 2u);
}

TEST(PopGroup, RespectsMaxAndDrainsAfterClose) {
  serve::BoundedQueue<KeyedItem> q(16);
  for (int i = 0; i < 5; ++i) q.push({2, i + 1});
  auto g = q.pop_group(3, std::chrono::microseconds(0), keyed);
  EXPECT_EQ(g.size(), 3u);
  q.close();
  auto g2 = q.pop_group(8, std::chrono::microseconds(0), keyed);
  EXPECT_EQ(g2.size(), 2u);  // accepted work still drains
  auto g3 = q.pop_group(8, std::chrono::microseconds(0), keyed);
  EXPECT_TRUE(g3.empty());  // closed and empty
}

// -------------------------------------------------------------- planner --

serve::PlanItem item(const std::vector<index_t>* lo,
                     const std::vector<index_t>* hi, double elems,
                     double flops) {
  serve::PlanItem it;
  it.lo = lo;
  it.hi = hi;
  it.elems = elems;
  it.admitted = {flops, 0.0};
  return it;
}

TEST(PlanBatch, DedupsIdenticalFullBoxes) {
  std::vector<serve::PlanItem> items(3, item(nullptr, nullptr, 1000, 500));
  serve::FusedPlan plan;
  serve::plan_batch(items, 8, plan);
  ASSERT_EQ(plan.chain_tasks.size(), 1u);
  EXPECT_EQ(plan.chain_tasks[0], 0u);
  EXPECT_EQ(plan.assign[1].src, serve::FusedPlan::Source::kCopy);
  EXPECT_EQ(plan.assign[1].ref, 0u);
  EXPECT_EQ(plan.assign[2].src, serve::FusedPlan::Source::kCopy);
  EXPECT_DOUBLE_EQ(plan.flops_saved, 1000.0);
  EXPECT_DOUBLE_EQ(plan.fused_cost.flops, 500.0);
  // Marginal price of a copy is its scatter bytes, zero flops.
  EXPECT_DOUBLE_EQ(plan.marginal[1].flops, 0.0);
  EXPECT_DOUBLE_EQ(plan.marginal[1].bytes,
                   static_cast<double>(flops::scatter_bytes(1000, 8)));
}

TEST(PlanBatch, RegionGathersFromFullChain) {
  const std::vector<index_t> lo{1, 2, 3}, hi{4, 5, 6};
  std::vector<serve::PlanItem> items{item(&lo, &hi, 27, 100),
                                     item(nullptr, nullptr, 1000, 500)};
  serve::FusedPlan plan;
  serve::plan_batch(items, 8, plan);
  EXPECT_EQ(plan.assign[0].src, serve::FusedPlan::Source::kGather);
  EXPECT_EQ(plan.assign[0].ref, 1u);  // gathers from the full chain
  EXPECT_EQ(plan.assign[1].src, serve::FusedPlan::Source::kChain);
  EXPECT_DOUBLE_EQ(plan.flops_saved, 100.0);
}

TEST(PlanBatch, DistinctRegionsChainAndDuplicateRegionsCopy) {
  const std::vector<index_t> lo1{0, 0, 0}, hi1{2, 2, 2};
  const std::vector<index_t> lo2{1, 1, 1}, hi2{3, 3, 3};
  std::vector<serve::PlanItem> items{item(&lo1, &hi1, 8, 10),
                                     item(&lo1, &hi1, 8, 10),
                                     item(&lo2, &hi2, 8, 10)};
  serve::FusedPlan plan;
  serve::plan_batch(items, 8, plan);
  ASSERT_EQ(plan.chain_tasks.size(), 2u);
  EXPECT_EQ(plan.assign[0].src, serve::FusedPlan::Source::kChain);
  EXPECT_EQ(plan.assign[1].src, serve::FusedPlan::Source::kCopy);
  EXPECT_EQ(plan.assign[1].ref, 0u);
  EXPECT_EQ(plan.assign[2].src, serve::FusedPlan::Source::kChain);
}

TEST(PlanBatch, FuseKeySeparatesModels) {
  EXPECT_NE(serve::fuse_key(1), serve::fuse_key(2));
  // Key 0 stays reserved for never-fusable work (model ids start at 1).
  EXPECT_NE(serve::fuse_key(1), 0u);
}

// -------------------------------------------------------------- kernels --

// The eligibility rule's foundation: every element of a region
// reconstruction is produced by the identical per-element TTM chain as the
// same global index of the full reconstruction (slicing a factor removes
// rows, never reorders a contraction), so copying the box out of the full
// result is bitwise exact -- including when the slice crosses the 64-row
// kernel-dispatch boundary, as mode 1 does here (70 -> 56 rows).
TEST(GatherRegion, MatchesReconstructRegionBitwise) {
  auto model = make_model(kDims, kRanks, 0xA1);
  const auto full = model.reconstruct();
  const std::vector<index_t> lo{2, 5, 0}, hi{20, 61, 18};
  const auto region = model.reconstruct_region(lo, hi);
  Tensor<double> out;
  core::gather_region_into(full, lo, hi, out);
  expect_bitwise(out, region, "gather vs reconstruct_region");
}

TEST(TtmPackedMulti, BitwiseMatchesSoloAcrossWidths) {
  ThreadsGuard guard;
  blas::Matrix<double> u(80, 10);  // 80 rows > kTtmAxpyMaxR: panel staged
  Rng rng(0xB2);
  for (index_t i = 0; i < u.rows(); ++i)
    for (index_t j = 0; j < u.cols(); ++j) u(i, j) = rng.normal<double>();
  tensor::PrepackedFactor<double> pf(u.cview());
  ASSERT_NE(pf.panel(), nullptr);

  // Mixed shapes below/above the contracted mode (a region chain fused
  // with full chains has exactly this shape diversity).
  const std::vector<Dims> shapes{{6, 10, 9}, {4, 10, 9}, {6, 10, 5}};
  std::vector<Tensor<double>> xs;
  for (std::size_t i = 0; i < shapes.size(); ++i)
    xs.push_back(data::random_tensor<double>(shapes[i], 0xC0DE + i));

  parallel::set_max_threads(1);
  std::vector<Tensor<double>> solo(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    tensor::ttm_prepacked_into(xs[i], 1, pf, solo[i]);
  for (int width : {1, 2, 7}) {
    parallel::set_max_threads(width);
    std::vector<Tensor<double>> multi(xs.size());
    std::vector<const Tensor<double>*> xp;
    std::vector<Tensor<double>*> yp;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      xp.push_back(&xs[i]);
      yp.push_back(&multi[i]);
    }
    tensor::ttm_packed_multi_into(xp, 1, pf, yp);
    for (std::size_t i = 0; i < xs.size(); ++i)
      expect_bitwise(multi[i], solo[i],
                     "multi vs solo, width " + std::to_string(width) +
                         " item " + std::to_string(i));
  }
}

TEST(ReconstructBatch, BitwiseMatchesSoloPathsAcrossWidths) {
  ThreadsGuard guard;
  auto model = make_model(kDims, kRanks, 0xD3);
  const auto packs = core::prepack_factors(model);
  const std::vector<index_t> lo1{2, 5, 0}, hi1{20, 61, 18};
  const std::vector<index_t> lo2{0, 0, 3}, hi2{24, 70, 11};

  // Solo references (the unbatched fast paths, width 1).
  Tensor<double> ref_full;
  core::reconstruct_into(model, ref_full, &packs);
  const auto ref_r1 = model.reconstruct_region(lo1, hi1);
  const auto ref_r2 = model.reconstruct_region(lo2, hi2);

  std::vector<core::DemandBox> boxes(3);
  boxes[1] = {lo1, hi1};
  boxes[2] = {lo2, hi2};
  for (int width : {1, 2, 7}) {
    parallel::set_max_threads(width);
    std::vector<Tensor<double>> out(3);
    core::reconstruct_batch_into(
        model, boxes, {&out[0], &out[1], &out[2]}, &packs);
    expect_bitwise(out[0], ref_full,
                   "batched full, width " + std::to_string(width));
    expect_bitwise(out[1], ref_r1,
                   "batched region 1, width " + std::to_string(width));
    expect_bitwise(out[2], ref_r2,
                   "batched region 2, width " + std::to_string(width));
  }
}

// The same contract in single precision: the full chain and the region
// chain of one fused float job each match their solo path.
TEST(ReconstructBatch, FloatGroupMatchesSoloFullAndRegion) {
  auto model = make_model<float>(kDims, kRanks, 0xE4);
  const auto packs = core::prepack_factors(model);
  const std::vector<index_t> lo{1, 4, 2}, hi{9, 30, 10};

  Tensor<float> ref_full;
  core::reconstruct_into(model, ref_full, &packs);
  const auto ref_region = model.reconstruct_region(lo, hi);

  std::vector<core::DemandBox> boxes(2);
  boxes[1] = {lo, hi};
  std::vector<Tensor<float>> out(2);
  core::reconstruct_batch_into(model, boxes, {&out[0], &out[1]}, &packs);
  expect_bitwise(out[0], ref_full, "float batched full");
  expect_bitwise(out[1], ref_region, "float batched region");
}

// -------------------------------------------------------------- service --

/// Enqueues the canonical mixed burst (duplicate fulls, duplicate regions,
/// two distinct regions, a third full) against one model with the queue
/// frozen, then starts, drains, and fingerprints each response.
std::vector<std::vector<unsigned char>> run_burst(
    const core::TuckerTensor<double>& model, std::size_t batch_max,
    int workers, long wait_us) {
  serve::ServeOptions opt;
  opt.workers = workers;
  opt.queue_depth = 32;
  opt.autostart = false;
  opt.batch_max = batch_max;
  opt.batch_wait_us = wait_us;
  serve::Service<double> svc(opt);
  const auto id = svc.register_model(model);
  std::vector<std::future<serve::ReconstructResponse<double>>> fs;
  auto full = [&] {
    serve::ReconstructRequest<double> r;
    r.model = id;
    fs.push_back(*svc.try_submit(r));
  };
  auto region = [&](const std::vector<index_t>& lo,
                    const std::vector<index_t>& hi) {
    serve::ReconstructRequest<double> r;
    r.model = id;
    r.lo = lo;
    r.hi = hi;
    fs.push_back(*svc.try_submit(r));
  };
  full();
  full();
  region({2, 5, 0}, {20, 61, 18});
  region({2, 5, 0}, {20, 61, 18});
  region({0, 0, 3}, {24, 70, 11});
  full();
  region({1, 4, 2}, {9, 30, 10});
  svc.start();
  svc.drain();
  std::vector<std::vector<unsigned char>> fps;
  for (auto& f : fs) fps.push_back(fingerprint(f.get().tensor));
  svc.stop();
  return fps;
}

// The headline contract: responses are bitwise invariant to batch size
// {1, 2, max}, worker count, and the linger window -- and batch size 1
// anchors the comparison to the unbatched fast path.
TEST(ServiceBatch, ResponsesBitwiseAcrossBatchSizes) {
  ThreadsGuard guard;
  auto model = make_model(kDims, kRanks, 0xF5);
  const auto ref = run_burst(model, 1, 1, 0);

  // Direct anchors: the service's own unbatched paths.
  EXPECT_EQ(ref[0], fingerprint(model.reconstruct()));
  EXPECT_EQ(ref[1], ref[0]);
  EXPECT_EQ(ref[2],
            fingerprint(model.reconstruct_region({2, 5, 0}, {20, 61, 18})));
  EXPECT_EQ(ref[3], ref[2]);
  EXPECT_EQ(ref[6],
            fingerprint(model.reconstruct_region({1, 4, 2}, {9, 30, 10})));

  struct Config {
    std::size_t batch_max;
    int workers;
    long wait_us;
  };
  const std::vector<Config> configs{
      {2, 1, 0}, {8, 1, 0}, {8, 2, 0}, {8, 1, 2000}};
  for (const auto& c : configs) {
    const auto got = run_burst(model, c.batch_max, c.workers, c.wait_us);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(got[i], ref[i])
          << "batch_max=" << c.batch_max << " workers=" << c.workers
          << " wait_us=" << c.wait_us << " request " << i;
  }
}

// Different models never share a fusion key:
// with one worker and a frozen A,B,A,B queue, each fused group holds one
// model's two requests, never all four.
TEST(ServiceBatch, MixedModelQueuesDoNotFuse) {
  auto model_a = make_model({14, 12, 10}, {4, 3, 3}, 0x11);
  auto model_b = make_model({12, 10, 8}, {3, 3, 2}, 0x22);
  const auto ref_a = model_a.reconstruct();
  const auto ref_b = model_b.reconstruct();

  serve::ServeOptions opt;
  opt.workers = 1;
  opt.queue_depth = 16;
  opt.autostart = false;
  opt.batch_max = 8;
  serve::Service<double> svc(opt);
  const auto ida = svc.register_model(model_a);
  const auto idb = svc.register_model(model_b);
  std::vector<std::future<serve::ReconstructResponse<double>>> fs;
  for (auto id : {ida, idb, ida, idb}) {
    serve::ReconstructRequest<double> r;
    r.model = id;
    fs.push_back(*svc.try_submit(r));
  }
  svc.start();
  svc.drain();
  EXPECT_EQ(fingerprint(fs[0].get().tensor), fingerprint(ref_a));
  EXPECT_EQ(fingerprint(fs[1].get().tensor), fingerprint(ref_b));
  EXPECT_EQ(fingerprint(fs[2].get().tensor), fingerprint(ref_a));
  EXPECT_EQ(fingerprint(fs[3].get().tensor), fingerprint(ref_b));
  const auto stats = svc.stats();
  EXPECT_EQ(stats.batches_done, 2u);       // one per model
  EXPECT_EQ(stats.batched_requests, 4u);
  EXPECT_EQ(stats.batch_size_high_water, 2u) << "cross-model fusion";
  svc.stop();
}

// Marginal pricing surfaces through responses and stats: a duplicate
// answered by copy costs zero modeled flops, the refund shows up in
// batched_flops_saved, and the admission ledger returns to zero.
TEST(ServiceBatch, MarginalPricingRefundsDuplicates) {
  auto model = make_model({14, 12, 10}, {4, 3, 3}, 0x33);
  const auto full_cost = serve::reconstruct_cost(
      model.core_dims(), model.full_dims(), sizeof(double));

  serve::ServeOptions opt;
  opt.workers = 1;
  opt.queue_depth = 16;
  opt.autostart = false;
  opt.batch_max = 8;
  serve::Service<double> svc(opt);
  const auto id = svc.register_model(model);
  std::vector<std::future<serve::ReconstructResponse<double>>> fs;
  for (int i = 0; i < 3; ++i) {
    serve::ReconstructRequest<double> r;
    r.model = id;
    fs.push_back(*svc.try_submit(r));
  }
  svc.start();
  svc.drain();
  // FIFO within the key: the first request owns the chain at full price,
  // the other two are copies at marginal (zero-flop) price.
  EXPECT_DOUBLE_EQ(fs[0].get().cost.flops, full_cost.flops);
  EXPECT_DOUBLE_EQ(fs[1].get().cost.flops, 0.0);
  EXPECT_DOUBLE_EQ(fs[2].get().cost.flops, 0.0);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.batches_done, 1u);
  EXPECT_EQ(stats.batched_requests, 3u);
  EXPECT_EQ(stats.batch_size_high_water, 3u);
  EXPECT_DOUBLE_EQ(stats.batched_flops_saved, 2 * full_cost.flops);
  EXPECT_DOUBLE_EQ(stats.in_flight_flops, 0.0) << "refund double-counted";
  svc.stop();
}

TEST(ServiceBatch, ShedUnderBatchingStaysDeterministic) {
  auto model = make_model({14, 12, 10}, {4, 3, 3}, 0x44);
  const auto ref = model.reconstruct();
  serve::ServeOptions opt;
  opt.workers = 1;
  opt.queue_depth = 2;
  opt.autostart = false;  // nothing drains, so the third try_submit sheds
  opt.batch_max = 8;
  serve::Service<double> svc(opt);
  const auto id = svc.register_model(model);
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
  // The two accepted requests fused into one batch and got correct bits.
  EXPECT_EQ(fingerprint(f1->get().tensor), fingerprint(ref));
  EXPECT_EQ(fingerprint(f2->get().tensor), fingerprint(ref));
  EXPECT_EQ(svc.stats().batches_done, 1u);
  svc.stop();
}

// The fused path must not move the worker's arena footprint: after one
// fused warm-up batch, any mix of fused and solo full requests reuses the
// same reserved blocks and watermark.
TEST(ServiceBatch, SteadyStateArenaStopsGrowingForFusedPath) {
  auto model = make_model(kDims, kRanks, 0x55);
  serve::ServeOptions opt;
  opt.workers = 1;
  opt.queue_depth = 32;
  opt.autostart = false;
  opt.batch_max = 8;
  serve::Service<double> svc(opt);
  const auto id = svc.register_model(std::move(model));
  serve::ReconstructRequest<double> req;
  req.model = id;

  // Warm-up: a guaranteed fused batch (all queued before the worker runs).
  std::vector<std::future<serve::ReconstructResponse<double>>> fs;
  for (int i = 0; i < 4; ++i) fs.push_back(*svc.try_submit(req));
  svc.start();
  svc.drain();
  for (auto& f : fs) f.get();
  const auto warm = svc.stats().workers.at(0);
  EXPECT_EQ(warm.requests, 4u);
  EXPECT_GE(svc.stats().batch_size_high_water, 4u);

  // Steady state: more bursts against the running worker (any fusion
  // pattern the races produce must land on the same watermark).
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<serve::ReconstructResponse<double>>> more;
    for (int i = 0; i < 4; ++i) more.push_back(*svc.submit(req));
    for (auto& f : more) f.get();
  }
  svc.drain();
  const auto steady = svc.stats().workers.at(0);
  EXPECT_EQ(steady.requests, 16u);
  EXPECT_EQ(steady.arena_reserved, warm.arena_reserved);
  EXPECT_EQ(steady.arena_high_water, warm.arena_high_water);
  svc.stop();
}

TEST(ServiceBatch, RegionsPricedAtRegionCost) {
  auto model = make_model(kDims, kRanks, 0x66);
  const std::vector<index_t> lo{2, 5, 0}, hi{20, 61, 18};
  const auto expect =
      serve::region_cost(model.core_dims(), lo, hi, sizeof(double));
  const auto full = serve::reconstruct_cost(model.core_dims(),
                                            model.full_dims(), sizeof(double));
  EXPECT_LT(expect.flops, full.flops);

  serve::ServeOptions opt;
  opt.workers = 1;
  opt.batch_max = 1;
  serve::Service<double> svc(opt);
  const auto id = svc.register_model(std::move(model));
  serve::ReconstructRequest<double> req;
  req.model = id;
  req.lo = lo;
  req.hi = hi;
  auto fut = svc.submit(req);
  ASSERT_TRUE(fut.has_value());
  EXPECT_DOUBLE_EQ(fut->get().cost.flops, expect.flops);
  svc.stop();
}

// Compress requests carry fusion key 0 and are never fusable: the
// reconstructions around one still fuse, and the compress runs alone with
// its full result intact and equal to the offline run, at width 1 and 4.
TEST(ServiceBatch, CompressNeverFusesWithReconstructs) {
  ThreadsGuard guard;
  parallel::set_max_threads(1);
  auto model = make_model({14, 12, 10}, {4, 3, 3}, 0x77);
  const auto ref = model.reconstruct();
  auto x = std::make_shared<Tensor<double>>(
      data::random_tensor<double>({12, 10, 8}, 0x78));
  const auto spec = core::TruncationSpec::fixed_ranks({3, 3, 2});
  const auto direct = core::sthosvd(*x, spec, core::SvdMethod::kQr);

  for (int width : {1, 4}) {
    parallel::set_max_threads(width);
    const std::string at = " at width " + std::to_string(width);
    serve::ServeOptions opt;
    opt.workers = 1;
    opt.queue_depth = 16;
    opt.autostart = false;
    opt.batch_max = 8;
    serve::Service<double> svc(opt);
    const auto id = svc.register_model(model);
    serve::ReconstructRequest<double> good;
    good.model = id;
    auto f1 = svc.try_submit(good);
    serve::CompressRequest<double> creq;
    creq.x = x;
    creq.spec = spec;
    creq.method = core::SvdMethod::kQr;
    auto fc = svc.try_submit(std::move(creq));
    auto f2 = svc.try_submit(good);
    svc.start();
    svc.drain();
    EXPECT_EQ(fingerprint(f1->get().tensor), fingerprint(ref)) << at;
    EXPECT_EQ(fingerprint(f2->get().tensor), fingerprint(ref)) << at;
    const auto cres = fc->get().result;
    expect_bitwise(cres.tucker.core, direct.tucker.core,
                   "compress inside a batched queue" + at);
    const auto stats = svc.stats();
    EXPECT_EQ(stats.batches_done, 1u) << at;  // the two reconstructs fused
    EXPECT_EQ(stats.batched_requests, 2u) << at;
    EXPECT_EQ(stats.compress_done, 1u) << at;
    EXPECT_DOUBLE_EQ(stats.in_flight_flops, 0.0) << at;
    svc.stop();
  }
}

// ---------------------------------------------------------- model cache --

TEST(ModelCacheLru, EvictsLeastRecentlyUsedBeyondCap) {
  serve::ModelCache<double> cache(2);
  const auto a = cache.insert(make_model({10, 8, 6}, {3, 2, 2}, 1));
  const auto b = cache.insert(make_model({10, 8, 6}, {3, 2, 2}, 2));
  EXPECT_EQ(cache.size(), 2u);
  const auto c = cache.insert(make_model({10, 8, 6}, {3, 2, 2}, 3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.find(a), nullptr);  // oldest evicted
  EXPECT_NE(cache.find(b), nullptr);
  EXPECT_NE(cache.find(c), nullptr);
}

TEST(ModelCacheLru, FindBumpsRecency) {
  serve::ModelCache<double> cache(2);
  const auto a = cache.insert(make_model({10, 8, 6}, {3, 2, 2}, 4));
  const auto b = cache.insert(make_model({10, 8, 6}, {3, 2, 2}, 5));
  ASSERT_NE(cache.find(a), nullptr);  // bump a over b
  const auto c = cache.insert(make_model({10, 8, 6}, {3, 2, 2}, 6));
  EXPECT_EQ(cache.find(b), nullptr) << "b was least recently used";
  EXPECT_NE(cache.find(a), nullptr);
  EXPECT_NE(cache.find(c), nullptr);
  // A worker holding the shared_ptr keeps an evicted model alive.
  auto held = cache.find(c);
  cache.insert(make_model({10, 8, 6}, {3, 2, 2}, 7));
  cache.insert(make_model({10, 8, 6}, {3, 2, 2}, 8));
  EXPECT_EQ(cache.find(c), nullptr);
  EXPECT_EQ(held->packs.size(), 3u);
  EXPECT_EQ(cache.evictions(), 3u);  // b, then a, then c
}

TEST(ModelCacheLru, ZeroCapIsUnbounded) {
  serve::ModelCache<double> cache(0);
  std::vector<serve::ModelId> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(cache.insert(make_model({8, 6, 4}, {2, 2, 2}, 10 + i)));
  EXPECT_EQ(cache.size(), 6u);
  EXPECT_EQ(cache.evictions(), 0u);
  for (auto id : ids) EXPECT_NE(cache.find(id), nullptr);
}

TEST(ServiceBatch, EvictedModelRefusedAtSubmit) {
  serve::ServeOptions opt;
  opt.workers = 1;
  opt.cache_models = 1;
  serve::Service<double> svc(opt);
  const auto ida = svc.register_model(make_model({10, 8, 6}, {3, 2, 2}, 91));
  const auto idb = svc.register_model(make_model({10, 8, 6}, {3, 2, 2}, 92));
  serve::ReconstructRequest<double> req;
  req.model = ida;
  EXPECT_FALSE(svc.submit(req).has_value()) << "evicted id must be refused";
  req.model = idb;
  auto fut = svc.submit(req);
  ASSERT_TRUE(fut.has_value());
  fut->get();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.model_count, 1u);
  EXPECT_EQ(stats.model_evictions, 1u);
  svc.stop();
}

}  // namespace
}  // namespace tucker
