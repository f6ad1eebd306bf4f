#pragma once
// Batch planner of the serving layer: decides how a group of queued
// reconstruction requests against one model's fusion key executes
// as a single fused job (DESIGN.md Sec 15).
//
// Eligibility is decided per request, never per batch: a request either
// owns a *chain* (a per-mode TTM pass through core::reconstruct_batch_into,
// fused with the other chains into multi-RHS prepacked passes), or is
// answered from another request's chain:
//
//  - kCopy: an exact duplicate (same box, or both full) of an earlier
//    request in the group -- its response is a bitwise copy of the
//    representative's output. Same-model bursts are the common serving
//    case, so this is where most of the fused win comes from.
//  - kGather: a region request in a group that also contains a full
//    reconstruction -- its box is copied out of the full chain's output
//    (core::gather_region_into). Safe because every region element is
//    produced by the identical per-element TTM chain as the same global
//    index of the full chain (factor slicing only removes rows, never
//    reorders a contraction).
//
// Marginal admission pricing: a fused job's modeled cost is the sum of its
// chains only. Copy/gather requests were admitted at their full solo price
// (admission cannot know the future queue), so the planner reports a
// *marginal* cost per request -- {0 flops, scatter bytes} for non-chains --
// and the service refunds the difference the moment the batch is planned.
// flops_saved is that refund, surfaced in ServeStats.
//
// The planner is pure bookkeeping over index vectors -- no kernel calls,
// no allocation beyond the plan's own (reused, grow-only) vectors -- so
// tests drive it directly with synthetic boxes.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/flops.hpp"
#include "serve/admission.hpp"

namespace tucker::serve {

/// Fusion key of a reconstruction request: requests may fuse only when
/// they read the same model. Model ids start at 1, so key 0 is free for
/// never-fusable work (compress requests).
inline std::uint64_t fuse_key(std::uint64_t model) { return model; }

/// One request as the planner sees it: its demand box (full when lo is
/// empty), its response element count, and the cost admission charged at
/// submit time.
struct PlanItem {
  const std::vector<index_t>* lo = nullptr;
  const std::vector<index_t>* hi = nullptr;
  double elems = 0;
  RequestCost admitted;
  bool full() const { return lo == nullptr || lo->empty(); }
};

/// How one batch executes. assign[i] says where request i's bits come
/// from: its own chain (ref = position in chain_tasks), a gather out of
/// request ref's full chain, or a copy of request ref's output. marginal[i]
/// is what the request actually costs inside the fused job; the service
/// refunds admitted[i].flops - marginal[i].flops for non-chains.
struct FusedPlan {
  enum class Source { kChain, kGather, kCopy };
  struct Assignment {
    Source src = Source::kChain;
    std::size_t ref = 0;
  };
  std::vector<Assignment> assign;
  std::vector<std::size_t> chain_tasks;  // request index of each chain
  std::vector<RequestCost> marginal;
  RequestCost fused_cost;  // sum over chains + scatter bytes
  double flops_saved = 0;

  void clear() {
    assign.clear();
    chain_tasks.clear();
    marginal.clear();
    fused_cost = {};
    flops_saved = 0;
  }
};

namespace detail {

inline bool same_box(const PlanItem& a, const PlanItem& b) {
  if (a.full() || b.full()) return a.full() && b.full();
  return *a.lo == *b.lo && *a.hi == *b.hi;
}

}  // namespace detail

/// Plans a group of same-fusion-key requests. `word` is sizeof(T) for the
/// scatter-byte pricing of copies/gathers. The plan's vectors are reused
/// across calls (grow-only), so a worker stashing one FusedPlan plans
/// every batch allocation-free after warm-up.
inline void plan_batch(const std::vector<PlanItem>& items, std::size_t word,
                       FusedPlan& plan) {
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  const std::size_t m = items.size();
  plan.clear();
  plan.assign.resize(m);
  plan.marginal.resize(m);

  std::size_t full_chain = npos;
  for (std::size_t i = 0; i < m && full_chain == npos; ++i)
    if (items[i].full()) full_chain = i;

  for (std::size_t i = 0; i < m; ++i) {
    // Duplicate of an earlier request? The first occurrence of a box is
    // never a copy, so ref always points at materialized output.
    std::size_t dup = npos;
    for (std::size_t j = 0; j < i && dup == npos; ++j)
      if (detail::same_box(items[j], items[i])) dup = j;
    if (dup != npos) {
      plan.assign[i] = {FusedPlan::Source::kCopy, dup};
    } else if (!items[i].full() && full_chain != npos) {
      plan.assign[i] = {FusedPlan::Source::kGather, full_chain};
    } else {
      plan.assign[i] = {FusedPlan::Source::kChain, plan.chain_tasks.size()};
      plan.chain_tasks.push_back(i);
    }
  }

  for (std::size_t i = 0; i < m; ++i) {
    if (plan.assign[i].src == FusedPlan::Source::kChain) {
      plan.marginal[i] = items[i].admitted;
    } else {
      plan.marginal[i] = {
          0, static_cast<double>(flops::scatter_bytes(
                 static_cast<std::int64_t>(items[i].elems),
                 static_cast<std::int64_t>(word)))};
      plan.flops_saved += items[i].admitted.flops;
    }
    plan.fused_cost.flops += plan.marginal[i].flops;
    plan.fused_cost.bytes += plan.marginal[i].bytes;
  }
}

}  // namespace tucker::serve
