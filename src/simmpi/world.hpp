#pragma once
// Internal shared state of the simulated MPI runtime. Not a public header.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <list>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/timer.hpp"
#include "simmpi/breakdown.hpp"
#include "simmpi/cost_model.hpp"

namespace tucker::mpi {

struct Mail {
  int src_world;             // sender's world rank
  std::int64_t ctx;          // communicator context
  std::int64_t tag;
  std::vector<std::byte> bytes;
  double ready_vtime;        // sender's virtual clock when delivery completes
};

struct Mailbox {
  std::mutex mutex;
  std::condition_variable cv;
  std::list<Mail> queue;
};

// Per-rank state. Each rank's thread is the sole writer of its own entry;
// mailboxes are the only cross-thread channel.
struct RankState {
  double vtime = 0;                 // simulated clock
  double cpu_last = 0;              // last sampled thread CPU seconds
  ThreadCpuTimer cpu_timer;         // created on the rank's own thread
  Breakdown breakdown;
  std::int64_t bytes_sent = 0;
  std::int64_t messages_sent = 0;
  std::int64_t flops = 0;           // filled in at teardown

  // While an isend is being posted, its send advances *alt_clock (the
  // op's shadow clock) instead of vtime and skips breakdown charging; the
  // Request credits the unhidden remainder at wait time (see comm.cpp).
  // Only the rank's own thread touches this.
  double* alt_clock = nullptr;
  // Modeled communication seconds hidden behind compute or behind other
  // in-flight operations (credited at wait; see Comm docs).
  double overlap_hidden = 0;
  // Modeled time at which this rank's network injection pipe frees up.
  // Sends (blocking or posted) serialize through it: a rank cannot inject
  // message k+1 before message k has left, even when both are in flight --
  // overlap hides communication behind *compute*, never behind more of the
  // rank's own injection bandwidth.
  double inject_busy_until = 0;
};

// What a rank is currently blocked on, for the deadlock watchdog report.
// src_world == kFinished marks a rank whose function has returned: it will
// never send again, so for deadlock purposes it counts as blocked forever
// (it never polls, so an all-finished world simply tears down).
struct BlockedOp {
  static constexpr int kFinished = -2;
  int src_world = -1;
  std::int64_t ctx = 0;
  std::int64_t tag = 0;
  std::int64_t bytes = 0;
};

class World {
 public:
  World(int nprocs, CostModel model)
      : model_(model), boxes_(nprocs), ranks_(nprocs),
        wd_blocked_(static_cast<std::size_t>(nprocs)),
        wd_is_blocked_(static_cast<std::size_t>(nprocs), false) {}

  int nprocs() const { return static_cast<int>(ranks_.size()); }
  const CostModel& model() const { return model_; }
  Mailbox& box(int world_rank) { return boxes_[static_cast<std::size_t>(world_rank)]; }
  RankState& state(int world_rank) { return ranks_[static_cast<std::size_t>(world_rank)]; }

  /// Returns a context id for a split, identical for all callers that pass
  /// the same (parent_ctx, seq, color) triple.
  std::int64_t split_context(std::int64_t parent_ctx, std::int64_t seq,
                             int color) {
    std::lock_guard<std::mutex> g(ctx_mutex_);
    auto key = std::make_tuple(parent_ctx, seq, static_cast<std::int64_t>(color));
    auto [it, inserted] = ctx_registry_.try_emplace(key, next_ctx_);
    if (inserted) ++next_ctx_;
    return it->second;
  }

  // ---- deadlock watchdog -----------------------------------------------
  // A rank entering a blocking receive registers what it waits for; when
  // every rank is registered (nothing can make progress any more -- only a
  // running rank can deliver mail) and the full-block persists past the
  // model's watchdog_seconds of wall time, the first rank to notice prints
  // a per-rank stuck-op report and aborts instead of hanging ctest.

  bool watchdog_enabled() const { return model_.watchdog_seconds > 0; }

  void watchdog_block(int world_rank, const BlockedOp& op) {
    std::lock_guard<std::mutex> g(wd_mutex_);
    const auto r = static_cast<std::size_t>(world_rank);
    wd_blocked_[r] = op;
    if (!wd_is_blocked_[r]) {
      wd_is_blocked_[r] = true;
      if (++wd_count_ == nprocs())
        wd_full_since_ = std::chrono::steady_clock::now();
    }
  }

  void watchdog_unblock(int world_rank) {
    std::lock_guard<std::mutex> g(wd_mutex_);
    const auto r = static_cast<std::size_t>(world_rank);
    if (wd_is_blocked_[r]) {
      wd_is_blocked_[r] = false;
      --wd_count_;
    }
  }

  /// Called by a blocked rank after a wait timeout. Aborts (noreturn) when
  /// a full-world block has persisted past the configured limit.
  void watchdog_poll() {
    std::unique_lock<std::mutex> g(wd_mutex_);
    if (wd_count_ < nprocs()) return;
    const double stalled =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wd_full_since_)
            .count();
    if (stalled < model_.watchdog_seconds) return;
    std::fprintf(stderr,
                 "simmpi deadlock watchdog: all %d ranks blocked for %.1fs "
                 "(limit %.1fs); per-rank stuck ops:\n",
                 nprocs(), stalled, model_.watchdog_seconds);
    for (int r = 0; r < nprocs(); ++r) {
      const BlockedOp& op = wd_blocked_[static_cast<std::size_t>(r)];
      if (op.src_world == BlockedOp::kFinished)
        std::fprintf(stderr, "  rank %d: finished (will never send again)\n",
                     r);
      else
        std::fprintf(
            stderr, "  rank %d: recv(src=%d, ctx=%lld, tag=%lld, bytes=%lld)\n",
            r, op.src_world, static_cast<long long>(op.ctx),
            static_cast<long long>(op.tag), static_cast<long long>(op.bytes));
    }
    std::abort();
  }

 private:
  CostModel model_;
  std::vector<Mailbox> boxes_;
  std::vector<RankState> ranks_;
  std::mutex ctx_mutex_;
  std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>, std::int64_t>
      ctx_registry_;
  std::int64_t next_ctx_ = 1;

  std::mutex wd_mutex_;
  std::vector<BlockedOp> wd_blocked_;
  std::vector<bool> wd_is_blocked_;
  int wd_count_ = 0;
  std::chrono::steady_clock::time_point wd_full_since_{};
};

}  // namespace tucker::mpi
