#pragma once
// Communication cost model for the simulated MPI runtime.
//
// The paper analyzes algorithms in the alpha-beta-gamma model (Sec 2.1):
// a message of w words costs alpha + beta*w, and flops cost gamma each.
// Our runtime executes real computation (gamma is *measured* per thread via
// CLOCK_THREAD_CPUTIME_ID) and charges modeled alpha/beta costs for every
// message actually sent, so simulated parallel time = measured local compute
// on the critical path + modeled communication. Beta is per *byte*, so
// running in single precision halves bandwidth cost exactly as on real
// hardware.

#include <cstdint>

namespace tucker::mpi {

struct CostModel {
  /// Per-message latency, seconds. Default ~ a commodity cluster interconnect.
  double alpha = 2e-6;
  /// Per-byte transfer cost, seconds (default 1/(10 GB/s)).
  double beta = 1e-10;
  /// Modeled flop rate, flops/second: the gamma of flop_cost, for callers
  /// that need a compute estimate before the work runs (serve/admission.hpp
  /// prices requests with it). Default ~ one core's sustained dgemm rate.
  double flop_rate = 5e9;
  /// Deadlock watchdog: abort with a per-rank stuck-op report when every
  /// rank has been blocked in a receive/wait with no matching message for
  /// this many wall-clock seconds. <= 0 disables the watchdog.
  double watchdog_seconds = 60;

  double message_cost(std::int64_t bytes) const {
    return alpha + beta * static_cast<double>(bytes);
  }

  /// Modeled compute cost of `flops` floating-point operations.
  double flop_cost(std::int64_t flops) const {
    return static_cast<double>(flops) / flop_rate;
  }

  /// Modeled cost of the runtime's allreduce (binomial reduce + binomial
  /// broadcast, see Comm::allreduce_bytes): 2*ceil(log2 p) rounds, the full
  /// buffer per round. Used by benches to print modeled communication
  /// tables next to measured breakdowns.
  double allreduce_cost(int p, std::int64_t bytes) const {
    if (p <= 1) return 0;
    int rounds = 0;
    for (int m = 1; m < p; m <<= 1) ++rounds;
    return 2.0 * rounds * message_cost(bytes);
  }

  /// Message rounds of the butterfly TSQR reduction over p ranks: log2 of
  /// the power-of-two subset, plus the fold/unfold pair when p is not a
  /// power of two (see dist::detail::butterfly_lq_reduce).
  static int tsqr_rounds(int p) {
    int pof2 = 1, rounds = 0;
    while (pof2 * 2 <= p) {
      pof2 *= 2;
      ++rounds;
    }
    return rounds + (p > pof2 ? 2 : 0);
  }

  /// Words per TSQR message: one packed w x w triangle.
  static std::int64_t tsqr_triangle_words(std::int64_t w) {
    return w * (w + 1) / 2;
  }

  /// Words each rank contributes to the sketch's slice allreduce: its
  /// m_loc-row slab of the w_new new sketch columns.
  static std::int64_t sketch_slice_words(std::int64_t m_loc,
                                         std::int64_t w_new) {
    return m_loc * w_new;
  }
};

}  // namespace tucker::mpi
