#pragma once
// The serving defaults under their former knob names.
//
// The library reads no tuning variable from the environment. The pool
// width (TUCKER_NUM_THREADS, common/thread_pool.hpp) and the detected ISA
// level (blas/microkernel.hpp) are the only settings resolved at run time.
// Cache blocking and the fan-out threshold are constants where they are
// used (blas::detail::kGemmJB/KB/MC, parallel::kMinFanoutFlops); every
// other former knob is the default of the options field it repeated
// (StreamOptions::chunk_bytes, ServeOptions). These
// four return ServeOptions defaults, for callers that print the
// configuration a service runs with.

#include <cstddef>

#include "serve/service.hpp"

namespace tucker::tune {

/// Largest fused reconstruction batch (ServeOptions::batch_max).
constexpr std::size_t serve_batch_max() {
  return serve::ServeOptions{}.batch_max;
}

/// Batch linger in microseconds (ServeOptions::batch_wait_us).
constexpr long serve_batch_wait_us() {
  return serve::ServeOptions{}.batch_wait_us;
}

/// Admission budget in modeled flops, 0 = unlimited
/// (ServeOptions::flop_budget).
constexpr double serve_flop_budget() {
  return serve::ServeOptions{}.flop_budget;
}

/// Model-cache LRU capacity, 0 = unbounded (ServeOptions::cache_models).
constexpr std::size_t serve_cache_models() {
  return serve::ServeOptions{}.cache_models;
}

}  // namespace tucker::tune
