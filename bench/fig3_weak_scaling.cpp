// Reproduces Fig 3: weak scaling of the four algorithm/precision variants.
//
// Paper setup: random tensor of dimension (250k)^4 on k^4 nodes, k=1,2,3,
// compressed to core (25k)^4; fixed ~1 GB local data. Scaled default here:
// (16k)^4 on k^4 simulated ranks, core (2k)^4 -- local volume is constant
// by construction, exactly as in the paper.
//
// Reported per variant and k: simulated time, GFLOPS/rank
// (= flops/rank / makespan), the time breakdown, then the mode order and
// the per-mode breakdown of the slowest rank. Expected shape
// (Fig 3): times ordered Gram single < QR single < Gram double < QR double;
// QR performs ~2x the Gram flops but achieves a comparable rate; per-rank
// rate declines gently with k (growing unfolding width shifts work, and the
// butterfly adds log P terms).

#include <cstdio>

#include "bench_util.hpp"

using namespace tucker::bench;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const long base = args.geti("base", 20);
  const long kmax = args.geti("kmax", 3);

  std::printf("Fig 3: weak scaling, tensor (%ldk)^4 on k^4 ranks, "
              "core (%ldk)^4, k=1..%ld\n", base, base / 8, kmax);
  print_rule();

  for (long k = 1; k <= kmax; ++k) {
    const auto d = static_cast<index_t>(base * k);
    const auto r = static_cast<index_t>(std::max<long>(1, (base / 8) * k));
    const auto pk = static_cast<index_t>(k);
    const Dims grid_qr = {pk, pk, pk, pk};     // backward ordering
    const Dims grid_gram = {pk, pk, pk, pk};   // forward ordering
    auto x = tucker::data::random_tensor<double>({d, d, d, d},
                                                 1000 + static_cast<unsigned>(k));
    const TruncationSpec spec = TruncationSpec::fixed_ranks({r, r, r, r});
    const int nranks = static_cast<int>(pk * pk * pk * pk);

    std::printf("k=%ld: tensor %ld^4 (%.1f MB double), %d ranks, core %ld^4\n",
                k, static_cast<long>(d),
                static_cast<double>(d) * d * d * d * 8 / 1e6, nranks,
                static_cast<long>(r));
    for (const auto& v : all_variants()) {
      const bool backward = v.method == SvdMethod::kQr;
      const auto order = backward ? tucker::core::backward_order(4)
                                  : tucker::core::forward_order(4);
      const Dims& grid = v.method == SvdMethod::kQr ? grid_qr : grid_gram;
      auto res = run_case(x, grid, spec, v, order, /*reference_error=*/false);
      const double gflops_rank =
          static_cast<double>(res.total_flops) / nranks / res.makespan / 1e9;
      std::printf("  %-12s time=%8.4fs  GFLOPS/rank=%6.2f  flops=%.3e  "
                  "[LQ/Gram %.4fs | SVD/EVD %.4fs | TTM %.4fs | comm %.4fs]\n",
                  v.name, res.makespan, gflops_rank,
                  static_cast<double>(res.total_flops), res.lq_gram,
                  res.svd_evd, res.ttm, res.comm);
      std::printf("  %-12s order %s  %s\n", "",
                  order_to_string(res.order).c_str(),
                  mode_breakdown_string(res).c_str());
    }
    print_rule();
  }
  return 0;
}
