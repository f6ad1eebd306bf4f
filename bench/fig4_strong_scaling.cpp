// Reproduces Fig 4 + Table 1: strong scaling of the four variants on a
// fixed synthetic tensor, over a doubling ladder of rank counts with the
// per-method processor grids of Table 1.
//
// Paper setup: 256^4 -> 32^4 over 32..2048 cores. Scaled default here:
// 48^4 -> 6^4 over P = 1..64 simulated ranks. Grids follow Table 1's
// pattern: QR uses front-loaded grids with P_{N-1} = 1 (backward ordering
// processes the last mode first on an undistributed unfolding); Gram uses
// the mirrored back-loaded grids with forward ordering.
//
// Expected shape (Fig 4): times decrease with P for all variants and
// flatten when local blocks get small (latency-bound); ordering
// QR double > Gram double > QR single > Gram single; QR single beats
// Gram double (the paper's headline speedup).
//
// Prints Table 1, the strong-scaling table and the per-mode breakdown at
// the largest P; writes no file. Every run is the blocking par_sthosvd,
// the paper's schedule of TuckerMPI collectives.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace tucker::bench;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const auto d = static_cast<index_t>(args.geti("dim", 48));
  const auto r = static_cast<index_t>(args.geti("rank", 6));
  const long pmax = args.geti("pmax", 64);

  // Table 1 analogue: doubling grids, QR front-loaded / Gram back-loaded.
  struct Row {
    int p;
    Dims qr;
    Dims gram;
  };
  std::vector<Row> table = {
      {1, {1, 1, 1, 1}, {1, 1, 1, 1}},   {2, {2, 1, 1, 1}, {1, 1, 1, 2}},
      {4, {2, 2, 1, 1}, {1, 1, 2, 2}},   {8, {4, 2, 1, 1}, {1, 1, 2, 4}},
      {16, {4, 4, 1, 1}, {1, 1, 4, 4}},  {32, {8, 4, 1, 1}, {1, 1, 4, 8}},
      {64, {8, 8, 1, 1}, {1, 1, 8, 8}},
  };

  std::printf("Fig 4 + Tab 1: strong scaling, tensor %ld^4 -> core %ld^4\n",
              static_cast<long>(d), static_cast<long>(r));
  print_rule();
  std::printf("Table 1 (processor grids):\n%6s %-14s %-14s\n", "P",
              "QR grid", "Gram grid");
  for (const auto& row : table) {
    if (row.p > pmax) break;
    std::printf("%6d %-14s %-14s\n", row.p, dims_to_string(row.qr).c_str(),
                dims_to_string(row.gram).c_str());
  }
  print_rule();

  auto x = tucker::data::random_tensor<double>({d, d, d, d}, 256);
  const TruncationSpec spec = TruncationSpec::fixed_ranks({r, r, r, r});

  std::printf("%6s %14s %14s %14s %14s\n", "P", "QR_single(s)",
              "QR_double(s)", "Gram_single(s)", "Gram_double(s)");
  std::vector<double> base_times;
  std::vector<CaseResult> last_results;  // largest P measured, per variant
  int last_p = 0;
  for (const auto& row : table) {
    if (row.p > pmax) break;
    std::vector<double> times;
    last_results.clear();
    last_p = row.p;
    for (const auto& v : all_variants()) {
      const bool qr = v.method == SvdMethod::kQr;
      const auto order = qr ? tucker::core::backward_order(4)
                            : tucker::core::forward_order(4);
      auto res = run_case(x, qr ? row.qr : row.gram, spec, v, order,
                          /*reference_error=*/false);
      times.push_back(res.makespan);
      last_results.push_back(std::move(res));
    }
    if (base_times.empty()) base_times = times;
    std::printf("%6d %14.4f %14.4f %14.4f %14.4f   speedup vs P=1: "
                "%.1fx %.1fx %.1fx %.1fx\n",
                row.p, times[0], times[1], times[2], times[3],
                base_times[0] / times[0], base_times[1] / times[1],
                base_times[2] / times[2], base_times[3] / times[3]);
  }
  print_rule();
  std::printf("Per-mode breakdown at P=%d (slowest rank, processing order):\n",
              last_p);
  for (std::size_t i = 0; i < last_results.size(); ++i)
    std::printf("  %-12s order %s  %s\n", all_variants()[i].name,
                order_to_string(last_results[i].order).c_str(),
                mode_breakdown_string(last_results[i]).c_str());
  print_rule();
  std::printf("paper expectation: all variants scale; QR single beats Gram "
              "double by ~30%%.\nOn this substrate QR single lands near Gram "
              "double -- our hand-written QR reaches a\nlower fraction of "
              "peak than MKL's; the ordering of the other variants holds "
              "(EXPERIMENTS.md).\n");
  print_rule();
  return 0;
}
