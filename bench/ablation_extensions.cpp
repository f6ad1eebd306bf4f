// Ablation bench for the paper's future-work variants (Sec 5), run on the
// library's own engines:
//
//  (a) tolerance mode, single precision: Gram vs QR -- the 1e-4 regime the
//      paper shows Gram-single failing in, and QR-single its answer there.
//  (b) fixed-rank mode: the randomized engine (SvdMethod::kRand) at 0 and 1
//      power iterations vs Gram vs QR -- the "likely to be competitive"
//      alternative for loose tolerances. power_iters = 0 is the plain
//      range finder (sketch, orthonormalize, projected Gram solve).
//  (c) mode ordering: forward vs backward vs greedy (ranks known a priori).
//  (d) the same fixed ranks on 8 simmpi ranks, deterministic vs randomized.

#include <cstdio>

#include "bench_util.hpp"

using namespace tucker::bench;
using tucker::core::RandSvdOptions;

namespace {

RandSvdOptions power_iters(int q) {
  RandSvdOptions r;
  r.power_iters = q;
  return r;
}

void print_row(const char* name, double secs, double flops,
               double compression, double error) {
  std::printf("  %-22s time=%8.4fs  flops=%.3e  compression=%9.2e  "
              "error=%9.2e\n",
              name, secs, flops, compression, error);
}

template <class T>
void report_seq(const char* name, const tucker::tensor::Tensor<double>& xd,
                const TruncationSpec& spec, SvdMethod method,
                std::vector<std::size_t> order = {},
                const RandSvdOptions& ropt = {}) {
  auto x = tucker::data::round_tensor_to<T>(xd);
  tucker::reset_thread_flops();
  tucker::WallTimer t;
  auto res = tucker::core::sthosvd(x, spec, method, std::move(order), ropt);
  const double secs = t.seconds();
  const auto flops = tucker::thread_flops();
  // Error against the double-precision original.
  auto xhat = res.tucker.reconstruct();
  print_row(name, secs, static_cast<double>(flops),
            res.tucker.compression_ratio(), relative_error(xd, xhat));
}

void report_par_rand(const char* name, const tucker::tensor::Tensor<double>& x,
                     const Dims& grid, const TruncationSpec& spec,
                     const std::vector<std::size_t>& order, int q) {
  double compression = 0, error = 0;
  auto stats = tucker::mpi::Runtime::run(
      tucker::dist::ProcessorGrid(grid).total(),
      [&](tucker::mpi::Comm& world) {
        tucker::dist::DistTensor<double> dt(
            world, tucker::dist::ProcessorGrid(grid), x.dims());
        dt.fill_from(x);
        auto res = tucker::core::par_sthosvd(dt, spec, SvdMethod::kRand,
                                             order, power_iters(q));
        auto tk = res.gather_to_root();
        if (world.rank() == 0) {
          compression = tk.compression_ratio();
          tucker::tensor::Tensor<double> xhat = tk.reconstruct();
          error = relative_error(x, xhat);
        }
      });
  print_row(name, stats.makespan(), static_cast<double>(stats.total_flops()),
            compression, error);
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const double scale = args.get("scale", 0.75);

  auto x = tucker::data::sp_like(scale);
  std::printf("Ablation: SP-like dataset, dims %s (sequential runs)\n",
              dims_to_string(x.dims()).c_str());
  print_rule();

  std::printf("(a) tolerance 1e-4, single precision -- Gram vs QR\n");
  const auto tol = TruncationSpec::tolerance(1e-4);
  report_seq<float>("Gram single", x, tol, SvdMethod::kGram);
  report_seq<float>("QR single", x, tol, SvdMethod::kQr);
  print_rule();

  std::printf("(b) fixed ranks (dims/5) -- randomized vs deterministic\n");
  tucker::tensor::Dims ranks(x.order());
  for (std::size_t n = 0; n < x.order(); ++n)
    ranks[n] = std::max<index_t>(1, x.dim(n) / 5);
  const auto fixed = TruncationSpec::fixed_ranks(ranks);
  report_seq<double>("Gram double", x, fixed, SvdMethod::kGram);
  report_seq<double>("QR double", x, fixed, SvdMethod::kQr);
  report_seq<double>("Rand double q=0", x, fixed, SvdMethod::kRand, {},
                     power_iters(0));
  report_seq<double>("Rand double q=1", x, fixed, SvdMethod::kRand, {},
                     power_iters(1));
  report_seq<float>("Rand single q=0", x, fixed, SvdMethod::kRand, {},
                    power_iters(0));
  report_seq<float>("Rand single q=1", x, fixed, SvdMethod::kRand, {},
                    power_iters(1));
  print_rule();

  std::printf("(c) mode ordering at the same fixed ranks (QR double)\n");
  report_seq<double>("forward", x, fixed, SvdMethod::kQr,
                     tucker::core::forward_order(x.order()));
  report_seq<double>("backward", x, fixed, SvdMethod::kQr,
                     tucker::core::backward_order(x.order()));
  report_seq<double>("greedy", x, fixed, SvdMethod::kQr,
                     tucker::core::greedy_order(x.dims(), ranks));
  print_rule();

  std::printf("(d) distributed fixed-rank, 8 ranks (grid 2x2x2x1x1): "
              "randomized sketch vs deterministic\n");
  {
    const Dims grid = {2, 2, 2, 1, 1};
    const auto order = tucker::core::backward_order(x.order());
    for (const auto& v : {Variant{SvdMethod::kQr, false, "QR double"},
                          Variant{SvdMethod::kGram, false, "Gram double"}}) {
      auto res = run_case(x, grid, fixed, v, order, /*reference_error=*/true);
      print_row(v.name, res.makespan, static_cast<double>(res.total_flops),
                res.compression, res.error);
    }
    report_par_rand("Rand double q=0", x, grid, fixed, order, 0);
    report_par_rand("Rand double q=1", x, grid, fixed, order, 1);
  }
  print_rule();
  std::printf("expected (default scale): (a) Gram-single's sqrt(eps) floor "
              "leaves it near 1x compression\nat 1e-4 where QR-single "
              "compresses ~5e3x; (b) every engine reaches the same error at\n"
              "fixed ranks, Rand q=0 does fewer flops than QR but more than "
              "Gram at these wide ranks,\nand q=1 adds a pass per mode; (c) "
              "greedy ordering does the fewest flops, forward the most\n"
              "(paper Sec 4.2.3); (d) the distributed runs reproduce (b)'s "
              "errors.\n");
  return 0;
}
