// End-to-end benchmark of the tucker library: runs one workload, checks its
// outputs, and prints its metrics (see benchmark/README.md).
//
//   tucker_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--smoke] [--out-dir DIR]
//
// Normally started through benchmark/run.sh, which builds it first.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "build_info.hpp"
#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tucker_bench: %s\nusage: tucker_bench --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--out-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string val;
    bool has_val = false;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      val = key.substr(eq + 1);
      key = key.substr(0, eq);
      has_val = true;
    }
    auto value = [&]() -> std::string {
      if (has_val) return val;
      if (i + 1 >= argc) usage(("missing value for " + key).c_str());
      return argv[++i];
    };
    if (key == "--workload") {
      args.workload = value();
    } else if (key == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (key == "--trace") {
      args.trace = value() != "0";
    } else if (key == "--smoke") {
      args.smoke = true;
    } else if (key == "--out-dir") {
      args.out_dir = value();
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (std::strcmp(BENCH_BUILD_TYPE, "Release") != 0)
    usage("refusing to measure a non-Release build");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  if (args.smoke) args.seconds = std::min(args.seconds, 1.0);
  const bool compress = bench::is_compress_workload(args.workload);
  if (!compress && !bench::is_serve_workload(args.workload))
    usage(("unknown workload '" + args.workload + "'").c_str());

  bench::Report rep(args);
  bench::add_run_metadata(rep, args);
  try {
    if (compress) {
      bench::run_compress(args, rep);
    } else {
      bench::run_serve(args, rep);
    }
  } catch (const std::exception& e) {
    rep.gate_failed(std::string("exception: ") + e.what());
  }
  return rep.finish();
}
