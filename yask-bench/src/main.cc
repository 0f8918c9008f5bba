// yask-bench: one benchmark for the why-not engine, the shard fleet and the
// coordinator, measured end to end (tracing off) and layer by layer (a
// separate traced run). See README.md for the workloads, the metrics and
// what each per-layer metric predicts.
//
//   yask_bench --workload engine-whynot|fleet-whynot --seed N --seconds S
//              --trace 0|1 [--data-dir DIR]
//   yask_bench --verify
//
// Progress and a readable summary go to stderr. The last line of stdout is
// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  using namespace yask_bench;
  Args args;
  bool verify = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--data-dir" && has_value) {
      args.data_dir = argv[++i];
    } else if (arg == "--verify") {
      verify = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --workload engine-whynot|fleet-whynot --seed N "
                   "--seconds S --trace 0|1 [--data-dir DIR]\n"
                   "       %s --verify\n",
                   argv[0], argv[0]);
      return 2;
    }
  }
  if (verify) return RunVerify();
  if (args.workload != "engine-whynot" && args.workload != "fleet-whynot") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return args.trace ? RunTraced(args) : RunWorkload(args);
}
