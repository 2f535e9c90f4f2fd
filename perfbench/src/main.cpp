// perfbench: the repository benchmark's executable.  perfbench/run.py builds
// it and runs
//
//   perfbench --workload <orbital_eval|vmc_graphite|job_service> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Every line it prints is a human-readable report line except the last,
// which is the JSON result: correct, attempted, failed and the metrics
// (end-to-end metrics untraced, per-layer metrics traced).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

int main(int argc, char** argv)
{
  perfbench::Args args;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (!have_workload || !have_seed || args.seconds <= 0.0) {
    std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  if (args.workload == "orbital_eval")
    return perfbench::run_orbital_eval(args);
  if (args.workload == "vmc_graphite")
    return perfbench::run_vmc_graphite(args);
  if (args.workload == "job_service")
    return perfbench::run_job_service(args);
  std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
  return 2;
}
