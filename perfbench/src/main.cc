// The end-to-end benchmark program:
//
//   perfbench --workload <seq_dmv|batch_subplans|net_two_tenants>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's inputs from the seed, trains, drives the timed
// load, checks every output, and prints one JSON object as the last line
// of stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 reruns the workload through
// the tracing decorator and reports the per-layer metrics instead. Exits
// non-zero when any output check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload seq_dmv|batch_subplans|"
               "net_two_tenants --seed N --seconds S --trace 0|1\n");
  return 2;
}

void PrintJson(const perfbench::RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false", r.attempted, r.failed);
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  opts.process_start = perfbench::Clock::now();
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opts.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      opts.trace = value[0] == '1';
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed) return Usage();

  perfbench::RunResult result;
  if (opts.workload == "seq_dmv") {
    perfbench::RunSeqDmv(opts, &result);
  } else if (opts.workload == "batch_subplans") {
    perfbench::RunBatchSubplans(opts, &result);
  } else if (opts.workload == "net_two_tenants") {
    perfbench::RunNetTwoTenants(opts, &result);
  } else {
    return Usage();
  }
  PrintJson(result);
  return result.failed == 0 ? 0 : 1;
}
