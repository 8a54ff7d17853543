// Serving benchmark program: runs one workload against a loopback
// 3-node replicated map-serving cluster hosted in this process and
// prints its metrics. perfbench/run.py builds and runs this binary.
//
// Usage: hdmap_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                        [--data_dir=DIR] [--max_pending_requests=N]
//                        [--tamper=1|2]
//
// The workload parameters are constants of the program; the first line
// of output lists them.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it start with '#' (run facts, output-check failures).
// Exit code 0 only when every output check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Params* p, std::string* error) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected argument " + arg;
      return false;
    }
    arg = arg.substr(2);
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      args[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[arg] = argv[++i];
    } else {
      *error = "missing value for --" + arg;
      return false;
    }
  }
  auto num = [&](const char* key, auto* field) {
    auto it = args.find(key);
    if (it == args.end()) return;
    *field = static_cast<std::remove_pointer_t<decltype(field)>>(
        std::strtod(it->second.c_str(), nullptr));
    args.erase(it);
  };
  auto str = [&](const char* key, std::string* field) {
    auto it = args.find(key);
    if (it == args.end()) return;
    *field = it->second;
    args.erase(it);
  };
  str("workload", &p->workload);
  str("data_dir", &p->data_dir);
  num("seed", &p->seed);
  num("seconds", &p->seconds);
  num("trace", &p->trace);
  num("max_pending_requests", &p->max_pending_requests);
  num("tamper", &p->tamper);
  if (!args.empty()) {
    *error = "unknown parameter --" + args.begin()->first;
    return false;
  }
  if (p->workload.empty() || p->seconds <= 0) {
    *error = "invalid parameters";
    return false;
  }
  return true;
}

/// Every digit of a measured value; non-finite values cannot appear in
/// JSON, so they are written as a large sentinel.
std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 1e9);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Params params;
  std::string error;
  if (!ParseArgs(argc, argv, &params, &error)) {
    std::fprintf(stderr, "hdmap_perfbench: %s\n", error.c_str());
    return 2;
  }
  std::string config = ConfigLine(params.workload);
  if (config.empty()) {
    std::fprintf(stderr, "hdmap_perfbench: unknown workload %s\n",
                 params.workload.c_str());
    return 2;
  }
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d host_cores=%u "
              "build=%s %s\n",
              params.workload.c_str(),
              static_cast<unsigned long long>(params.seed), params.seconds,
              params.trace ? 1 : 0, std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, config.c_str());
  RunResult result = RunWorkload(params);
  for (const Metric& m : result.info) {
    std::printf("# %s = %s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& problem : result.problems) {
    std::printf("# OUTPUT CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("# output_check = %s\n", result.correct ? "pass" : "FAIL");
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i != 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
