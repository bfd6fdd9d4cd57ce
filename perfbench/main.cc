// perfbench_workload: runs one benchmark workload in this process and prints its Report as
// the last line of stdout.
//
//   perfbench_workload <facever_fattree|capability_1m|openloop_lossy> [--seed N] [--trace]
//                      [--chrome-trace PATH]
//
// --trace is the per-layer pass: it attaches the span tracer and metrics registry to the
// measured window, then runs the per-layer host-time probes after the workload. A wrong
// result, a failed or unresolved op fails a CHECK or is reported in the sim fields;
// perfbench/run.py turns either into a failed run.

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"  // the bench binaries' allocator tuning applies here too
#include "perfbench/perfbench.h"
#include "src/base/assert.h"

namespace fractos::perfbench {

namespace {
const std::chrono::steady_clock::time_point g_start = std::chrono::steady_clock::now();

void append_map(std::string& out, const char* name, const std::map<std::string, double>& m) {
  out += '"';
  out += name;
  out += "\": {";
  bool first = true;
  char buf[64];
  for (const auto& [key, value] : m) {
    FRACTOS_CHECK_MSG(std::isfinite(value), key.c_str());
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += first ? "\"" : ", \"";
    out += key;
    out += "\": ";
    out += buf;
    first = false;
  }
  out += '}';
}
}  // namespace

double host_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - g_start).count();
}

std::string Report::json() const {
  std::string out = "{";
  append_map(out, "sim", sim_);
  out += ", ";
  append_map(out, "host", host_);
  out += '}';
  return out;
}

}  // namespace fractos::perfbench

int main(int argc, char** argv) {
  using namespace fractos::perfbench;
  auto usage = [&]() {
    std::fprintf(stderr,
                 "usage: %s <facever_fattree|capability_1m|openloop_lossy> [--seed N] "
                 "[--trace] [--chrome-trace PATH]\n",
                 argv[0]);
    return 2;
  };
  if (argc < 2) {
    return usage();
  }
  const std::string workload = argv[1];
  RunOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') {
        return usage();
      }
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--chrome-trace" && i + 1 < argc) {
      opt.chrome_trace = argv[++i];
    } else {
      return usage();
    }
  }

  Report rep;
  if (workload == "facever_fattree") {
    run_facever_fattree(opt, rep);
  } else if (workload == "capability_1m") {
    run_capability_1m(opt, rep);
  } else if (workload == "openloop_lossy") {
    run_openloop_lossy(opt, rep);
  } else {
    return usage();
  }
  // Peak RSS of the workload alone: the probes below run only in the traced pass.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rep.host("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  if (opt.trace) {
    run_probes(opt.seed, rep);
  }
  std::printf("%s\n", rep.json().c_str());
  return 0;
}
