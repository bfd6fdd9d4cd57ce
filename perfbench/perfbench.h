// The repository benchmark's workload binary: shared declarations.
//
// One process runs one workload once: set-up, one measured window of a fixed, seeded
// amount of simulated work, teardown. It prints a Report as its last stdout line. The
// Report keeps two kinds of fields apart:
//   * sim  — simulated statistics and exact counters. A pure function of (workload, seed):
//            identical in every process, traced or not. perfbench/run.py checks that and
//            compares them with the values recorded in perfbench/golden.json.
//   * host — the simulator's own cost: host seconds, nanoseconds per probe op, peak RSS.
//
// run.py spawns these processes, takes medians over repetitions, and maps the fields onto
// the metrics named in BENCHMARK.json. perfbench/README.md documents every field.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>

namespace fractos::perfbench {

class Report {
 public:
  void sim(const std::string& key, double value) { sim_[key] = value; }
  void host(const std::string& key, double value) { host_[key] = value; }
  // {"sim": {...}, "host": {...}} on one line, every number with all its digits.
  std::string json() const;

 private:
  std::map<std::string, double> sim_;
  std::map<std::string, double> host_;
};

struct RunOptions {
  uint64_t seed = 1;
  // The per-layer pass: attach a SpanTracer and a MetricsRegistry for the measured window,
  // open one root span per op, fold every op's tax breakdown; then run the probes.
  bool trace = false;
  // When non-empty (and tracing), the window's spans are written here as Chrome trace JSON.
  std::string chrome_trace;
};

// Host seconds since the process entered main().
double host_seconds();

void run_facever_fattree(const RunOptions& opt, Report& rep);
void run_capability_1m(const RunOptions& opt, Report& rep);
void run_openloop_lossy(const RunOptions& opt, Report& rep);

// Fixed-size host-time loops over single layers' public functions (probe.* host fields).
void run_probes(uint64_t seed, Report& rep);

}  // namespace fractos::perfbench

#endif  // PERFBENCH_PERFBENCH_H_
