// MetricsRegistry: named counters, gauges, and log2 histograms for the simulated cluster.
//
// Components register metrics lazily by incrementing them — Network (bytes, drops,
// retransmits), Controllers (ops, dedup hits), SlotPools (waits), devices, services. Keys
// follow `component.node.metric` (e.g. `ctrl.1.syscalls`, `fs.fs-node.ios`, `net.bytes.data`);
// keys are created on first touch, so a snapshot contains exactly the metrics the run
// exercised, in sorted order — deterministic, diffable, and goldenable (tests/metrics_test.cc).
//
// Zero-cost discipline: a registry is attached to the EventLoop (loop.set_metrics(&reg)) and
// every site guards on the pointer — one branch when disabled, no strings built. The registry
// never schedules events and only ever reads simulated time handed to it, so attaching one
// cannot shift a single recorded bench number.
//
// Hot paths use the NameId overloads: a site interns its key once (src/sim/intern.h), and
// each bump is then a vector index plus a cached pointer into the sorted map — no string
// construction, hashing, or tree walk. The maps stay the single source of truth, so
// snapshot()/serialize() are byte-identical whichever overload fed them.

#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/intern.h"
#include "src/sim/stats.h"

namespace fractos {

class MetricsRegistry {
 public:
  // Counters / gauges.
  void add(const std::string& key, int64_t delta = 1) { scalars_[key] += delta; }
  void set(const std::string& key, int64_t value) { scalars_[key] = value; }
  int64_t value(const std::string& key) const {
    auto it = scalars_.find(key);
    return it == scalars_.end() ? 0 : it->second;
  }

  // Interned-key fast path (the map lookup happens once per id, then is cached).
  void add(NameId id, int64_t delta = 1) { *scalar_slot(id) += delta; }
  void set(NameId id, int64_t value) { *scalar_slot(id) = value; }

  // Distributions (Log2Histogram buckets).
  void observe(const std::string& key, uint64_t sample) { hists_[key].add(sample); }
  void observe(NameId id, uint64_t sample) { hist_slot(id)->add(sample); }
  const Log2Histogram* histogram(const std::string& key) const {
    auto it = hists_.find(key);
    return it == hists_.end() ? nullptr : &it->second;
  }

  // Flattened, sorted key -> value view: scalars verbatim; each histogram `h` expands to
  // `h.count` plus `h.b<NN>` for every non-empty bucket (NN zero-padded so lexicographic
  // order is bucket order).
  std::map<std::string, int64_t> snapshot() const;

  // One "key value\n" line per snapshot entry — the golden-file format.
  std::string serialize() const;

  bool empty() const { return scalars_.empty() && hists_.empty(); }

 private:
  // std::map never moves mapped values, so these cached pointers stay valid for the
  // registry's lifetime.
  int64_t* scalar_slot(NameId id);
  Log2Histogram* hist_slot(NameId id);

  std::map<std::string, int64_t> scalars_;
  std::map<std::string, Log2Histogram> hists_;
  std::vector<int64_t*> scalar_slots_;        // indexed by NameId
  std::vector<Log2Histogram*> hist_slots_;    // indexed by NameId
};

}  // namespace fractos

#endif  // SRC_SIM_METRICS_H_
