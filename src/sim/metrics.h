// MetricsRegistry: named counters, gauges, and log2 histograms for the simulated cluster.
//
// Keys follow `component.node.metric` (e.g. `ctrl.1.syscalls`, `fs.fs-node.ios`,
// `net.bytes.data`) and reach the registry one of two ways:
//
//   * Pulled. A component that already keeps an always-on counter (ControllerStats,
//     TrafficCounters, FaultCounters, the open-loop TenantSlo, device op counts) owns one
//     MetricsPublisher, registered with its EventLoop for the component's lifetime. The
//     publisher emits (key, cumulative value) pairs when the registry asks; several
//     publishers may emit the same key (`nvme.reads` across devices) and their values sum.
//     No site pushes these keys, so the hot path pays nothing for them.
//   * Pushed. Facts with no struct behind them — histograms, `qp.*`, `repl.*`, `fs.*`,
//     `nvme.*_bytes`, `slots.*`, `ctrl.N.translations` — are add()ed/observe()d at the site,
//     which guards on loop.metrics(): one branch when no registry is attached.
//
// The window: loop.set_metrics(&reg) takes a baseline of every publisher, and value() /
// snapshot() / serialize() report current - baseline for pulled keys — live while attached,
// frozen at set_metrics(nullptr). A publisher destroyed mid-window folds its delta in first.
// A pulled key appears only if its delta is non-zero and a pushed key only once touched, so a
// snapshot holds exactly the metrics the window exercised, in sorted order — deterministic,
// diffable, and goldenable (tests/metrics_test.cc). A registry must outlive its attachment:
// the loop folds departing publishers into it. Its destructor (and the loop's) ends the
// attachment, so neither side is left holding a dangling pointer.
//
// The registry never schedules events and only reads simulated time handed to it, so
// attaching one cannot shift a single recorded bench number.
//
// Hot pushed sites use the NameId overloads: a site interns its key once (src/sim/intern.h),
// and each bump is then a vector index plus a cached pointer into the sorted map.

#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/intern.h"
#include "src/sim/stats.h"

namespace fractos {

class EventLoop;

// What a publisher writes its counters into: one registry's signed per-key accumulator.
class MetricSink {
 public:
  // Adds one cumulative counter value under `key` (interned only when non-zero).
  void emit(std::string_view key, uint64_t value);

 private:
  friend class MetricsRegistry;
  MetricSink(std::vector<int64_t>* acc, int64_t sign) : acc_(acc), sign_(sign) {}

  std::vector<int64_t>* acc_;  // indexed by NameId
  int64_t sign_;
};

// One component's always-on counters, registered with `loop` for this object's lifetime.
// Declare it as the owner's last member: it is then destroyed first, while the counters
// `fn` reads are still alive, and an attached registry keeps their delta. Either the loop
// or the publisher may go first (a device may outlive the System that drove it).
class MetricsPublisher {
 public:
  using Fn = std::function<void(MetricSink&)>;

  MetricsPublisher(EventLoop* loop, Fn fn);
  ~MetricsPublisher();
  MetricsPublisher(const MetricsPublisher&) = delete;
  MetricsPublisher& operator=(const MetricsPublisher&) = delete;

  void publish(MetricSink& sink) const { fn_(sink); }

 private:
  friend class EventLoop;  // clears loop_ when the loop goes first
  EventLoop* loop_;
  Fn fn_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Counters / gauges.
  void add(const std::string& key, int64_t delta = 1) { scalars_[key] += delta; }
  void set(const std::string& key, int64_t value) { scalars_[key] = value; }
  int64_t value(const std::string& key) const;

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

  bool empty() const { return snapshot().empty(); }

 private:
  // The window bookkeeping, driven by EventLoop::set_metrics and the publishers.
  friend class EventLoop;
  void attach(EventLoop* loop);            // baseline: subtract every current value
  void detach();                           // freeze: add every current value back
  void fold(const MetricsPublisher& pub);  // a publisher leaving mid-window keeps its delta

  // Adds every attached publisher's current values, times `sign`, into `acc`.
  void pull(std::vector<int64_t>* acc, int64_t sign) const;
  // The pulled deltas by NameId: pulled_, plus every live value while attached.
  std::vector<int64_t> pulled_now() const;

  // std::map never moves mapped values, so these cached pointers stay valid for the
  // registry's lifetime.
  int64_t* scalar_slot(NameId id);
  Log2Histogram* hist_slot(NameId id);

  std::map<std::string, int64_t> scalars_;
  std::map<std::string, Log2Histogram> hists_;
  std::vector<int64_t*> scalar_slots_;        // indexed by NameId
  std::vector<Log2Histogram*> hist_slots_;    // indexed by NameId

  EventLoop* loop_ = nullptr;  // set while attached
  std::vector<int64_t> pulled_;  // indexed by NameId: -baseline + departed publishers
};

}  // namespace fractos

#endif  // SRC_SIM_METRICS_H_
