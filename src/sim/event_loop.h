// Deterministic discrete-event loop.
//
// Every latency in the FractOS reproduction — network hops, PCIe crossings, controller compute,
// device service times — is realized by scheduling a callback at a future simulated Time. Events
// with equal timestamps fire in submission order (a monotonically increasing sequence number
// breaks ties), which makes whole-cluster runs bit-for-bit reproducible.
//
// The scheduler is two-level (see DESIGN.md §4e): a bucketed timer wheel covers the near
// future (kNumBuckets buckets of 2^kBucketBits ns each — most fabric/device latencies land
// here at O(1) insert), and a binary heap holds everything beyond the wheel horizon. A bucket
// is sorted by (when, seq) only when the cursor reaches it, and heap events are merged into
// their bucket at the same point, so the exact global (when, seq) firing order of a single
// priority queue is preserved — that ordering is the bit-identical-results invariant every
// recorded bench number depends on. Callbacks are InlineFn (src/sim/inline_fn.h): no heap
// allocation per event for small captures, freelist-recycled blocks for large ones.

#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <vector>

#include "src/base/assert.h"
#include "src/sim/inline_fn.h"
#include "src/sim/span.h"
#include "src/sim/time.h"

namespace fractos {

class MetricsPublisher;
class MetricsRegistry;

class EventLoop {
 public:
  using Callback = InlineFn;

  EventLoop() = default;
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // The time of the last fired event.
  Time now() const { return now_; }

  // Schedules `cb` to run at absolute time `when` (clamped to now()).
  void schedule_at(Time when, Callback cb);

  // Schedules `cb` to run `delay` after now().
  void schedule_after(Duration delay, Callback cb);

  // Schedules `cb` to run at the current time, after already-pending same-time events.
  void post(Callback cb);

  // Runs events until the queue is empty or `max_steps` events have fired.
  // Returns the number of events processed.
  uint64_t run(uint64_t max_steps = UINT64_MAX);

  // Runs events until `pred()` holds (checked after every event) or the queue drains.
  // Returns true iff the predicate was satisfied. `pred` is invoked directly (no
  // std::function indirection), so hot soak loops pay one inlineable call per event.
  template <typename Pred>
  bool run_until(Pred&& pred, uint64_t max_steps = UINT64_MAX) {
    if (pred()) {
      return true;
    }
    uint64_t processed = 0;
    while (processed < max_steps && prepare()) {
      fire_next();
      ++processed;
      if (pred()) {
        return true;
      }
    }
    return false;
  }

  // Runs all events scheduled at or before `deadline`, then sets now() to `deadline` if the
  // simulation has not already advanced past it.
  void run_until_time(Time deadline);

  bool empty() const { return pending_ == 0; }
  size_t pending() const { return pending_; }
  uint64_t steps() const { return steps_; }

  // --- structured spans & metrics (see src/sim/span.h, src/sim/metrics.h) ---
  //
  // While any SpanTracer is alive, every scheduled Event captures the ambient SpanContext
  // and restores it when it fires, so trace context flows through timers and wire deliveries
  // for free. Neither hook ever schedules events or advances time: attaching a tracer or a
  // registry cannot shift a single simulated timestamp.
  void set_span_tracer(SpanTracer* tracer) { span_tracer_ = tracer; }
  SpanTracer* span_tracer() const { return span_tracer_; }
  // Detaches the current registry (freezing its window) and attaches `metrics`, whose
  // window starts now.
  void set_metrics(MetricsRegistry* metrics);
  MetricsRegistry* metrics() const { return metrics_; }

  // The publishers of always-on counters (MetricsPublisher registers and removes itself;
  // a removal folds the publisher's delta into the attached registry).
  void add_publisher(MetricsPublisher* pub) { publishers_.push_back(pub); }
  void remove_publisher(MetricsPublisher* pub);
  const std::vector<MetricsPublisher*>& publishers() const { return publishers_; }

 private:
  struct Event {
    Time when;
    uint64_t seq;
    Callback cb;
    SpanContext ctx;  // ambient span context at schedule time (empty when tracing is off)
  };

  // Wheel geometry: 2^kBucketBits ns per bucket, kNumBuckets buckets — a ~262 us horizon
  // with 128 ns buckets, which covers the fabric/device latency range of this simulation.
  // (Chosen empirically via bench_simspeed's timer soak: smaller buckets mean smaller
  // drain sorts; 2048 slots keep the horizon wide enough that device latencies stay O(1).)
  static constexpr int kBucketBits = 7;
  static constexpr int kWheelBits = 11;
  static constexpr uint64_t kNumBuckets = uint64_t{1} << kWheelBits;
  static constexpr uint64_t kWheelMask = kNumBuckets - 1;

  static uint64_t bucket_no(Time t) { return static_cast<uint64_t>(t.ns()) >> kBucketBits; }

  // Files `ev` into the draining bucket, the wheel, or the far-future heap.
  void insert(Event&& ev);

  // Ensures drain_[drain_pos_] is the next (when, seq) event; false iff no events are
  // pending. Advances the wheel cursor and merges due heap events, but never fires.
  bool prepare();

  // Fires the event staged by prepare().
  void fire_next();

  // Returns the absolute number of the first non-empty bucket at or after `pos` (ring
  // space). Only valid while wheel_count_ > 0.
  uint64_t next_occupied_bucket(uint64_t pos) const;

  // Near future: ring of append-only buckets. buckets_[b & kWheelMask] holds events whose
  // bucket number is b, for b in [wheel_pos_, wheel_pos_ + kNumBuckets). occupancy_ mirrors
  // which ring slots are non-empty so the cursor skips empty stretches word-at-a-time.
  std::vector<Event> buckets_[kNumBuckets];
  uint64_t occupancy_[kNumBuckets / 64] = {};
  uint64_t wheel_pos_ = 0;  // absolute bucket number the cursor is at
  size_t wheel_count_ = 0;  // events currently filed in buckets

  // Far future (beyond the wheel horizon): min-heap on (when, seq).
  std::vector<Event> heap_;

  // The bucket being drained: sorted by (when, seq); drain_pos_ is the next unfired event.
  // Events scheduled into the current bucket mid-drain are inserted in order.
  std::vector<Event> drain_;
  size_t drain_pos_ = 0;
  bool draining_ = false;

  size_t pending_ = 0;  // total unfired events across drain, buckets, and heap
  Time now_;            // time of the last fired event
  uint64_t steps_ = 0;
  uint64_t next_seq_ = 0;

  SpanTracer* span_tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  std::vector<MetricsPublisher*> publishers_;
};

}  // namespace fractos

#endif  // SRC_SIM_EVENT_LOOP_H_
