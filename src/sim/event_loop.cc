#include "src/sim/event_loop.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>

#include "src/base/assert.h"
#include "src/sim/metrics.h"

namespace fractos {

EventLoop::~EventLoop() {
  set_metrics(nullptr);
  for (MetricsPublisher* pub : publishers_) {
    pub->loop_ = nullptr;  // its owner outlives this loop; nothing is left to remove it from
  }
}

void EventLoop::set_metrics(MetricsRegistry* metrics) {
  if (metrics_ != nullptr) {
    metrics_->detach();
  }
  metrics_ = metrics;
  if (metrics_ != nullptr) {
    metrics_->attach(this);
  }
}

void EventLoop::remove_publisher(MetricsPublisher* pub) {
  auto it = std::find(publishers_.begin(), publishers_.end(), pub);
  FRACTOS_CHECK(it != publishers_.end());
  if (metrics_ != nullptr) {
    metrics_->fold(*pub);
  }
  *it = publishers_.back();
  publishers_.pop_back();
}

void EventLoop::schedule_at(Time when, Callback cb) {
  FRACTOS_DCHECK(static_cast<bool>(cb));
  if (when < now_) {
    when = now_;
  }
  Event ev{when, next_seq_++, std::move(cb), SpanContext{}};
  if (span_tracing_active()) {
    ev.ctx = ambient_span_context();
  }
  insert(std::move(ev));
}

void EventLoop::schedule_after(Duration delay, Callback cb) {
  FRACTOS_DCHECK(delay >= Duration::zero());
  schedule_at(now() + delay, std::move(cb));
}

void EventLoop::post(Callback cb) { schedule_at(now(), std::move(cb)); }

void EventLoop::insert(Event&& ev) {
  ++pending_;
  const uint64_t b = bucket_no(ev.when);
  if (draining_ && b <= wheel_pos_) {
    // The event lands in the bucket currently being drained (or an already-scanned empty
    // one): splice it into the unfired remainder at its exact (when, seq) position. Its when
    // is clamped to now and its seq is the global maximum, so it lands after every remaining
    // equal-when event — identical to what a single global priority queue would do.
    if (drain_pos_ > 64 && drain_pos_ * 2 > drain_.size()) {
      // A long-draining bucket (e.g. the cursor parked on a far-future event while near-time
      // work churns through here) would otherwise accumulate fired slots without bound.
      drain_.erase(drain_.begin(), drain_.begin() + static_cast<ptrdiff_t>(drain_pos_));
      drain_pos_ = 0;
    }
    const auto it = std::upper_bound(
        drain_.begin() + static_cast<ptrdiff_t>(drain_pos_), drain_.end(), ev,
        [](const Event& a, const Event& e) {
          return a.when != e.when ? a.when < e.when : a.seq < e.seq;
        });
    drain_.insert(it, std::move(ev));
    return;
  }
  if (b < wheel_pos_ + kNumBuckets) {
    std::vector<Event>& bucket = buckets_[b & kWheelMask];
    if (bucket.empty()) {
      occupancy_[(b & kWheelMask) >> 6] |= uint64_t{1} << (b & 63);
    }
    bucket.push_back(std::move(ev));
    ++wheel_count_;
  } else {
    heap_.push_back(std::move(ev));
    std::push_heap(heap_.begin(), heap_.end(), [](const Event& a, const Event& b2) {
      return a.when != b2.when ? a.when > b2.when : a.seq > b2.seq;
    });
  }
}

uint64_t EventLoop::next_occupied_bucket(uint64_t pos) const {
  const uint64_t start = pos & kWheelMask;
  uint64_t word_i = start >> 6;
  uint64_t w = occupancy_[word_i] & (~uint64_t{0} << (start & 63));
  for (uint64_t n = 0; n <= kNumBuckets / 64; ++n) {
    if (w != 0) {
      const uint64_t idx = (word_i << 6) + static_cast<uint64_t>(std::countr_zero(w));
      return pos + ((idx - start) & kWheelMask);
    }
    word_i = (word_i + 1) & (kNumBuckets / 64 - 1);
    w = occupancy_[word_i];
  }
  FRACTOS_CHECK(false);  // unreachable: wheel_count_ > 0 guarantees an occupied bucket
  return pos;
}

bool EventLoop::prepare() {
  if (drain_pos_ < drain_.size()) {
    return true;
  }
  if (draining_) {
    drain_.clear();
    drain_pos_ = 0;
    draining_ = false;
  }
  if (pending_ == 0) {
    return false;
  }

  // The next bucket to drain: the nearest non-empty wheel bucket, unless the heap's minimum
  // is due sooner (possible after the cursor advanced past a heap event's bucket, or when
  // the wheel is empty and the cursor must jump — the re-base case).
  uint64_t b = UINT64_MAX;
  if (wheel_count_ > 0) {
    b = next_occupied_bucket(wheel_pos_);
  }
  if (!heap_.empty()) {
    const uint64_t heap_b = bucket_no(heap_.front().when);
    if (heap_b < b) {
      b = heap_b;
    }
  }
  wheel_pos_ = b;

  // Load the bucket (swap keeps the retired drain vector's capacity warm inside the ring),
  // merge in every heap event due in it, and establish the exact firing order once.
  std::vector<Event>& bucket = buckets_[b & kWheelMask];
  occupancy_[(b & kWheelMask) >> 6] &= ~(uint64_t{1} << (b & 63));
  drain_.swap(bucket);
  wheel_count_ -= drain_.size();
  const auto later = [](const Event& a, const Event& b2) {
    return a.when != b2.when ? a.when > b2.when : a.seq > b2.seq;
  };
  while (!heap_.empty() && bucket_no(heap_.front().when) <= b) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    drain_.push_back(std::move(heap_.back()));
    heap_.pop_back();
  }
  std::sort(drain_.begin(), drain_.end(), [](const Event& a, const Event& b2) {
    return a.when != b2.when ? a.when < b2.when : a.seq < b2.seq;
  });
  drain_pos_ = 0;
  draining_ = true;
  return true;
}

void EventLoop::fire_next() {
  // The event must be moved out before running: the callback may schedule into the current
  // bucket and reallocate drain_'s storage.
  Event ev = std::move(drain_[drain_pos_]);
  ++drain_pos_;
  --pending_;
  FRACTOS_DCHECK(ev.when >= now_);
  now_ = ev.when;
  ++steps_;
  if (span_tracing_active()) {
    SpanScope scope(ev.ctx);
    ev.cb();
  } else {
    ev.cb();
  }
}

uint64_t EventLoop::run(uint64_t max_steps) {
  uint64_t processed = 0;
  while (processed < max_steps && prepare()) {
    fire_next();
    ++processed;
  }
  return processed;
}

void EventLoop::run_until_time(Time deadline) {
  while (prepare() && drain_[drain_pos_].when <= deadline) {
    fire_next();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace fractos
