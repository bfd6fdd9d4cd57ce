#include "src/sim/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "src/base/assert.h"
#include "src/sim/event_loop.h"

namespace fractos {

void MetricSink::emit(std::string_view key, uint64_t value) {
  if (value == 0) {
    return;
  }
  const NameId id = intern_name(key);
  if (id >= acc_->size()) {
    acc_->resize(id + 1, 0);
  }
  (*acc_)[id] += sign_ * static_cast<int64_t>(value);
}

MetricsPublisher::MetricsPublisher(EventLoop* loop, Fn fn) : loop_(loop), fn_(std::move(fn)) {
  FRACTOS_CHECK(loop_ != nullptr);
  loop_->add_publisher(this);
}

MetricsPublisher::~MetricsPublisher() {
  if (loop_ != nullptr) {
    loop_->remove_publisher(this);
  }
}

MetricsRegistry::~MetricsRegistry() {
  if (loop_ != nullptr) {
    loop_->set_metrics(nullptr);
  }
}

void MetricsRegistry::attach(EventLoop* loop) {
  FRACTOS_CHECK_MSG(loop_ == nullptr, "a MetricsRegistry is attached to one loop at a time");
  loop_ = loop;
  pull(&pulled_, -1);
}

void MetricsRegistry::detach() {
  pulled_ = pulled_now();
  loop_ = nullptr;
}

void MetricsRegistry::fold(const MetricsPublisher& pub) {
  MetricSink departed(&pulled_, +1);
  pub.publish(departed);
}

void MetricsRegistry::pull(std::vector<int64_t>* acc, int64_t sign) const {
  MetricSink sink(acc, sign);
  for (const MetricsPublisher* pub : loop_->publishers()) {
    pub->publish(sink);
  }
}

std::vector<int64_t> MetricsRegistry::pulled_now() const {
  std::vector<int64_t> out = pulled_;
  if (loop_ != nullptr) {
    pull(&out, +1);
  }
  return out;
}

int64_t MetricsRegistry::value(const std::string& key) const {
  auto it = scalars_.find(key);
  int64_t v = it == scalars_.end() ? 0 : it->second;
  const std::vector<int64_t> pulled = pulled_now();
  const NameId id = intern_name(key);
  if (id < pulled.size()) {
    v += pulled[id];
  }
  return v;
}

std::map<std::string, int64_t> MetricsRegistry::snapshot() const {
  std::map<std::string, int64_t> out(scalars_.begin(), scalars_.end());
  const std::vector<int64_t> pulled = pulled_now();
  for (NameId id = 0; id < pulled.size(); ++id) {
    if (pulled[id] != 0) {
      out[interned_name(id)] += pulled[id];
    }
  }
  char suffix[16];
  for (const auto& [key, hist] : hists_) {
    out[key + ".count"] = static_cast<int64_t>(hist.count());
    for (size_t i = 0; i < hist.num_buckets(); ++i) {
      const uint64_t n = hist.bucket(i);
      if (n != 0) {
        std::snprintf(suffix, sizeof(suffix), ".b%02zu", i);
        out[key + suffix] = static_cast<int64_t>(n);
      }
    }
  }
  return out;
}

int64_t* MetricsRegistry::scalar_slot(NameId id) {
  if (id >= scalar_slots_.size()) {
    scalar_slots_.resize(id + 1, nullptr);
  }
  int64_t*& slot = scalar_slots_[id];
  if (slot == nullptr) {
    slot = &scalars_[interned_name(id)];
  }
  return slot;
}

Log2Histogram* MetricsRegistry::hist_slot(NameId id) {
  if (id >= hist_slots_.size()) {
    hist_slots_.resize(id + 1, nullptr);
  }
  Log2Histogram*& slot = hist_slots_[id];
  if (slot == nullptr) {
    slot = &hists_[interned_name(id)];
  }
  return slot;
}

std::string MetricsRegistry::serialize() const {
  std::string out;
  char buf[32];
  for (const auto& [key, value] : snapshot()) {
    out += key;
    std::snprintf(buf, sizeof(buf), " %" PRId64 "\n", value);
    out += buf;
  }
  return out;
}

}  // namespace fractos
