#include "src/sim/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace fractos {

std::map<std::string, int64_t> MetricsRegistry::snapshot() const {
  std::map<std::string, int64_t> out(scalars_.begin(), scalars_.end());
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
