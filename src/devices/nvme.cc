#include "src/devices/nvme.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <utility>

#include "src/base/assert.h"
#include "src/base/extent.h"
#include "src/fabric/params.h"
#include "src/sim/metrics.h"

namespace fractos {

namespace {

struct NvmeNames {
  NameId read_bytes = intern_name("nvme.read_bytes");
  NameId write_bytes = intern_name("nvme.write_bytes");
  NameId nvme = intern_name("nvme");
  NameId channel_wait = intern_name("channel-wait");
  NameId nvme_read = intern_name("nvme-read");
  NameId nvme_write = intern_name("nvme-write");
};

const NvmeNames& nvme_names() {
  static const NvmeNames n;
  return n;
}

}  // namespace

SimNvme::SimNvme(EventLoop* loop, Params params)
    : loop_(loop),
      params_(params),
      publisher_(loop, [this](MetricSink& out) {
        out.emit("nvme.reads", reads_);
        out.emit("nvme.writes", writes_);
      }) {
  FRACTOS_CHECK(params_.channels > 0);
  channel_free_.assign(params_.channels, Time{});
}

Status SimNvme::check_range(uint64_t off, uint64_t size) const {
  if (!extent_within(off, size, params_.capacity_bytes)) {
    return ErrorCode::kOutOfRange;
  }
  return ok_status();
}

Time SimNvme::schedule_on_channel(Duration service, Time* start_out) {
  size_t best = 0;
  for (size_t i = 1; i < channel_free_.size(); ++i) {
    if (channel_free_[i] < channel_free_[best]) {
      best = i;
    }
  }
  const Time start = max(loop_->now(), channel_free_[best]);
  channel_free_[best] = start + service;
  *start_out = start;
  return channel_free_[best];
}

std::vector<uint8_t>& SimNvme::block_for(uint64_t block_idx) {
  auto it = blocks_.find(block_idx);
  if (it == blocks_.end()) {
    it = blocks_.emplace(block_idx, std::vector<uint8_t>(params_.block_bytes, 0)).first;
  }
  return it->second;
}

void SimNvme::read_bytes(uint64_t off, uint64_t size, uint8_t* out) const {
  // Copy or zero per block rather than zero-filling up front: a pre-zeroed buffer writes every
  // byte twice on the (common) all-blocks-present path, and these reads are the storage soaks'
  // single largest memory touch.
  uint64_t pos = 0;
  while (pos < size) {
    const uint64_t abs = off + pos;
    const uint64_t block = abs / params_.block_bytes;
    const uint64_t in_block = abs % params_.block_bytes;
    const uint64_t n = std::min(size - pos, params_.block_bytes - in_block);
    auto it = blocks_.find(block);
    if (it != blocks_.end()) {
      std::memcpy(out + pos, it->second.data() + in_block, n);
    } else {
      std::memset(out + pos, 0, n);
    }
    pos += n;
  }
}

void SimNvme::write_bytes(uint64_t off, std::span<const uint8_t> data) {
  uint64_t pos = 0;
  while (pos < data.size()) {
    const uint64_t abs = off + pos;
    const uint64_t block = abs / params_.block_bytes;
    const uint64_t in_block = abs % params_.block_bytes;
    const uint64_t n = std::min<uint64_t>(data.size() - pos, params_.block_bytes - in_block);
    std::vector<uint8_t>& blk = block_for(block);
    std::copy_n(data.begin() + static_cast<ptrdiff_t>(pos), n,
                blk.begin() + static_cast<ptrdiff_t>(in_block));
    pos += n;
  }
}

void SimNvme::read(uint64_t off, uint64_t size, std::function<void(Result<Payload>)> done) {
  if (Status s = check_range(off, size); !s.ok()) {
    loop_->post([done = std::move(done), s]() { done(s.error()); });
    return;
  }
  // The one copy: block store -> Payload block.
  Payload data = Payload::build(size, [&](uint8_t* out) { read_bytes(off, size, out); });
  const Duration service = params_.read_latency + transfer_time(size, params_.read_bw_bpns);
  Time start;
  const Time finish = schedule_on_channel(service, &start);
  ++reads_;
  if (MetricsRegistry* m = loop_->metrics()) {
    m->add(nvme_names().read_bytes, static_cast<int64_t>(size));
  }
  if (span_tracing_active()) {
    if (SpanTracer* t = loop_->span_tracer()) {
      const NvmeNames& n = nvme_names();
      if (start > loop_->now()) {
        t->record(n.nvme, SpanKind::kQueue, n.channel_wait, loop_->now(), start);
      }
      t->record(n.nvme, SpanKind::kDevice, n.nvme_read, start, finish);
    }
  }
  loop_->schedule_at(finish, [done = std::move(done), data = std::move(data)]() mutable {
    done(std::move(data));
  });
}

void SimNvme::write(uint64_t off, Payload data, std::function<void(Status)> done) {
  if (Status s = check_range(off, data.size()); !s.ok()) {
    loop_->post([done = std::move(done), s]() { done(s); });
    return;
  }
  const Duration service =
      params_.write_latency + transfer_time(data.size(), params_.write_bw_bpns);
  Time start;
  const Time finish = schedule_on_channel(service, &start);
  write_bytes(off, data.bytes());
  ++writes_;
  if (MetricsRegistry* m = loop_->metrics()) {
    m->add(nvme_names().write_bytes, static_cast<int64_t>(data.size()));
  }
  if (span_tracing_active()) {
    if (SpanTracer* t = loop_->span_tracer()) {
      const NvmeNames& n = nvme_names();
      if (start > loop_->now()) {
        t->record(n.nvme, SpanKind::kQueue, n.channel_wait, loop_->now(), start);
      }
      t->record(n.nvme, SpanKind::kDevice, n.nvme_write, start, finish);
    }
  }
  loop_->schedule_at(finish, [done = std::move(done)]() { done(ok_status()); });
}

std::vector<uint8_t> SimNvme::peek(uint64_t off, uint64_t size) const {
  FRACTOS_CHECK(check_range(off, size).ok());
  std::vector<uint8_t> out(size);
  read_bytes(off, size, out.data());
  return out;
}

void SimNvme::poke(uint64_t off, const std::vector<uint8_t>& data) {
  FRACTOS_CHECK(check_range(off, data.size()).ok());
  write_bytes(off, data);
}

void SimNvme::discard(uint64_t off, uint64_t size) {
  FRACTOS_CHECK(check_range(off, size).ok());  // the caller's own extent; not input
  uint64_t pos = 0;
  while (pos < size) {
    const uint64_t abs = off + pos;
    const uint64_t block = abs / params_.block_bytes;
    const uint64_t in_block = abs % params_.block_bytes;
    const uint64_t n = std::min(size - pos, params_.block_bytes - in_block);
    if (auto it = blocks_.find(block); it != blocks_.end()) {
      if (n == params_.block_bytes) {
        blocks_.erase(it);
      } else {
        std::fill_n(it->second.begin() + static_cast<ptrdiff_t>(in_block), n, uint8_t{0});
      }
    }
    pos += n;
  }
}

}  // namespace fractos
