#include "src/services/farmem.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/base/assert.h"
#include "src/base/extent.h"
#include "src/sim/span.h"

namespace fractos {

namespace {

// Interned once: faults fire per access, so the instrumentation path never builds strings.
struct FarMemNames {
  NameId actor = intern_name("farmem");
  NameId line_fetch = intern_name("line-fetch");
  NameId page_fetch = intern_name("page-fetch");
  NameId prefetch_wait = intern_name("prefetch-wait");
  NameId write_through = intern_name("write-through");
  NameId xlate = intern_name("xlate");
};

const FarMemNames& farmem_names() {
  static const FarMemNames n;
  return n;
}

}  // namespace

FarMemClient::FarMemClient(System* sys, Process& client, Controller& client_ctrl,
                           CapId segment, Config cfg)
    : sys_(sys), client_(&client), cfg_(cfg), client_ep_{client.node(), Loc::kHost} {
  // The Config and the segment are the deployment's wiring, fixed before any access:
  FRACTOS_CHECK(cfg_.line_bytes > 0);                        // a line has bytes
  FRACTOS_CHECK(cfg_.page_bytes % cfg_.line_bytes == 0);     // a page is whole lines
  FRACTOS_CHECK(cfg_.line_slots > 0 && cfg_.page_slots > 0);  // each cache holds one entry
  const Result<CapEntry> e = client_ctrl.inspect_cap(client.pid(), segment);
  // The caller attached the segment (MemPoolClient::attach) into this client's space.
  FRACTOS_CHECK_MSG(e.ok(), "far-mem segment capability not in the client's space");
  const CapEntry& entry = e.value();
  FRACTOS_CHECK(entry.kind == ObjectKind::kMemory);  // attach hands out a Memory capability
  // The capability resolves once into (rkey, fabric location); from here on every fetch is a
  // one-sided verb — no Controller on the data path.
  rkey_ = RdmaKey{entry.ref.owner, entry.ref.index, entry.ref.reboot_count};
  mem_node_ = entry.mem.node;
  mem_pool_ = entry.mem.pool;
  mem_addr_ = entry.mem.addr;
  seg_size_ = entry.mem.size;
  FRACTOS_CHECK(seg_size_ > 0 && seg_size_ % cfg_.page_bytes == 0);  // attached whole pages
}

bool FarMemClient::in_one_line(uint64_t offset, uint64_t size) const {
  return size > 0 && extent_within(offset, size, seg_size_) &&
         extent_within(offset % cfg_.line_bytes, size, cfg_.line_bytes);
}

void FarMemClient::note_access(uint64_t line) {
  if (last_line_ != ~0ULL && line == last_line_ + cfg_.line_bytes) {
    ++streak_;
  } else if (line != last_line_) {
    streak_ = 1;
  }
  last_line_ = line;
}

void FarMemClient::complete_from(const std::vector<uint8_t>& buf, uint64_t base,
                                 uint64_t offset, uint64_t size,
                                 std::function<void(Result<std::vector<uint8_t>>)>& done) {
  std::vector<uint8_t> out(buf.begin() + static_cast<ptrdiff_t>(offset - base),
                           buf.begin() + static_cast<ptrdiff_t>(offset - base + size));
  // Hits complete through the loop too, so caller-visible ordering never depends on hit/miss.
  sys_->loop().post([out = std::move(out), done = std::move(done)]() mutable {
    done(std::move(out));
  });
}

void FarMemClient::read(uint64_t offset, uint64_t size,
                        std::function<void(Result<std::vector<uint8_t>>)> done) {
  if (!in_one_line(offset, size)) {
    sys_->loop().post([done = std::move(done)]() mutable { done(ErrorCode::kOutOfRange); });
    return;
  }
  const uint64_t line = offset / cfg_.line_bytes * cfg_.line_bytes;
  const uint64_t page = offset / cfg_.page_bytes * cfg_.page_bytes;
  ++stats_.accesses;
  note_access(line);
  // A streak long enough arms a prefetch of the NEXT page — issued after the current access
  // is served/fetching, so the background page never queues ahead of a demand fetch at the
  // client NIC.
  const bool arm = cfg_.dual_granularity && streak_ >= cfg_.streak_threshold;
  const uint64_t next_page = page + cfg_.page_bytes;

  if (const auto pit = pages_.find(page); pit != pages_.end()) {
    ++stats_.page_hits;
    complete_from(pit->second, page, offset, size, done);
    if (arm) {
      maybe_prefetch(next_page);
    }
    return;
  }
  if (cfg_.dual_granularity) {
    if (const auto lit = lines_.find(line); lit != lines_.end()) {
      ++stats_.line_hits;
      complete_from(lit->second, line, offset, size, done);
      if (arm) {
        maybe_prefetch(next_page);
      }
      return;
    }
  }
  if (const auto wit = pending_pages_.find(page); wit != pending_pages_.end()) {
    // The page is already in flight: wait for it instead of fetching again. Only this wait —
    // not the background transfer — is attributed to the access.
    ++stats_.prefetch_waits;
    SpanTracer* tr = span_tracing_active() ? sys_->loop().span_tracer() : nullptr;
    const FarMemNames& n = farmem_names();
    const uint64_t span =
        tr != nullptr
            ? tr->begin(n.actor, SpanKind::kFarMem, n.prefetch_wait, sys_->loop().now())
            : 0;
    wit->second.push_back([this, page, offset, size, span, done = std::move(done)]() mutable {
      if (SpanTracer* t2 = span_tracing_active() ? sys_->loop().span_tracer() : nullptr;
          t2 != nullptr) {
        t2->end(span, sys_->loop().now());
      }
      const auto pit2 = pages_.find(page);
      if (pit2 == pages_.end()) {
        done(ErrorCode::kInternal);
        return;
      }
      complete_from(pit2->second, page, offset, size, done);
    });
    if (arm) {
      maybe_prefetch(next_page);
    }
    return;
  }

  if (cfg_.dual_granularity) {
    fetch_line(line, offset, size, std::move(done));
  } else {
    fetch_page(page, offset, size, std::move(done));
  }
  if (arm) {
    maybe_prefetch(next_page);
  }
}

void FarMemClient::fetch_line(uint64_t line, uint64_t offset, uint64_t size,
                              std::function<void(Result<std::vector<uint8_t>>)> done) {
  ++stats_.demand_fetches;
  stats_.hot_bytes += cfg_.line_bytes;
  SpanTracer* tr = span_tracing_active() ? sys_->loop().span_tracer() : nullptr;
  const FarMemNames& n = farmem_names();
  const uint64_t span =
      tr != nullptr ? tr->begin(n.actor, SpanKind::kFarMem, n.line_fetch, sys_->loop().now())
                    : 0;
  // Nest the translation and RDMA legs under the fault span (begin() does not install).
  std::optional<SpanScope> scope;
  if (span != 0) {
    scope.emplace(tr->context_of(span));
  }
  translate_then([this, line, offset, size, span, done = std::move(done)]() mutable {
    sys_->net().rdma_read(
        client_ep_, mem_node_, rkey_, mem_pool_, mem_addr_ + line, cfg_.line_bytes,
        [this, line, offset, size, span,
         done = std::move(done)](Result<Payload>&& r) mutable {
          SpanTracer* t2 = span_tracing_active() ? sys_->loop().span_tracer() : nullptr;
          if (!r.ok()) {
            if (t2 != nullptr) {
              t2->end_error(span, sys_->loop().now(), "rdma-failed");
            }
            done(r.error());
            return;
          }
          const Payload& p = r.value();
          install_line(line, std::vector<uint8_t>(p.data(), p.data() + p.size()));
          if (t2 != nullptr) {
            t2->end(span, sys_->loop().now());
          }
          std::vector<uint8_t> out(p.data() + (offset - line),
                                   p.data() + (offset - line + size));
          done(std::move(out));
        },
        LinkClass::kHot);
  });
}

void FarMemClient::fetch_page(uint64_t page, uint64_t offset, uint64_t size,
                              std::function<void(Result<std::vector<uint8_t>>)> done) {
  ++stats_.demand_fetches;
  stats_.bulk_bytes += cfg_.page_bytes;
  SpanTracer* tr = span_tracing_active() ? sys_->loop().span_tracer() : nullptr;
  const FarMemNames& n = farmem_names();
  const uint64_t span =
      tr != nullptr ? tr->begin(n.actor, SpanKind::kFarMem, n.page_fetch, sys_->loop().now())
                    : 0;
  std::optional<SpanScope> scope;
  if (span != 0) {
    scope.emplace(tr->context_of(span));
  }
  pending_pages_[page];  // later faults on this page wait instead of double-fetching
  translate_then([this, page, offset, size, span, done = std::move(done)]() mutable {
    sys_->net().rdma_read(
        client_ep_, mem_node_, rkey_, mem_pool_, mem_addr_ + page, cfg_.page_bytes,
        [this, page, offset, size, span,
         done = std::move(done)](Result<Payload>&& r) mutable {
          std::vector<std::function<void()>> waiters = std::move(pending_pages_[page]);
          pending_pages_.erase(page);
          SpanTracer* t2 = span_tracing_active() ? sys_->loop().span_tracer() : nullptr;
          if (!r.ok()) {
            if (t2 != nullptr) {
              t2->end_error(span, sys_->loop().now(), "rdma-failed");
            }
            done(r.error());
            for (auto& w : waiters) {
              w();
            }
            return;
          }
          const Payload& p = r.value();
          install_page(page, std::vector<uint8_t>(p.data(), p.data() + p.size()));
          if (t2 != nullptr) {
            t2->end(span, sys_->loop().now());
          }
          std::vector<uint8_t> out(p.data() + (offset - page),
                                   p.data() + (offset - page + size));
          done(std::move(out));
          for (auto& w : waiters) {
            w();
          }
        },
        LinkClass::kBulk);
  });
}

void FarMemClient::maybe_prefetch(uint64_t page) {
  if (!cfg_.dual_granularity || page >= seg_size_) {
    return;
  }
  if (pages_.contains(page) || pending_pages_.contains(page)) {
    return;
  }
  ++stats_.prefetches;
  stats_.bulk_bytes += cfg_.page_bytes;
  pending_pages_[page];
  // Background movement: detach from the faulting trace so only prefetch-WAIT time is ever
  // attributed to an access.
  SpanScope detach;
  translate_then([this, page]() {
    sys_->net().rdma_read(
        client_ep_, mem_node_, rkey_, mem_pool_, mem_addr_ + page, cfg_.page_bytes,
        [this, page](Result<Payload>&& r) mutable {
          std::vector<std::function<void()>> waiters = std::move(pending_pages_[page]);
          pending_pages_.erase(page);
          if (r.ok()) {
            const Payload& p = r.value();
            install_page(page, std::vector<uint8_t>(p.data(), p.data() + p.size()));
          }
          for (auto& w : waiters) {
            w();
          }
        },
        LinkClass::kBulk);
  });
}

void FarMemClient::install_line(uint64_t line, std::vector<uint8_t> bytes) {
  auto [it, inserted] = lines_.try_emplace(line);
  it->second = std::move(bytes);
  if (inserted) {
    line_fifo_.push_back(line);
    if (line_fifo_.size() > cfg_.line_slots) {
      lines_.erase(line_fifo_.front());
      line_fifo_.pop_front();
    }
  }
}

void FarMemClient::install_page(uint64_t page, std::vector<uint8_t> bytes) {
  auto [it, inserted] = pages_.try_emplace(page);
  it->second = std::move(bytes);
  if (inserted) {
    page_fifo_.push_back(page);
    if (page_fifo_.size() > cfg_.page_slots) {
      pages_.erase(page_fifo_.front());
      page_fifo_.pop_front();
    }
  }
}

void FarMemClient::write(uint64_t offset, std::vector<uint8_t> bytes,
                         std::function<void(Status)> done) {
  const uint64_t size = bytes.size();
  if (!in_one_line(offset, size)) {
    sys_->loop().post([done = std::move(done)]() mutable { done(ErrorCode::kOutOfRange); });
    return;
  }
  const uint64_t line = offset / cfg_.line_bytes * cfg_.line_bytes;
  ++stats_.write_throughs;
  // Write-through keeps every cached copy coherent with the remote segment, so eviction
  // never needs a writeback path.
  if (const auto lit = lines_.find(line); lit != lines_.end()) {
    std::copy(bytes.begin(), bytes.end(),
              lit->second.begin() + static_cast<ptrdiff_t>(offset - line));
  }
  const uint64_t page = offset / cfg_.page_bytes * cfg_.page_bytes;
  if (const auto pit = pages_.find(page); pit != pages_.end()) {
    std::copy(bytes.begin(), bytes.end(),
              pit->second.begin() + static_cast<ptrdiff_t>(offset - page));
  }
  const LinkClass cls = cfg_.dual_granularity ? LinkClass::kHot : LinkClass::kBulk;
  if (cfg_.dual_granularity) {
    stats_.hot_bytes += size;
  } else {
    stats_.bulk_bytes += size;
  }
  SpanTracer* tr = span_tracing_active() ? sys_->loop().span_tracer() : nullptr;
  const FarMemNames& n = farmem_names();
  const uint64_t span =
      tr != nullptr
          ? tr->begin(n.actor, SpanKind::kFarMem, n.write_through, sys_->loop().now())
          : 0;
  std::optional<SpanScope> scope;
  if (span != 0) {
    scope.emplace(tr->context_of(span));
  }
  translate_then([this, offset, span, cls, data = Payload(std::move(bytes)),
                  done = std::move(done)]() mutable {
    sys_->net().rdma_write(
        client_ep_, mem_node_, rkey_, mem_pool_, mem_addr_ + offset, std::move(data),
        [this, span, done = std::move(done)](Status s) mutable {
          if (SpanTracer* t2 = span_tracing_active() ? sys_->loop().span_tracer() : nullptr;
              t2 != nullptr) {
            if (s.ok()) {
              t2->end(span, sys_->loop().now());
            } else {
              t2->end_error(span, sys_->loop().now(), "rdma-failed");
            }
          }
          done(s);
        },
        cls);
  });
}

void FarMemClient::translate_then(std::function<void()> issue) {
  SpanTracer* tr = span_tracing_active() ? sys_->loop().span_tracer() : nullptr;
  EventLoop& loop = sys_->loop();
  const FarMemNames& n = farmem_names();
  if (cfg_.placement == XlatePlacement::kTor) {
    // In-network translation: the ToR's match-action table answers at pipeline latency — no
    // round trip leaves the rack fabric.
    if (tr != nullptr) {
      tr->record(n.actor, SpanKind::kTranslation, n.xlate, loop.now(),
                 loop.now() + cfg_.tor_xlate);
    }
    loop.schedule_after(cfg_.tor_xlate, std::move(issue));
    return;
  }
  const bool snic = cfg_.placement == XlatePlacement::kSnic;
  const Loc loc = snic ? Loc::kSnic : Loc::kHost;
  const Duration cost = snic ? cfg_.snic_xlate : cfg_.cpu_xlate;
  const uint64_t span =
      tr != nullptr ? tr->begin(n.actor, SpanKind::kTranslation, n.xlate, loop.now()) : 0;
  const Endpoint owner{mem_node_, loc};
  // Control round trip to the owner's translation agent (a header-sized lookup each way),
  // with the lookup itself charged on the owning core — host CPU or SmartNIC ARM.
  sys_->net().send(client_ep_, owner, Traffic::kControl, Payload::zeros(16),
                   [this, owner, loc, cost, span, issue = std::move(issue)](Payload) mutable {
                     sys_->net().node(mem_node_).context(loc).run(
                         cost, [this, owner, span, issue = std::move(issue)]() mutable {
                           sys_->net().send(
                               owner, client_ep_, Traffic::kControl, Payload::zeros(16),
                               [this, span, issue = std::move(issue)](Payload) mutable {
                                 if (SpanTracer* t2 = span_tracing_active()
                                                         ? sys_->loop().span_tracer()
                                                         : nullptr;
                                     t2 != nullptr) {
                                   t2->end(span, sys_->loop().now());
                                 }
                                 issue();
                               });
                         });
                   });
}

}  // namespace fractos
