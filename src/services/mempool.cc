#include "src/services/mempool.h"

#include <utility>

#include "src/base/assert.h"

namespace fractos {

namespace {

constexpr uint64_t kSegmentAlign = 4096;

}  // namespace

std::unique_ptr<MemPoolService> MemPoolService::bootstrap(System* sys, uint32_t node,
                                                          Controller& controller,
                                                          uint64_t capacity_bytes) {
  return std::unique_ptr<MemPoolService>(
      new MemPoolService(sys, node, controller, capacity_bytes));
}

MemPoolService::MemPoolService(System* sys, uint32_t node, Controller& controller,
                               uint64_t capacity_bytes)
    : sys_(sys), node_(node), space_(capacity_bytes) {
  FRACTOS_CHECK(capacity_bytes > 0);  // deployment wiring (the pool's size), not input
  // The exported pool is separate from the Process heap: it models the memory node's
  // donated DRAM, not service working memory.
  pool_ = sys->net().node(node).add_pool(capacity_bytes);
  proc_ = &sys->spawn("mempool-service", node, controller, 1 << 20);
  attach_ep_ = sys->await_ok(proc_->serve({}, [this](Process::Received r) {
    handle_attach(std::move(r));
  }));
}

void MemPoolService::reply_segment(const Segment& seg, CapId reply) {
  proc_->request_invoke(reply, Process::Args{}
                                   .imm_u64(0, 0)
                                   .imm_u64(8, seg.addr)
                                   .imm_u64(16, seg.size)
                                   .cap(seg.mem));
}

void MemPoolService::handle_attach(Process::Received r) {
  if (r.num_caps() < 1) {
    return;
  }
  const CapId reply = r.cap(r.num_caps() - 1);
  const uint64_t size = r.imm_u64(0).value_or(0);
  auto name = r.imm_str(8);
  if (!name.has_value() || size == 0) {
    proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
    return;
  }
  if (const auto it = segments_.find(*name); it != segments_.end()) {
    // Shared attach: the name is the rendezvous. A second tenant asking for more than the
    // segment holds is a conflict, not a grow — segments are immutable once exported.
    Segment& seg = it->second;
    if (size > seg.size) {
      proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 2));
    } else if (seg.mem == kInvalidCap) {
      seg.waiters.push_back(reply);  // its creation is in flight
    } else {
      reply_segment(seg, reply);
    }
    return;
  }
  const std::optional<uint64_t> at = space_.allocate(size, kSegmentAlign);
  if (!at.has_value()) {
    proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
    return;
  }
  const uint64_t addr = *at;
  segments_.emplace(*name, Segment{addr, size, kInvalidCap, {reply}});
  proc_->memory_create_in(pool_, addr, size, Perms::kReadWrite)
      .on_ready([this, name = *name](Result<CapId>&& mem) {
        // Only this continuation erases a segment whose creation is in flight.
        auto it = segments_.find(name);
        Segment& seg = it->second;
        seg.mem = mem.ok() ? mem.value() : kInvalidCap;
        for (CapId reply : std::exchange(seg.waiters, {})) {
          if (mem.ok()) {
            reply_segment(seg, reply);
          } else {
            proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
          }
        }
        if (!mem.ok()) {
          space_.release(seg.addr, seg.size);
          segments_.erase(it);
        }
      });
}

Future<Result<FarMemSegment>> MemPoolClient::attach(Process& proc, CapId attach_ep,
                                                    const std::string& name, uint64_t size) {
  return proc.call(attach_ep, Process::Args{}.imm_u64(0, size).imm_str(8, name))
      .then([](Result<Process::Received>&& r) -> Result<FarMemSegment> {
        if (!r.ok()) {
          return r.error();
        }
        if (r.value().imm_u64(0).value_or(1) != 0 || r.value().num_caps() < 1) {
          return ErrorCode::kResourceExhausted;
        }
        FarMemSegment seg;
        seg.mem = r.value().cap(0);
        seg.addr = r.value().imm_u64(8).value_or(0);
        seg.size = r.value().imm_u64(16).value_or(0);
        return seg;
      });
}

}  // namespace fractos
