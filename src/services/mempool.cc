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
  attach_ep_ = sys->await_ok(
      proc_->serve({}, serve_calls<MemPoolAttachArgs>(
                           *proc_, [this](auto c) { handle_attach(std::move(c)); })));
}

void MemPoolService::handle_attach(ServiceCall<MemPoolAttachArgs> c) {
  const CapId reply = c.reply;
  const auto& [size, name] = c.args;
  if (size == 0) {
    send_reply(*proc_, reply, ErrorCode::kInvalidArgument);
    return;
  }
  if (const auto it = segments_.find(name); it != segments_.end()) {
    // Shared attach: the name is the rendezvous. A second tenant asking for more than the
    // segment holds is a conflict, not a grow — segments are immutable once exported.
    Segment& seg = it->second;
    if (size > seg.size) {
      send_reply(*proc_, reply, ErrorCode::kAlreadyExists);
    } else if (seg.mem == kInvalidCap) {
      seg.waiters.push_back(reply);  // its creation is in flight
    } else {
      send_reply(*proc_, reply, ErrorCode::kOk, MemPoolAttachReply{seg.addr, seg.size},
                 {seg.mem});
    }
    return;
  }
  const std::optional<uint64_t> at = space_.allocate(size, kSegmentAlign);
  if (!at.has_value()) {
    send_reply(*proc_, reply, ErrorCode::kResourceExhausted);
    return;
  }
  const uint64_t addr = *at;
  segments_.emplace(name, Segment{addr, size, kInvalidCap, {reply}});
  proc_->memory_create_in(pool_, addr, size, Perms::kReadWrite)
      .on_ready([this, name = c.args.name](Result<CapId>&& mem) {
        // Only this continuation erases a segment whose creation is in flight.
        auto it = segments_.find(name);
        Segment& seg = it->second;
        seg.mem = mem.ok() ? mem.value() : kInvalidCap;
        for (CapId reply : std::exchange(seg.waiters, {})) {
          send_reply(*proc_, reply, mem.ok() ? ErrorCode::kOk : mem.error(),
                     MemPoolAttachReply{seg.addr, seg.size}, {seg.mem});
        }
        if (!mem.ok()) {
          space_.release(seg.addr, seg.size);
          segments_.erase(it);
        }
      });
}

Future<Result<FarMemSegment>> MemPoolClient::attach(Process& proc, CapId attach_ep,
                                                    const std::string& name, uint64_t size) {
  return call<MemPoolAttachReply>(
      proc, attach_ep, MemPoolAttachArgs{size, name}, {},
      [](MemPoolAttachReply&& r, const std::vector<DeliveredCap>& caps) -> Result<FarMemSegment> {
        if (caps.empty()) {
          return ErrorCode::kInternal;
        }
        return FarMemSegment{caps[0].cid, r.addr, r.size};
      });
}

}  // namespace fractos
