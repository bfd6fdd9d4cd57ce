#include "src/services/block_adaptor.h"

#include <optional>
#include <utility>

#include "src/base/assert.h"

namespace fractos {

BlockAdaptor::BlockAdaptor(System* sys, uint32_t node, Controller& controller, SimNvme* nvme)
    : BlockAdaptor(sys, node, controller, nvme, Params{}) {}

BlockAdaptor::BlockAdaptor(System* sys, uint32_t node, Controller& controller, SimNvme* nvme,
                           Params params)
    : sys_(sys), nvme_(nvme), params_(params), space_(nvme->capacity()),
      slot_pool_(params.staging_slots) {
  const uint64_t heap = params_.staging_slots * params_.slot_bytes + (1 << 20);
  proc_ = &sys->spawn("block-adaptor", node, controller, heap);
  for (uint32_t i = 0; i < params_.staging_slots; ++i) {
    Slot slot;
    slot.idx = i;
    slot.addr = proc_->alloc(params_.slot_bytes);
    slot.mem =
        sys->await_ok(proc_->memory_create(slot.addr, params_.slot_bytes, Perms::kReadWrite));
    slots_.push_back(slot);
  }
  mgmt_ep_ = sys->await_ok(proc_->serve(
      {}, serve_calls<SizeImms>(*proc_, [this](auto c) { handle_mgmt(std::move(c)); })));
}

void BlockAdaptor::handle_mgmt(ServiceCall<SizeImms> c) {
  const CapId reply = c.reply;
  const uint64_t size = c.args.size;
  if (size == 0) {
    send_reply(*proc_, reply, ErrorCode::kInvalidArgument);
    return;
  }
  const std::optional<uint64_t> base = space_.allocate(size, 4096);
  if (!base.has_value()) {
    send_reply(*proc_, reply, ErrorCode::kResourceExhausted);
    return;
  }
  const uint32_t vol_id = next_vol_++;

  std::vector<Future<Result<CapId>>> eps;
  for (const bool is_write : {false, true}) {
    eps.push_back(proc_->serve({}, [this, vol_id, is_write](Process::Received rr) {
      handle_io(vol_id, is_write, std::move(rr));
    }));
  }
  eps.push_back(proc_->serve({}, serve_calls<NoImms>(*proc_, [this, vol_id](auto c) {
    handle_delete(vol_id, c.reply);
  })));
  when_all(std::move(eps)).on_ready([this, vol_id, base = *base, size, reply](
                                        std::vector<Result<CapId>>&& cids) {
    for (const auto& c : cids) {
      if (!c.ok()) {
        // Nothing was handed out yet: unbind what was made and give the space back.
        for (const auto& made : cids) {
          if (made.ok()) {
            proc_->remove_endpoint(made.value());
          }
        }
        space_.release(base, size);
        send_reply(*proc_, reply, c.error());
        return;
      }
    }
    Volume v;
    v.base = base;
    v.size = size;
    v.read_ep = cids[0].value();
    v.write_ep = cids[1].value();
    v.delete_ep = cids[2].value();
    volumes_[vol_id] = v;
    send_reply(*proc_, reply, ErrorCode::kOk, NoImms{}, {v.read_ep, v.write_ep, v.delete_ep});
  });
}

void BlockAdaptor::end_io(uint32_t vol_id) {
  if (auto it = volumes_.find(vol_id); it != volumes_.end()) {
    --it->second.ios;
    return;
  }
  auto it = draining_.find(vol_id);
  // An I/O counts against its volume from the lookup it passed until this call.
  FRACTOS_CHECK(it != draining_.end() && it->second.ios > 0);
  if (--it->second.ios == 0) {
    free_extent(it->second);
    draining_.erase(it);
  }
}

void BlockAdaptor::free_extent(const Volume& vol) {
  // The next tenant of these blocks reads zeros, not this volume's bytes.
  nvme_->discard(vol.base, vol.size);
  space_.release(vol.base, vol.size);
}

void BlockAdaptor::handle_io(uint32_t vol_id, bool is_write, Process::Received r) {
  const IoRequest req(r);
  auto vit = volumes_.find(vol_id);
  if (vit == volumes_.end()) {
    req.fail_op(*proc_, ErrorCode::kRevoked);
    return;
  }
  Volume& vol = vit->second;
  if (!req.fits(vol.size) || req.size > params_.slot_bytes) {
    req.fail_op(*proc_, ErrorCode::kInvalidArgument);
    return;
  }
  const uint64_t device_off = vol.base + req.off;
  ++vol.ios;
  slot_pool_.acquire().and_then([this, vol_id, is_write, device_off, req](size_t slot_idx) {
    if (is_write) {
      write_via_slot(vol_id, req, device_off, slots_[slot_idx]);
    } else {
      read_via_slot(vol_id, req, device_off, slots_[slot_idx]);
    }
  }).or_else([this, vol_id, req](ErrorCode e) {
    end_io(vol_id);
    req.fail_op(*proc_, e);
  });
}

void BlockAdaptor::read_via_slot(uint32_t vol_id, const IoRequest& req, uint64_t device_off,
                                 Slot slot) {
  const uint64_t size = req.size;
  const CapId dst = req.mem;
  // Stream the read: device DMA of sub-chunk k+1 overlaps the network copy of sub-chunk k
  // (each lands at its own offset inside the staging slot).
  struct ReadState {
    uint64_t issued = 0;
    uint64_t copied = 0;
    uint32_t device_in_flight = 0;  // up to 2: the device has parallel flash channels
    bool failed = false;
    ErrorCode error = ErrorCode::kInternal;
    uint32_t copies_in_flight = 0;
  };
  auto rs = std::make_shared<ReadState>();
  auto pump = std::make_shared<std::function<void()>>();
  auto finish_check = [this, vol_id, rs, slot, size, req]() {
    if (rs->failed) {
      if (rs->device_in_flight == 0 && rs->copies_in_flight == 0) {
        rs->failed = false;  // report once
        slot_pool_.release(slot.idx);
        end_io(vol_id);
        req.fail_op(*proc_, rs->error);
      }
      return;
    }
    if (rs->copied == size) {
      slot_pool_.release(slot.idx);
      end_io(vol_id);
      // Invoke the continuation VERBATIM (decentralized control flow).
      proc_->request_invoke(req.cont);
    }
  };
  *pump = [this, rs, finish_check, slot, device_off, size, dst,
           weak_pump = std::weak_ptr<std::function<void()>>(pump)]() {
    auto pump = weak_pump.lock();
    if (!pump) {
      return;
    }
    while (!rs->failed && rs->device_in_flight < 2 && rs->issued < size) {
      const uint64_t sub_off = rs->issued;
      const uint64_t sub = std::min(params_.stream_chunk, size - sub_off);
      rs->issued += sub;
      ++rs->device_in_flight;
      nvme_->read(device_off + sub_off, sub,
                  [this, rs, pump, finish_check, slot, sub_off, sub,
                   dst](Result<Payload> data) {
                    --rs->device_in_flight;
                    if (!data.ok()) {
                      rs->failed = true;
                      rs->error = data.error();
                      finish_check();
                      return;
                    }
                    // DMA from the device lands in the staging slot...
                    proc_->write_mem(slot.addr + sub_off, data.value().bytes());
                    // ...and moves on to the destination — which may be GPU memory on
                    // another node (the b step of Fig. 2) — while the next sub-chunk reads.
                    ++rs->copies_in_flight;
                    proc_->memory_copy(slot.mem, dst, sub, sub_off, sub_off)
                        .on_ready([rs, finish_check, sub](Status cs) {
                          --rs->copies_in_flight;
                          if (!cs.ok()) {
                            rs->failed = true;
                            rs->error = cs.error();
                          } else {
                            rs->copied += sub;
                          }
                          finish_check();
                        });
                    (*pump)();
                  });
    }
  };
  (*pump)();
}

void BlockAdaptor::write_via_slot(uint32_t vol_id, const IoRequest& req, uint64_t device_off,
                                  Slot slot) {
  const uint64_t size = req.size;
  const CapId src = req.mem;
  // Stream the write: the network pull of sub-chunk k+1 overlaps the device program of
  // sub-chunk k.
  struct WriteState {
    uint64_t issued = 0;
    uint64_t written = 0;
    bool wire_busy = false;
    bool failed = false;
    ErrorCode error = ErrorCode::kInternal;
    uint32_t writes_in_flight = 0;
  };
  auto ws = std::make_shared<WriteState>();
  auto pump = std::make_shared<std::function<void()>>();
  auto finish_check = [this, vol_id, ws, slot, size, req]() {
    if (ws->failed) {
      if (!ws->wire_busy && ws->writes_in_flight == 0) {
        ws->failed = false;
        slot_pool_.release(slot.idx);
        end_io(vol_id);
        req.fail_op(*proc_, ws->error);
      }
      return;
    }
    if (ws->written == size) {
      slot_pool_.release(slot.idx);
      end_io(vol_id);
      proc_->request_invoke(req.cont);
    }
  };
  *pump = [this, ws, finish_check, slot, device_off, size, src,
           weak_pump = std::weak_ptr<std::function<void()>>(pump)]() {
    auto pump = weak_pump.lock();
    if (!pump) {
      return;
    }
    if (ws->failed || ws->wire_busy || ws->issued >= size) {
      return;
    }
    const uint64_t sub_off = ws->issued;
    const uint64_t sub = std::min(params_.stream_chunk, size - sub_off);
    ws->issued += sub;
    ws->wire_busy = true;
    // Pull the client data into the staging slot (one network transfer)...
    proc_->memory_copy(src, slot.mem, sub, sub_off, sub_off)
        .on_ready([this, ws, pump, finish_check, slot, device_off, sub_off, sub](Status cs) {
          ws->wire_busy = false;
          if (!cs.ok()) {
            ws->failed = true;
            ws->error = cs.error();
            finish_check();
            return;
          }
          // ...then DMA it into the device while the next sub-chunk pulls.
          ++ws->writes_in_flight;
          nvme_->write(device_off + sub_off, proc_->read_mem(slot.addr + sub_off, sub),
                       [ws, finish_check, sub](Status st) {
                         --ws->writes_in_flight;
                         if (!st.ok()) {
                           ws->failed = true;
                           ws->error = st.error();
                         } else {
                           ws->written += sub;
                         }
                         finish_check();
                       });
          (*pump)();
        });
  };
  (*pump)();
}

void BlockAdaptor::handle_delete(uint32_t vol_id, CapId reply) {
  auto vit = volumes_.find(vol_id);
  if (vit == volumes_.end()) {
    send_reply(*proc_, reply, ErrorCode::kNotFound);
    return;
  }
  const Volume vol = vit->second;
  volumes_.erase(vit);
  // An I/O that passed the lookup still reads or writes these blocks: they go back to the
  // allocator only after its last device access, or a volume created on them in the
  // meantime would take that I/O's bytes.
  if (vol.ios == 0) {
    free_extent(vol);
  } else {
    draining_.emplace(vol_id, vol);
  }
  // "the SSD Process must selectively revoke all capabilities granting access to the freed
  // block, and must do so as fast as possible" (Section 3.5).
  proc_->remove_endpoint(vol.read_ep);
  proc_->remove_endpoint(vol.write_ep);
  proc_->remove_endpoint(vol.delete_ep);
  std::vector<Future<Status>> revokes;
  revokes.push_back(proc_->cap_revoke(vol.read_ep));
  revokes.push_back(proc_->cap_revoke(vol.write_ep));
  revokes.push_back(proc_->cap_revoke(vol.delete_ep));
  when_all(std::move(revokes)).on_ready(
      [this, reply](std::vector<Status>&&) { send_reply(*proc_, reply, ErrorCode::kOk); });
}

// --- client helpers --------------------------------------------------------------------------

Future<Result<BlockClient::Volume>> BlockClient::create_volume(Process& proc, CapId mgmt_ep,
                                                               uint64_t size) {
  return call<NoImms>(
      proc, mgmt_ep, SizeImms{size}, {},
      [size](NoImms&&, const std::vector<DeliveredCap>& caps) -> Result<Volume> {
        if (caps.size() < 3) {
          return ErrorCode::kInternal;
        }
        return Volume{caps[0].cid, caps[1].cid, caps[2].cid, size};
      });
}

namespace {

// Shared by read/write: invoke `ep` with [mem, ok, err] continuations and resolve on either.
Future<Status> block_io(Process& proc, CapId ep, uint64_t off, uint64_t size, CapId mem) {
  return Completion::once(proc, [&proc, ep, off, size, mem](CapId ok, CapId err) {
    return proc.request_invoke(ep, imm_args(IoRange{off, size}).cap(mem).cap(ok).cap(err));
  });
}

}  // namespace

Future<Status> BlockClient::read(Process& proc, const Volume& v, uint64_t off, uint64_t size,
                                 CapId dst_mem) {
  return block_io(proc, v.read_ep, off, size, dst_mem);
}

Future<Status> BlockClient::write(Process& proc, const Volume& v, uint64_t off, uint64_t size,
                                  CapId src_mem) {
  return block_io(proc, v.write_ep, off, size, src_mem);
}

Future<Status> BlockClient::destroy(Process& proc, const Volume& v) {
  return call(proc, v.delete_ep, NoImms{});
}

}  // namespace fractos
