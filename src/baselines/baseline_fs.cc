#include "src/baselines/baseline_fs.h"

#include <algorithm>
#include <utility>

#include "src/base/assert.h"

namespace fractos {

// In-flight state of one baseline-FS I/O, streamed in chunks like the kernel block layer.
struct BaselineIoState {
  bool is_write = false;
  uint64_t dev_base = 0;
  uint64_t off = 0;
  uint64_t size = 0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint32_t in_flight = 0;
  bool failed = false;
  bool finished = false;
  ErrorCode error = ErrorCode::kInternal;
  CapId mem = kInvalidCap;
  CapId cont = kInvalidCap;
  CapId err = kInvalidCap;
  // Stage-1 legs (device side) run one at a time within an op so chunk completions stagger
  // and the client-side leg overlaps the next chunk's device leg.
  bool stage1_busy = false;
  std::deque<std::function<void()>> stage1_waiting;

  void acquire_stage1(std::function<void()> fn) {
    if (stage1_busy) {
      stage1_waiting.push_back(std::move(fn));
      return;
    }
    stage1_busy = true;
    fn();
  }
  void release_stage1() {
    if (!stage1_waiting.empty()) {
      auto fn = std::move(stage1_waiting.front());
      stage1_waiting.pop_front();
      fn();
      return;
    }
    stage1_busy = false;
  }
};

BaselineFs::BaselineFs(System* sys, uint32_t node, Controller& controller, BlockDevice* device)
    : BaselineFs(sys, node, controller, device, Params{}) {}

BaselineFs::BaselineFs(System* sys, uint32_t node, Controller& controller, BlockDevice* device,
                       Params params)
    : sys_(sys), device_(device), params_(params), slot_pool_(params.staging_slots) {
  const uint64_t heap = params_.staging_slots * params_.slot_bytes + (1 << 20);
  proc_ = &sys->spawn("baseline-fs", node, controller, heap);
  slots_.resize(params_.staging_slots);
  for (uint32_t i = 0; i < params_.staging_slots; ++i) {
    Slot& slot = slots_[i];
    slot.addr = proc_->alloc(params_.slot_bytes);
    slot.mem =
        sys->await_ok(proc_->memory_create(slot.addr, params_.slot_bytes, Perms::kReadWrite));
  }
  create_ep_ = sys->await_ok(proc_->serve({}, [this](Process::Received r) {
    handle_create(std::move(r));
  }));
  open_ep_ = sys->await_ok(proc_->serve({}, [this](Process::Received r) {
    handle_open(std::move(r));
  }));
}

void BaselineFs::fail_op(const Process::Received& r, ErrorCode code) {
  std::vector<CapId> reqs;
  for (const auto& c : r.caps) {
    if (c.kind == ObjectKind::kRequest) {
      reqs.push_back(c.cid);
    }
  }
  if (reqs.size() >= 2) {
    proc_->request_invoke(reqs[1], Process::Args{}.imm_u64(0, static_cast<uint64_t>(code)));
  }
}

void BaselineFs::handle_create(Process::Received r) {
  if (r.num_caps() < 1) {
    return;
  }
  const CapId reply = r.cap(r.num_caps() - 1);
  const uint64_t size = r.imm_u64(0).value_or(0);
  auto name = r.imm_str(8);
  const uint64_t aligned = (size + 4095) & ~4095ull;
  if (!name.has_value() || size == 0 || files_.contains(*name) ||
      next_base_ + aligned > device_->capacity()) {
    proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
    return;
  }
  files_[*name] = File{size, next_base_};
  next_base_ += aligned;
  proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 0));
}

void BaselineFs::handle_open(Process::Received r) {
  if (r.num_caps() < 1) {
    return;
  }
  const CapId reply = r.cap(r.num_caps() - 1);
  const bool rw = r.imm_u64(0).value_or(0) != 0;
  // imm@8 is the dax flag in the FsService convention; the baseline cannot do DAX.
  auto name = r.imm_str(16);
  auto fit = name.has_value() ? files_.find(*name) : files_.end();
  if (fit == files_.end() || r.imm_u64(8).value_or(0) != 0) {
    proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
    return;
  }
  const uint32_t open_id = next_open_++;
  std::vector<Future<Result<CapId>>> eps;
  eps.push_back(proc_->serve({}, [this, open_id](Process::Received rr) {
    handle_io(open_id, /*is_write=*/false, std::move(rr));
  }));
  if (rw) {
    eps.push_back(proc_->serve({}, [this, open_id](Process::Received rr) {
      handle_io(open_id, /*is_write=*/true, std::move(rr));
    }));
  }
  eps.push_back(proc_->serve({}, [this, open_id](Process::Received rr) {
    handle_close(open_id, std::move(rr));
  }));
  const std::string fname = *name;
  when_all(std::move(eps)).on_ready([this, open_id, fname, rw, reply](
                                        std::vector<Result<CapId>>&& cids) {
    auto fit2 = files_.find(fname);
    if (fit2 == files_.end()) {
      proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
      return;
    }
    for (const auto& c : cids) {
      if (!c.ok()) {
        proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
        return;
      }
    }
    Open o;
    o.name = fname;
    o.rw = rw;
    o.read_ep = cids[0].value();
    o.write_ep = rw ? cids[1].value() : kInvalidCap;
    o.close_ep = cids.back().value();
    opens_[open_id] = o;
    Process::Args args;
    args.imm_u64(0, 0)
        .imm_u64(8, fit2->second.size)
        .imm_u64(16, params_.extent_bytes)
        .imm_u64(24, 1)
        .imm_u64(32, rw ? 1 : 0)
        .cap(o.close_ep)
        .cap(o.read_ep);
    if (rw) {
      args.cap(o.write_ep);
    }
    proc_->request_invoke(reply, std::move(args));
  });
}

void BaselineFs::handle_io(uint32_t open_id, bool is_write, Process::Received r) {
  auto oit = opens_.find(open_id);
  if (oit == opens_.end()) {
    fail_op(r, ErrorCode::kRevoked);
    return;
  }
  const Open& o = oit->second;
  auto fit = files_.find(o.name);
  if (fit == files_.end() || (is_write && !o.rw)) {
    fail_op(r, ErrorCode::kPermissionDenied);
    return;
  }
  const File& f = fit->second;
  const uint64_t off = r.imm_u64(0).value_or(~0ull);
  const uint64_t size = r.imm_u64(8).value_or(0);
  CapId mem = kInvalidCap;
  uint64_t mem_size = 0;
  CapId cont = kInvalidCap;
  for (const auto& c : r.caps) {
    if (c.kind == ObjectKind::kMemory && mem == kInvalidCap) {
      mem = c.cid;
      mem_size = c.mem_size;
    } else if (c.kind == ObjectKind::kRequest && cont == kInvalidCap) {
      cont = c.cid;
    }
  }
  if (mem == kInvalidCap || cont == kInvalidCap || size == 0 || off + size > f.size ||
      mem_size < size) {
    fail_op(r, ErrorCode::kInvalidArgument);
    return;
  }
  auto st = std::make_shared<BaselineIoState>();
  st->is_write = is_write;
  st->dev_base = f.base;
  st->off = off;
  st->size = size;
  st->mem = mem;
  st->cont = cont;
  for (const auto& c : r.caps) {
    if (c.kind == ObjectKind::kRequest && c.cid != cont) {
      st->err = c.cid;
      break;
    }
  }
  io_pump(std::move(st));
}

void BaselineFs::io_pump(std::shared_ptr<BaselineIoState> st) {
  if (st->finished) {
    return;
  }
  if (st->failed) {
    if (st->in_flight == 0) {
      st->finished = true;
      if (st->err != kInvalidCap) {
        proc_->request_invoke(st->err,
                              Process::Args{}.imm_u64(0, static_cast<uint64_t>(st->error)));
      }
    }
    return;
  }
  if (st->completed == st->size) {
    st->finished = true;
    proc_->request_invoke(st->cont);
    return;
  }
  while (!st->failed && st->issued < st->size && st->in_flight < params_.pipeline_depth) {
    const uint64_t chunk =
        std::min({st->size - st->issued, params_.slot_bytes, params_.stream_chunk});
    const uint64_t op_off = st->issued;
    st->issued += chunk;
    ++st->in_flight;
    slot_pool_.acquire()
        .and_then([this, st, op_off, chunk](size_t slot) { run_chunk(st, slot, op_off, chunk); })
        .or_else([this, st](ErrorCode e) {
          --st->in_flight;
          if (!st->failed) {
            st->error = e;
          }
          st->failed = true;
          io_pump(st);
        });
  }
}

void BaselineFs::run_chunk(std::shared_ptr<BaselineIoState> st, size_t slot_idx,
                           uint64_t op_off, uint64_t chunk) {
  auto chunk_finished = [this, st, slot_idx, chunk](Status s) {
    slot_pool_.release(slot_idx);
    --st->in_flight;
    if (!s.ok()) {
      if (!st->failed) {
        st->error = s.error();
      }
      st->failed = true;
    } else {
      st->completed += chunk;
    }
    io_pump(st);
  };
  const uint64_t dev_off = st->dev_base + st->off + op_off;

  if (st->is_write) {
    st->acquire_stage1([this, st, slot_idx, dev_off, op_off, chunk, chunk_finished]() {
      proc_->memory_copy(st->mem, slots_[slot_idx].mem, chunk, op_off, 0)
          .on_ready([this, st, slot_idx, dev_off, chunk, chunk_finished](Status cs) {
            st->release_stage1();
            if (!cs.ok()) {
              chunk_finished(cs);
              return;
            }
            device_->write(dev_off, proc_->read_mem(slots_[slot_idx].addr, chunk),
                           [chunk_finished](Status ws) { chunk_finished(ws); });
          });
    });
    return;
  }

  st->acquire_stage1([this, st, slot_idx, dev_off, op_off, chunk, chunk_finished]() {
    device_->read(dev_off, chunk, [this, st, slot_idx, op_off, chunk, chunk_finished](
                                      Result<Payload> data) {
      st->release_stage1();
      if (!data.ok()) {
        chunk_finished(data.error());
        return;
      }
      proc_->write_mem(slots_[slot_idx].addr, data.value().bytes());
      proc_->memory_copy(slots_[slot_idx].mem, st->mem, chunk, 0, op_off)
          .on_ready([chunk_finished](Status cs) { chunk_finished(cs); });
    });
  });
}

void BaselineFs::handle_close(uint32_t open_id, Process::Received r) {
  const CapId reply = r.num_caps() >= 1 ? r.cap(r.num_caps() - 1) : kInvalidCap;
  auto oit = opens_.find(open_id);
  if (oit == opens_.end()) {
    if (reply != kInvalidCap) {
      proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
    }
    return;
  }
  const Open o = oit->second;
  opens_.erase(oit);
  proc_->remove_endpoint(o.read_ep);
  std::vector<Future<Status>> revokes;
  revokes.push_back(proc_->cap_revoke(o.read_ep));
  if (o.write_ep != kInvalidCap) {
    proc_->remove_endpoint(o.write_ep);
    revokes.push_back(proc_->cap_revoke(o.write_ep));
  }
  proc_->remove_endpoint(o.close_ep);
  when_all(std::move(revokes)).on_ready([this, o, reply](std::vector<Status>&&) {
    proc_->cap_revoke(o.close_ep);
    if (reply != kInvalidCap) {
      proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 0));
    }
  });
}

}  // namespace fractos
