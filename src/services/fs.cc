#include "src/services/fs.h"

#include <algorithm>
#include <utility>

#include "src/base/assert.h"

namespace fractos {

// In-flight state of one FS-mode I/O: chunks of at most stream_chunk bytes, up to
// pipeline_depth in flight (each holding one staging slot), so the block-device leg of one
// chunk overlaps the client-copy leg of another.
struct FsIoState {
  bool is_write = false;
  uint64_t off = 0;
  uint64_t size = 0;
  uint64_t issued = 0;     // bytes whose chunks have been started
  uint64_t completed = 0;  // bytes fully transferred
  uint32_t in_flight = 0;
  bool failed = false;
  ErrorCode error = ErrorCode::kInternal;
  bool finished = false;
  uint64_t extent_bytes = 0;
  std::vector<BlockClient::Volume> extents;
  CapId mem = kInvalidCap;   // client buffer
  CapId cont = kInvalidCap;  // success continuation (invoked verbatim)
  CapId err = kInvalidCap;   // optional error continuation
  // Stage-1 legs (the block-device side) run one at a time within an op, so chunk
  // completions stagger and the stage-2 leg (the client side) overlaps the next chunk's
  // stage 1 — concurrent same-link transfers would otherwise fair-share and all complete
  // together, defeating the pipeline.
  bool stage1_busy = false;
  std::deque<std::function<void()>> stage1_waiting;
  uint64_t span = 0;  // kService span covering the whole op (0 when tracing is off)

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

std::unique_ptr<FsService> FsService::bootstrap(System* sys, uint32_t node,
                                                Controller& controller, Process& block_proc,
                                                CapId block_mgmt_ep) {
  return bootstrap(sys, node, controller, block_proc, block_mgmt_ep, Params{});
}

std::unique_ptr<FsService> FsService::bootstrap(System* sys, uint32_t node,
                                                Controller& controller, Process& block_proc,
                                                CapId block_mgmt_ep, Params params) {
  std::unique_ptr<FsService> fs(new FsService(sys, node, controller, params));
  const CapId mgmt = sys->bootstrap_grant(block_proc, block_mgmt_ep, *fs->proc_).value();
  fs->init_endpoints(mgmt);
  return fs;
}

FsService::FsService(System* sys, uint32_t node, Controller& controller, Params params)
    : sys_(sys), params_(params), slot_pool_(params.staging_slots) {
  const uint64_t heap = params_.staging_slots * params_.slot_bytes + (1 << 20);
  proc_ = &sys->spawn("fs-service", node, controller, heap);
  slot_pool_.instrument(&sys->loop(), "fs." + std::to_string(node));
  slots_.resize(params_.staging_slots);
  for (uint32_t i = 0; i < params_.staging_slots; ++i) {
    Slot& slot = slots_[i];
    slot.addr = proc_->alloc(params_.slot_bytes);
    slot.mem =
        sys->await_ok(proc_->memory_create(slot.addr, params_.slot_bytes, Perms::kReadWrite));
    // Block-RPC completion endpoints, one pair per slot, reused for every chunk that uses
    // the slot (no per-operation object churn).
    slot.ok_ep = sys->await_ok(proc_->serve({}, [this, i](Process::Received) {
      finish_slot(i, ok_status());
    }));
    slot.err_ep = sys->await_ok(proc_->serve({}, [this, i](Process::Received rr) {
      finish_slot(i, Status(static_cast<ErrorCode>(
                        rr.imm_u64(0).value_or(static_cast<uint64_t>(ErrorCode::kInternal)))));
    }));
  }
}

FsService::~FsService() {
  // Close first: queued acquires fail with kAborted and releases stop waking waiters, so the
  // chunk failures below cannot re-enter the pool and start new work mid-teardown.
  slot_pool_.close();
  for (size_t i = 0; i < slots_.size(); ++i) {
    finish_slot(i, Status(ErrorCode::kAborted));
  }
}

void FsService::init_endpoints(CapId block_mgmt) {
  block_mgmt_ = block_mgmt;
  create_ep_ = sys_->await_ok(proc_->serve({}, [this](Process::Received r) {
    handle_create(std::move(r));
  }));
  open_ep_ = sys_->await_ok(proc_->serve({}, [this](Process::Received r) {
    handle_open(std::move(r));
  }));
  unlink_ep_ = sys_->await_ok(proc_->serve({}, [this](Process::Received r) {
    handle_unlink(std::move(r));
  }));
}

void FsService::finish_slot(size_t slot, Status s) {
  if (!slots_[slot].pending.has_value()) {
    return;
  }
  Promise<Status> done = std::move(*slots_[slot].pending);
  slots_[slot].pending.reset();
  done.set(s);
}

void FsService::fail_op(const Process::Received& r, ErrorCode code) {
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

void FsService::handle_create(Process::Received r) {
  if (r.num_caps() < 1) {
    return;
  }
  const CapId reply = r.cap(r.num_caps() - 1);
  const uint64_t size = r.imm_u64(0).value_or(0);
  auto name = r.imm_str(8);
  if (!name.has_value() || size == 0 || files_.contains(*name)) {
    proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
    return;
  }
  const uint64_t n_extents = (size + params_.extent_bytes - 1) / params_.extent_bytes;
  // Allocate one block-device volume per extent, sequentially (plain member recursion — no
  // self-referential lambdas).
  auto file = std::make_shared<File>();
  file->size = size;
  create_extents(std::move(file), *name, size, n_extents, 0, reply);
}

void FsService::create_extents(std::shared_ptr<File> file, const std::string& name,
                               uint64_t size, uint64_t n_extents, uint64_t i, CapId reply) {
  if (i == n_extents) {
    files_[name] = *file;
    proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 0));
    return;
  }
  const uint64_t remaining = size - i * params_.extent_bytes;
  const uint64_t vol_size = std::min(params_.extent_bytes, remaining);
  BlockClient::create_volume(*proc_, block_mgmt_, vol_size)
      .on_ready([this, file = std::move(file), name, size, n_extents, i,
                 reply](Result<BlockClient::Volume>&& v) mutable {
        if (!v.ok()) {
          proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
          return;
        }
        file->extents.push_back(v.value());
        create_extents(std::move(file), name, size, n_extents, i + 1, reply);
      });
}

void FsService::reply_open(const File& f, CapId close_ep, std::vector<CapId> read_eps,
                           std::vector<CapId> write_eps, CapId reply) {
  Process::Args args;
  args.imm_u64(0, 0)
      .imm_u64(8, f.size)
      .imm_u64(16, params_.extent_bytes)
      .imm_u64(24, read_eps.size())
      .imm_u64(32, write_eps.size())
      .cap(close_ep);
  for (CapId c : read_eps) {
    args.cap(c);
  }
  for (CapId c : write_eps) {
    args.cap(c);
  }
  proc_->request_invoke(reply, std::move(args));
}

void FsService::handle_open(Process::Received r) {
  if (r.num_caps() < 1) {
    return;
  }
  const CapId reply = r.cap(r.num_caps() - 1);
  const bool rw = r.imm_u64(0).value_or(0) != 0;
  const bool dax = r.imm_u64(8).value_or(0) != 0;
  auto name = r.imm_str(16);
  auto fit = name.has_value() ? files_.find(*name) : files_.end();
  if (fit == files_.end()) {
    proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
    return;
  }
  if (dax) {
    open_dax_mode(*name, fit->second, rw, reply);
  } else {
    open_fs_mode(*name, fit->second, rw, reply);
  }
}

void FsService::open_fs_mode(const std::string& name, File& f, bool rw, CapId reply) {
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
  (void)f;
  when_all(std::move(eps)).on_ready([this, open_id, name, rw, reply](
                                        std::vector<Result<CapId>>&& cids) {
    auto fit = files_.find(name);
    if (fit == files_.end()) {
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
    o.name = name;
    o.rw = rw;
    o.read_ep = cids[0].value();
    o.write_ep = rw ? cids[1].value() : kInvalidCap;
    o.close_ep = cids.back().value();
    opens_[open_id] = o;
    std::vector<CapId> write_eps;
    if (rw) {
      write_eps.push_back(o.write_ep);
    }
    reply_open(fit->second, o.close_ep, {o.read_ep}, write_eps, reply);
  });
}

void FsService::open_dax_mode(const std::string& name, File& f, bool rw, CapId reply) {
  // Lazily build the cached revocation-tree children over the block adaptor's per-volume
  // endpoints; children live at the BLOCK Controller (derivation at the owner), so revoking
  // a volume kills them, and revoking a child leaves the volume usable by the FS.
  std::vector<Future<Result<CapId>>> derivations;
  const bool need_read = f.dax_read.empty();
  const bool need_write = rw && f.dax_write.empty();
  if (need_read) {
    for (const auto& ext : f.extents) {
      derivations.push_back(proc_->cap_create_revtree(ext.read_ep));
    }
  }
  if (need_write) {
    for (const auto& ext : f.extents) {
      derivations.push_back(proc_->cap_create_revtree(ext.write_ep));
    }
  }
  when_all(std::move(derivations))
      .on_ready([this, name, rw, need_read, need_write, reply](std::vector<Result<CapId>>&& kids) {
        auto fit = files_.find(name);
        if (fit == files_.end()) {
          proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
          return;
        }
        File& file = fit->second;
        const size_t n = file.extents.size();
        size_t k = 0;
        for (const auto& kid : kids) {
          if (!kid.ok()) {
            proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
            return;
          }
        }
        if (need_read) {
          for (size_t i = 0; i < n; ++i) {
            file.dax_read.push_back(kids[k++].value());
          }
        }
        if (need_write) {
          for (size_t i = 0; i < n; ++i) {
            file.dax_write.push_back(kids[k++].value());
          }
        }
        const uint32_t open_id = next_open_++;
        proc_->serve({}, [this, open_id](Process::Received rr) {
          handle_close(open_id, std::move(rr));
        }).on_ready([this, open_id, name, rw, reply](Result<CapId>&& close_ep) {
          auto fit2 = files_.find(name);
          if (!close_ep.ok() || fit2 == files_.end()) {
            proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
            return;
          }
          File& file = fit2->second;
          Open o;
          o.name = name;
          o.rw = rw;
          o.dax = true;
          o.close_ep = close_ep.value();
          opens_[open_id] = o;
          ++file.dax_refs;
          reply_open(file, o.close_ep, file.dax_read, rw ? file.dax_write : std::vector<CapId>{},
                     reply);
        });
      });
}

void FsService::handle_io(uint32_t open_id, bool is_write, Process::Received r) {
  auto oit = opens_.find(open_id);
  if (oit == opens_.end()) {
    fail_op(r, ErrorCode::kRevoked);
    return;
  }
  const Open& o = oit->second;
  auto fit = files_.find(o.name);
  if (fit == files_.end()) {
    fail_op(r, ErrorCode::kNotFound);
    return;
  }
  if (is_write && !o.rw) {
    fail_op(r, ErrorCode::kPermissionDenied);
    return;
  }
  const File& f = fit->second;
  const uint64_t off = r.imm_u64(0).value_or(~0ull);
  const uint64_t size = r.imm_u64(8).value_or(0);
  CapId mem = kInvalidCap;
  uint64_t mem_size = 0;
  std::vector<CapId> reqs;
  for (const auto& c : r.caps) {
    if (c.kind == ObjectKind::kMemory && mem == kInvalidCap) {
      mem = c.cid;
      mem_size = c.mem_size;
    } else if (c.kind == ObjectKind::kRequest) {
      reqs.push_back(c.cid);
    }
  }
  if (mem == kInvalidCap || reqs.empty() || size == 0 || off + size > f.size ||
      mem_size < size) {
    fail_op(r, ErrorCode::kInvalidArgument);
    return;
  }

  auto st = std::make_shared<FsIoState>();
  st->is_write = is_write;
  st->off = off;
  st->size = size;
  st->extent_bytes = params_.extent_bytes;
  st->extents = f.extents;
  st->mem = mem;
  st->cont = reqs[0];
  st->err = reqs.size() >= 2 ? reqs[1] : kInvalidCap;
  struct FsNames {
    NameId writes = intern_name("fs.writes");
    NameId reads = intern_name("fs.reads");
    NameId write_bytes = intern_name("fs.write_bytes");
    NameId read_bytes = intern_name("fs.read_bytes");
    NameId fs_write = intern_name("fs-write");
    NameId fs_read = intern_name("fs-read");
  };
  static const FsNames names;
  if (MetricsRegistry* m = sys_->loop().metrics()) {
    m->add(is_write ? names.writes : names.reads);
    m->add(is_write ? names.write_bytes : names.read_bytes, static_cast<int64_t>(size));
  }
  if (span_tracing_active()) {
    if (SpanTracer* t = sys_->loop().span_tracer()) {
      st->span = t->begin(intern_name(proc_->name()), SpanKind::kService,
                          is_write ? names.fs_write : names.fs_read, sys_->loop().now());
    }
  }
  io_pump(std::move(st));
}

void FsService::io_pump(std::shared_ptr<FsIoState> st) {
  if (st->finished) {
    return;
  }
  if (st->failed) {
    if (st->in_flight == 0) {
      st->finished = true;
      if (st->span != 0) {
        if (SpanTracer* t = sys_->loop().span_tracer()) {
          t->end_error(st->span, sys_->loop().now(), "io-failed");
        }
        st->span = 0;
      }
      if (st->err != kInvalidCap) {
        proc_->request_invoke(st->err,
                              Process::Args{}.imm_u64(0, static_cast<uint64_t>(st->error)));
      }
    }
    return;
  }
  if (st->completed == st->size) {
    st->finished = true;
    if (st->span != 0) {
      if (SpanTracer* t = sys_->loop().span_tracer()) {
        t->end(st->span, sys_->loop().now());
      }
      st->span = 0;
    }
    proc_->request_invoke(st->cont);
    return;
  }
  while (!st->failed && st->issued < st->size && st->in_flight < params_.pipeline_depth) {
    const uint64_t pos = st->off + st->issued;
    const uint64_t eoff = pos % st->extent_bytes;
    const uint64_t chunk = std::min({st->size - st->issued, st->extent_bytes - eoff,
                                     params_.slot_bytes, params_.stream_chunk});
    const uint64_t op_off = st->issued;
    st->issued += chunk;
    ++st->in_flight;
    slot_pool_.acquire()
        .and_then([this, st, op_off, chunk](size_t slot) { run_chunk(st, slot, op_off, chunk); })
        .or_else([this, st](ErrorCode e) {
          // Slot acquisition failed (service shutting down): fail the chunk without a slot.
          --st->in_flight;
          if (!st->failed) {
            st->error = e;
          }
          st->failed = true;
          io_pump(st);
        });
  }
}

void FsService::run_chunk(std::shared_ptr<FsIoState> st, size_t slot_idx, uint64_t op_off,
                          uint64_t chunk) {
  const uint64_t pos = st->off + op_off;
  const uint64_t extent = pos / st->extent_bytes;
  const uint64_t eoff = pos % st->extent_bytes;
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
  if (extent >= st->extents.size()) {
    sys_->loop().post([chunk_finished]() { chunk_finished(ErrorCode::kOutOfRange); });
    return;
  }
  const BlockClient::Volume& vol = st->extents[extent];

  if (st->is_write) {
    // Client -> FS staging (network transfer 1, the serialized stage), then block write
    // (transfer 2 + device), overlapping the next chunk's stage 1.
    st->acquire_stage1([this, st, slot_idx, vol, eoff, op_off, chunk, chunk_finished]() {
      proc_->memory_copy(st->mem, slots_[slot_idx].mem, chunk, op_off, 0)
          .on_ready([this, st, slot_idx, vol, eoff, chunk, chunk_finished](Status cs) {
            st->release_stage1();
            if (!cs.ok()) {
              chunk_finished(cs);
              return;
            }
            Slot& sl = slots_[slot_idx];
            Promise<Status> block_done;
            block_done.future().on_ready(chunk_finished);
            sl.pending = std::move(block_done);
            proc_->request_invoke(vol.write_ep, Process::Args{}
                                                    .imm_u64(0, eoff)
                                                    .imm_u64(8, chunk)
                                                    .cap(sl.mem)
                                                    .cap(sl.ok_ep)
                                                    .cap(sl.err_ep));
          });
    });
    return;
  }

  // Read: block read into FS staging (transfer 1 + device), then FS -> client (transfer 2).
  st->acquire_stage1([this, st, slot_idx, vol, eoff, op_off, chunk, chunk_finished]() {
    Slot& sl = slots_[slot_idx];
    Promise<Status> block_done;
    block_done.future().on_ready([this, st, slot_idx, op_off, chunk, chunk_finished](Status bs) {
      st->release_stage1();
      if (!bs.ok()) {
        chunk_finished(bs);
        return;
      }
      proc_->memory_copy(slots_[slot_idx].mem, st->mem, chunk, 0, op_off)
          .on_ready([chunk_finished](Status cs) { chunk_finished(cs); });
    });
    sl.pending = std::move(block_done);
    proc_->request_invoke(vol.read_ep, Process::Args{}
                                           .imm_u64(0, eoff)
                                           .imm_u64(8, chunk)
                                           .cap(sl.mem)
                                           .cap(sl.ok_ep)
                                           .cap(sl.err_ep));
  });
}

void FsService::handle_close(uint32_t open_id, Process::Received r) {
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

  std::vector<Future<Status>> revokes;
  if (o.dax) {
    auto fit = files_.find(o.name);
    if (fit != files_.end() && fit->second.dax_refs > 0 && --fit->second.dax_refs == 0) {
      for (CapId c : fit->second.dax_read) {
        revokes.push_back(proc_->cap_revoke(c));
      }
      for (CapId c : fit->second.dax_write) {
        revokes.push_back(proc_->cap_revoke(c));
      }
      fit->second.dax_read.clear();
      fit->second.dax_write.clear();
    }
  } else {
    proc_->remove_endpoint(o.read_ep);
    revokes.push_back(proc_->cap_revoke(o.read_ep));
    if (o.write_ep != kInvalidCap) {
      proc_->remove_endpoint(o.write_ep);
      revokes.push_back(proc_->cap_revoke(o.write_ep));
    }
  }
  proc_->remove_endpoint(o.close_ep);
  when_all(std::move(revokes)).on_ready([this, o, reply](std::vector<Status>&&) {
    proc_->cap_revoke(o.close_ep);
    if (reply != kInvalidCap) {
      proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 0));
    }
  });
}

void FsService::handle_unlink(Process::Received r) {
  if (r.num_caps() < 1) {
    return;
  }
  const CapId reply = r.cap(r.num_caps() - 1);
  auto name = r.imm_str(0);
  auto fit = name.has_value() ? files_.find(*name) : files_.end();
  if (fit == files_.end()) {
    proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
    return;
  }
  const File file = fit->second;
  files_.erase(fit);

  // Destroy the backing volumes: the block adaptor revokes the per-volume endpoints, which
  // recursively kills every cached DAX child and every client-held delegation of them.
  destroy_extents(std::make_shared<std::vector<BlockClient::Volume>>(file.extents), 0, reply);
}

void FsService::destroy_extents(std::shared_ptr<std::vector<BlockClient::Volume>> extents,
                                size_t i, CapId reply) {
  if (i == extents->size()) {
    proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 0));
    return;
  }
  BlockClient::destroy(*proc_, (*extents)[i])
      .on_ready([this, extents = std::move(extents), i, reply](Status) mutable {
        destroy_extents(std::move(extents), i + 1, reply);
      });
}


// --- client helpers ----------------------------------------------------------------------------

Future<Status> FsClient::create(Process& proc, CapId create_ep, const std::string& name,
                                uint64_t size) {
  return proc.call(create_ep, Process::Args{}.imm_u64(0, size).imm_str(8, name))
      .then([](Result<Process::Received>&& r) -> Status {
        if (!r.ok()) {
          return r.error();
        }
        return r.value().imm_u64(0).value_or(1) == 0 ? ok_status()
                                                     : Status(ErrorCode::kAlreadyExists);
      });
}

Future<Result<FsClient::OpenFile>> FsClient::open(Process& proc, CapId open_ep,
                                                  const std::string& name, bool rw, bool dax) {
  return proc
      .call(open_ep, Process::Args{}
                         .imm_u64(0, rw ? 1 : 0)
                         .imm_u64(8, dax ? 1 : 0)
                         .imm_str(16, name))
      .then([rw, dax](Result<Process::Received>&& r) -> Result<OpenFile> {
        if (!r.ok()) {
          return r.error();
        }
        const auto& rr = r.value();
        if (rr.imm_u64(0).value_or(1) != 0) {
          return ErrorCode::kNotFound;
        }
        OpenFile f;
        f.dax = dax;
        f.rw = rw;
        f.size = rr.imm_u64(8).value_or(0);
        f.extent_bytes = rr.imm_u64(16).value_or(0);
        const uint64_t n_read = rr.imm_u64(24).value_or(0);
        const uint64_t n_write = rr.imm_u64(32).value_or(0);
        if (rr.num_caps() < 1 + n_read + n_write) {
          return ErrorCode::kInternal;
        }
        f.close_ep = rr.cap(0);
        for (uint64_t i = 0; i < n_read; ++i) {
          f.read_eps.push_back(rr.cap(1 + i));
        }
        for (uint64_t i = 0; i < n_write; ++i) {
          f.write_eps.push_back(rr.cap(1 + n_read + i));
        }
        return f;
      });
}

namespace {

// Shared sync-I/O driver for FS-mode (single target endpoint) and DAX (per-extent
// endpoints + client-side chunking with diminished views).
Future<Status> fs_client_io(Process& proc, const FsClient::OpenFile& f, bool is_write,
                            uint64_t off, uint64_t size, CapId mem) {
  struct IoState {
    Process* proc;
    FsClient::OpenFile file;
    bool is_write;
    uint64_t off, size, done = 0;
    CapId mem;
    CapId ok_ep = kInvalidCap, err_ep = kInvalidCap;
    Promise<Status> promise;
  };
  auto st = std::make_shared<IoState>();
  st->proc = &proc;
  st->file = f;
  st->is_write = is_write;
  st->off = off;
  st->size = size;
  st->mem = mem;
  // The per-chunk completion callback. Deliberately NOT a member of IoState: it captures the
  // state, so storing it inside the state would form a reference cycle that leaks whenever an
  // operation is abandoned (e.g. its endpoint was revoked mid-flight).
  auto chunk_done = std::make_shared<std::function<void(Status)>>();
  Promise<Status> promise = st->promise;

  const std::vector<CapId>& eps = is_write ? f.write_eps : f.read_eps;
  if (eps.empty() || size == 0 || off + size > f.size) {
    promise.set(Status(ErrorCode::kInvalidArgument));
    return promise.future();
  }

  auto finish = [st](Status s) {
    st->proc->remove_endpoint(st->ok_ep);
    st->proc->remove_endpoint(st->err_ep);
    st->promise.set(s);
  };

  auto pump = std::make_shared<std::function<void()>>();
  // pump -> box and box -> pump references must not BOTH be strong (cycle); the box is the
  // rooted one (the completion endpoint handlers hold it), so pump holds it weakly.
  *pump = [st, finish, weak_box = std::weak_ptr<std::function<void(Status)>>(chunk_done),
           weak_pump = std::weak_ptr<std::function<void()>>(pump)]() {
    auto pump = weak_pump.lock();
    auto chunk_done = weak_box.lock();
    if (!pump || !chunk_done) {
      return;
    }
    if (st->done == st->size) {
      finish(ok_status());
      return;
    }
    uint64_t target_off = st->off + st->done;
    uint64_t chunk = st->size - st->done;
    size_t ep_index = 0;
    if (st->file.dax) {
      ep_index = target_off / st->file.extent_bytes;
      const uint64_t eoff = target_off % st->file.extent_bytes;
      chunk = std::min(chunk, st->file.extent_bytes - eoff);
      target_off = eoff;
    }
    const std::vector<CapId>& eps = st->is_write ? st->file.write_eps : st->file.read_eps;
    if (ep_index >= eps.size()) {
      finish(ErrorCode::kOutOfRange);
      return;
    }
    const CapId ep = eps[ep_index];
    const uint64_t this_chunk = chunk;
    *chunk_done = [st, pump, finish, this_chunk](Status s) {
      if (!s.ok()) {
        finish(s);
        return;
      }
      st->done += this_chunk;
      (*pump)();
    };
    auto send = [st, chunk_done, ep, target_off, this_chunk](CapId view) {
      st->proc
          ->request_invoke(ep, Process::Args{}
                                   .imm_u64(0, target_off)
                                   .imm_u64(8, this_chunk)
                                   .cap(view)
                                   .cap(st->ok_ep)
                                   .cap(st->err_ep))
          .on_ready([chunk_done](Status s) {
            // A rejected invoke (revoked/purged endpoint) never reaches the service, so no
            // completion will fire: fail the op now.
            if (!s.ok() && *chunk_done) {
              auto done = std::move(*chunk_done);
              *chunk_done = nullptr;
              done(s);
            }
          });
    };
    if (st->done == 0) {
      send(st->mem);  // services copy exactly `size` bytes from/to the buffer's start
    } else {
      // Later chunks need a view at the right offset into the client buffer.
      st->proc->memory_diminish(st->mem, st->done, this_chunk, Perms::kNone)
          .on_ready([send, finish](Result<CapId>&& view) {
            if (!view.ok()) {
              finish(view.error());
              return;
            }
            send(view.value());
          });
    }
  };

  auto ok_f = proc.request_create({});
  auto err_f = proc.request_create({});
  when_all(std::vector<Future<Result<CapId>>>{std::move(ok_f), std::move(err_f)})
      .on_ready([st, pump, chunk_done](std::vector<Result<CapId>>&& eps2) {
        if (!eps2[0].ok() || !eps2[1].ok()) {
          st->promise.set(Status(ErrorCode::kResourceExhausted));
          return;
        }
        st->ok_ep = eps2[0].value();
        st->err_ep = eps2[1].value();
        st->proc->on_endpoint(st->ok_ep, [chunk_done](Process::Received) {
          if (*chunk_done) {
            auto done = std::move(*chunk_done);
            *chunk_done = nullptr;
            done(ok_status());
          }
        });
        st->proc->on_endpoint(st->err_ep, [chunk_done](Process::Received rr) {
          if (*chunk_done) {
            auto done = std::move(*chunk_done);
            *chunk_done = nullptr;
            done(Status(static_cast<ErrorCode>(
                rr.imm_u64(0).value_or(static_cast<uint64_t>(ErrorCode::kInternal)))));
          }
        });
        (*pump)();
      });
  return promise.future();
}

}  // namespace

Future<Status> FsClient::read(Process& proc, const OpenFile& f, uint64_t off, uint64_t size,
                              CapId mem) {
  return fs_client_io(proc, f, /*is_write=*/false, off, size, mem);
}

Future<Status> FsClient::write(Process& proc, const OpenFile& f, uint64_t off, uint64_t size,
                               CapId mem) {
  return fs_client_io(proc, f, /*is_write=*/true, off, size, mem);
}

Future<Status> FsClient::close(Process& proc, const OpenFile& f) {
  return proc.call(f.close_ep).then([](Result<Process::Received>&& r) -> Status {
    if (!r.ok()) {
      return r.error();
    }
    return r.value().imm_u64(0).value_or(1) == 0 ? ok_status() : Status(ErrorCode::kNotFound);
  });
}

Future<Status> FsClient::unlink(Process& proc, CapId unlink_ep, const std::string& name) {
  return proc.call(unlink_ep, Process::Args{}.imm_str(0, name))
      .then([](Result<Process::Received>&& r) -> Status {
        if (!r.ok()) {
          return r.error();
        }
        return r.value().imm_u64(0).value_or(1) == 0 ? ok_status()
                                                     : Status(ErrorCode::kNotFound);
      });
}

}  // namespace fractos
