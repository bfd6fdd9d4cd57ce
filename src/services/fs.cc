#include "src/services/fs.h"

#include <algorithm>
#include <utility>

#include "src/base/assert.h"
#include "src/base/extent.h"

namespace fractos {

// In-flight state of one FS-mode I/O: chunks of at most stream_chunk bytes, up to
// pipeline_depth in flight (each holding one staging slot), so the storage leg of one
// chunk overlaps the client-copy leg of another.
struct FsIoState {
  bool is_write = false;
  IoRequest req;            // off/size/mem, the continuation (invoked verbatim) and error
  uint64_t issued = 0;      // bytes whose chunks have been started
  uint64_t completed = 0;   // bytes fully transferred
  uint32_t in_flight = 0;
  bool failed = false;
  ErrorCode error = ErrorCode::kInternal;
  bool finished = false;
  std::vector<BlockClient::Volume> extents;  // volumes: the file's, as of the op's start
  uint64_t base = 0;                         // backend: the file's region
  // Stage-1 legs run one at a time within an op, so chunk completions stagger and the
  // stage-2 leg of one chunk overlaps the next chunk's stage 1 — concurrent same-link
  // transfers would otherwise fair-share and all complete together, defeating the pipeline.
  // Stage 1 is the storage leg of a read and the client leg of a write.
  bool stage1_busy = false;
  std::deque<std::function<void()>> stage1_waiting;
  uint64_t span = 0;  // kService span covering the whole op (0 when tracing is off)

  explicit FsIoState(const Process::Received& r) : req(r) {}

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
  std::unique_ptr<FsService> fs(
      new FsService(sys, node, controller, params, "fs-service", nullptr));
  fs->block_mgmt_ = sys->bootstrap_grant(block_proc, block_mgmt_ep, *fs->proc_).value();
  fs->serve_endpoints();
  return fs;
}

FsService::FsService(System* sys, uint32_t node, Controller& controller, Params params,
                     const std::string& name, std::unique_ptr<Backend> backend)
    : sys_(sys),
      params_(params),
      backend_(std::move(backend)),
      slot_pool_(params.staging_slots) {
  const uint64_t heap = params_.staging_slots * params_.slot_bytes + (1 << 20);
  proc_ = &sys->spawn(name, node, controller, heap);
  slot_pool_.instrument(&sys->loop(), "fs." + std::to_string(node));
  slots_.resize(params_.staging_slots);
  for (Slot& slot : slots_) {
    slot.addr = proc_->alloc(params_.slot_bytes);
    slot.mem =
        sys->await_ok(proc_->memory_create(slot.addr, params_.slot_bytes, Perms::kReadWrite));
    if (backend_ == nullptr) {
      // One block-RPC completion pair per slot, reused for every chunk that uses the slot
      // (no per-operation object churn).
      slot.done = Completion::serve(sys, *proc_);
    }
  }
}

FsService::~FsService() {
  // Close first: queued acquires fail with kAborted and releases stop waking waiters, so the
  // chunk failures below cannot re-enter the pool and start new work mid-teardown.
  slot_pool_.close();
  for (const Slot& slot : slots_) {
    slot.done.close();
  }
}

void FsService::serve_endpoints() {
  create_ep_ = sys_->await_ok(proc_->serve(
      {}, serve_calls<FsCreateArgs>(*proc_, [this](auto c) { handle_create(std::move(c)); })));
  open_ep_ = sys_->await_ok(proc_->serve(
      {}, serve_calls<FsOpenArgs>(*proc_, [this](auto c) { handle_open(std::move(c)); })));
  if (backend_ == nullptr) {
    unlink_ep_ = sys_->await_ok(proc_->serve(
        {}, serve_calls<NameImms>(*proc_, [this](auto c) { handle_unlink(std::move(c)); })));
  }
}

void FsService::handle_create(ServiceCall<FsCreateArgs> c) {
  const auto& [size, name] = c.args;
  // A size whose last extent ends past 2^64 would wrap create_extents' extent count to 0.
  if (size == 0 || size > ~0ull - (params_.extent_bytes - 1)) {
    send_reply(*proc_, c.reply, ErrorCode::kInvalidArgument);
    return;
  }
  if (files_.contains(name) || creating_.contains(name)) {
    send_reply(*proc_, c.reply, ErrorCode::kAlreadyExists);
    return;
  }
  if (backend_ != nullptr) {
    const std::optional<uint64_t> base = backend_->allocate(size);
    if (base.has_value()) {
      File& f = files_[name];
      f.size = size;
      f.base = *base;
    }
    send_reply(*proc_, c.reply,
               base.has_value() ? ErrorCode::kOk : ErrorCode::kResourceExhausted);
    return;
  }
  // One block-device volume per extent, made one after another. The name stays reserved
  // until the create replies, so a second create of it in the meantime gets kAlreadyExists.
  creating_.insert(name);
  auto file = std::make_shared<File>();
  file->size = size;
  create_extents(std::move(file), name, 0, c.reply);
}

void FsService::create_extents(std::shared_ptr<File> file, const std::string& name, uint64_t i,
                               CapId to) {
  const uint64_t n_extents = (file->size + params_.extent_bytes - 1) / params_.extent_bytes;
  if (i == n_extents) {
    creating_.erase(name);
    files_[name] = *file;
    send_reply(*proc_, to, ErrorCode::kOk);
    return;
  }
  const uint64_t vol_size = std::min(params_.extent_bytes, file->size - i * params_.extent_bytes);
  BlockClient::create_volume(*proc_, block_mgmt_, vol_size)
      .on_ready([this, file = std::move(file), name, i, to](Result<BlockClient::Volume>&& v) {
        if (!v.ok()) {
          // Destroy the volumes this create already made before refusing it.
          auto made = std::make_shared<std::vector<BlockClient::Volume>>(file->extents);
          destroy_extents(std::move(made), 0, [this, name, to, code = v.error()]() {
            creating_.erase(name);
            send_reply(*proc_, to, code);
          });
          return;
        }
        file->extents.push_back(v.value());
        create_extents(file, name, i + 1, to);
      });
}

void FsService::handle_open(ServiceCall<FsOpenArgs> c) {
  const FsOpenArgs& a = c.args;
  // A backend's device cannot delegate authority over sub-ranges to a third party, so it
  // has no DAX mode: that composition is exactly what FractOS adds.
  if (a.dax && backend_ != nullptr) {
    send_reply(*proc_, c.reply, ErrorCode::kUnimplemented);
    return;
  }
  auto fit = files_.find(a.name);
  if (fit == files_.end()) {
    send_reply(*proc_, c.reply, ErrorCode::kNotFound);
    return;
  }
  if (a.dax) {
    open_dax_mode(a.name, fit->second, a.rw, c.reply);
  } else {
    open_fs_mode(a.name, a.rw, c.reply);
  }
}

void FsService::open_fs_mode(const std::string& name, bool rw, CapId to) {
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
  eps.push_back(proc_->serve({}, serve_calls<NoImms>(*proc_, [this, open_id](auto c) {
    handle_close(open_id, c.reply);
  })));
  when_all(std::move(eps)).on_ready([this, open_id, name, rw, to](
                                        std::vector<Result<CapId>>&& cids) {
    auto fit = files_.find(name);
    if (fit == files_.end()) {
      send_reply(*proc_, to, ErrorCode::kNotFound);
      return;
    }
    for (const auto& c : cids) {
      if (!c.ok()) {
        send_reply(*proc_, to, c.error());
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
    std::vector<CapId> caps{o.close_ep, o.read_ep};
    if (rw) {
      caps.push_back(o.write_ep);
    }
    send_reply(*proc_, to, ErrorCode::kOk,
               FsOpenReply{fit->second.size, params_.extent_bytes, 1, rw ? 1u : 0u},
               std::move(caps));
  });
}

void FsService::open_dax_mode(const std::string& name, File& f, bool rw, CapId to) {
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
      .on_ready([this, name, rw, need_read, need_write, to](std::vector<Result<CapId>>&& kids) {
        auto fit = files_.find(name);
        if (fit == files_.end()) {
          send_reply(*proc_, to, ErrorCode::kNotFound);
          return;
        }
        File& file = fit->second;
        const size_t n = file.extents.size();
        size_t k = 0;
        for (const auto& kid : kids) {
          if (!kid.ok()) {
            send_reply(*proc_, to, kid.error());
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
        proc_->serve({}, serve_calls<NoImms>(*proc_, [this, open_id](auto c) {
          handle_close(open_id, c.reply);
        })).on_ready([this, open_id, name, rw, to](Result<CapId>&& close_ep) {
          auto fit2 = files_.find(name);
          if (!close_ep.ok() || fit2 == files_.end()) {
            send_reply(*proc_, to, close_ep.ok() ? ErrorCode::kNotFound : close_ep.error());
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
          std::vector<CapId> caps{o.close_ep};
          caps.insert(caps.end(), file.dax_read.begin(), file.dax_read.end());
          if (rw) {
            caps.insert(caps.end(), file.dax_write.begin(), file.dax_write.end());
          }
          send_reply(*proc_, to, ErrorCode::kOk,
                     FsOpenReply{file.size, params_.extent_bytes, file.dax_read.size(),
                                 rw ? file.dax_write.size() : 0},
                     std::move(caps));
        });
      });
}

void FsService::handle_io(uint32_t open_id, bool is_write, Process::Received r) {
  auto st = std::make_shared<FsIoState>(r);
  const IoRequest& req = st->req;
  auto oit = opens_.find(open_id);
  if (oit == opens_.end()) {
    req.fail_op(*proc_, ErrorCode::kRevoked);
    return;
  }
  const Open& o = oit->second;
  auto fit = files_.find(o.name);
  if (fit == files_.end()) {
    req.fail_op(*proc_, ErrorCode::kNotFound);
    return;
  }
  if (is_write && !o.rw) {
    req.fail_op(*proc_, ErrorCode::kPermissionDenied);
    return;
  }
  const File& f = fit->second;
  if (!req.fits(f.size)) {
    req.fail_op(*proc_, ErrorCode::kInvalidArgument);
    return;
  }
  st->is_write = is_write;
  st->extents = f.extents;
  st->base = f.base;
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
    m->add(is_write ? names.write_bytes : names.read_bytes, static_cast<int64_t>(req.size));
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
      st->req.fail_op(*proc_, st->error);
    }
    return;
  }
  if (st->completed == st->req.size) {
    st->finished = true;
    if (st->span != 0) {
      if (SpanTracer* t = sys_->loop().span_tracer()) {
        t->end(st->span, sys_->loop().now());
      }
      st->span = 0;
    }
    proc_->request_invoke(st->req.cont);
    return;
  }
  while (!st->failed && st->issued < st->req.size && st->in_flight < params_.pipeline_depth) {
    uint64_t chunk =
        std::min({st->req.size - st->issued, params_.slot_bytes, params_.stream_chunk});
    if (backend_ == nullptr) {
      // A chunk is one block RPC, so it stays inside one extent's volume.
      const uint64_t eoff = (st->req.off + st->issued) % params_.extent_bytes;
      chunk = std::min(chunk, params_.extent_bytes - eoff);
    }
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

  if (st->is_write) {
    // Client -> FS staging (network transfer 1, the serialized stage), then the storage leg
    // (transfer 2 + device), overlapping the next chunk's stage 1.
    st->acquire_stage1([this, st, slot_idx, op_off, chunk, chunk_finished]() {
      proc_->memory_copy(st->req.mem, slots_[slot_idx].mem, chunk, op_off, 0)
          .on_ready([this, st, slot_idx, op_off, chunk, chunk_finished](Status cs) {
            st->release_stage1();
            if (!cs.ok()) {
              chunk_finished(cs);
              return;
            }
            storage_leg(*st, slot_idx, op_off, chunk, chunk_finished);
          });
    });
    return;
  }

  // Read: the storage leg into FS staging (transfer 1 + device), then FS -> client
  // (transfer 2).
  st->acquire_stage1([this, st, slot_idx, op_off, chunk, chunk_finished]() {
    storage_leg(*st, slot_idx, op_off, chunk,
                [this, st, slot_idx, op_off, chunk, chunk_finished](Status bs) {
                  st->release_stage1();
                  if (!bs.ok()) {
                    chunk_finished(bs);
                    return;
                  }
                  proc_->memory_copy(slots_[slot_idx].mem, st->req.mem, chunk, 0, op_off)
                      .on_ready([chunk_finished](Status cs) { chunk_finished(cs); });
                });
  });
}

void FsService::storage_leg(const FsIoState& st, size_t slot_idx, uint64_t op_off,
                            uint64_t chunk, std::function<void(Status)> done) {
  const uint64_t pos = st.req.off + op_off;
  Slot& sl = slots_[slot_idx];
  if (backend_ != nullptr) {
    backend_->transfer(*proc_, st.is_write, st.base + pos, chunk, sl.addr, std::move(done));
    return;
  }
  // handle_io checked the op against the file's size, which its extents cover.
  const BlockClient::Volume& vol = st.extents[pos / params_.extent_bytes];
  sl.done.arm().on_ready(std::move(done));
  // A refused RPC (the file was unlinked and its volumes revoked) fails the chunk, so it
  // gives its slot back instead of waiting for a completion that will never come.
  sl.done.watch(proc_->request_invoke(st.is_write ? vol.write_ep : vol.read_ep,
                                      imm_args(IoRange{pos % params_.extent_bytes, chunk})
                                          .cap(sl.mem)
                                          .cap(sl.done.ok())
                                          .cap(sl.done.err())));
}

void FsService::handle_close(uint32_t open_id, CapId to) {
  auto oit = opens_.find(open_id);
  if (oit == opens_.end()) {
    send_reply(*proc_, to, ErrorCode::kNotFound);
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
  when_all(std::move(revokes)).on_ready([this, o, to](std::vector<Status>&&) {
    proc_->cap_revoke(o.close_ep);
    send_reply(*proc_, to, ErrorCode::kOk);
  });
}

void FsService::handle_unlink(ServiceCall<NameImms> c) {
  auto fit = files_.find(c.args.name);
  if (fit == files_.end()) {
    send_reply(*proc_, c.reply, ErrorCode::kNotFound);
    return;
  }
  auto extents = std::make_shared<std::vector<BlockClient::Volume>>(fit->second.extents);
  files_.erase(fit);

  // Destroy the backing volumes: the block adaptor revokes the per-volume endpoints, which
  // recursively kills every cached DAX child and every client-held delegation of them.
  destroy_extents(std::move(extents), 0,
                  [this, to = c.reply]() { send_reply(*proc_, to, ErrorCode::kOk); });
}

void FsService::destroy_extents(std::shared_ptr<std::vector<BlockClient::Volume>> extents,
                                size_t i, std::function<void()> done) {
  if (i == extents->size()) {
    done();
    return;
  }
  BlockClient::destroy(*proc_, (*extents)[i])
      .on_ready([this, extents = std::move(extents), i, done = std::move(done)](Status) mutable {
        destroy_extents(std::move(extents), i + 1, std::move(done));
      });
}

// --- client helpers ----------------------------------------------------------------------------

Future<Status> FsClient::create(Process& proc, CapId create_ep, const std::string& name,
                                uint64_t size) {
  return call(proc, create_ep, FsCreateArgs{size, name});
}

Future<Result<FsClient::OpenFile>> FsClient::open(Process& proc, CapId open_ep,
                                                  const std::string& name, bool rw, bool dax) {
  return call<FsOpenReply>(
      proc, open_ep, FsOpenArgs{rw, dax, name}, {},
      [rw, dax](FsOpenReply&& r, const std::vector<DeliveredCap>& caps) -> Result<OpenFile> {
        if (caps.empty() || r.n_read > caps.size() - 1 ||
            r.n_write > caps.size() - 1 - r.n_read) {
          return ErrorCode::kInternal;
        }
        OpenFile f{dax, rw, r.size, r.extent_bytes, caps[0].cid, {}, {}};
        for (uint64_t i = 0; i < r.n_read; ++i) {
          f.read_eps.push_back(caps[1 + i].cid);
        }
        for (uint64_t i = 0; i < r.n_write; ++i) {
          f.write_eps.push_back(caps[1 + r.n_read + i].cid);
        }
        return f;
      });
}

namespace {

// Shared sync-I/O driver for FS-mode (single target endpoint) and DAX (per-extent
// endpoints + client-side chunking with diminished views). One completion pair serves the
// whole op, armed once per chunk.
struct FsClientIo {
  Process* proc;
  FsClient::OpenFile file;
  bool is_write;
  uint64_t off, size, done = 0;
  CapId mem;
  // Weak: each chunk's armed continuation holds this state, and the pair holds that
  // continuation, so a strong handle here would keep an abandoned op alive for good.
  Completion::Weak pair;
  Promise<Status> promise;
};

void fs_client_finish(const std::shared_ptr<FsClientIo>& st, Status s) {
  st->pair.lock().close();
  st->promise.set(s);
}

void fs_client_step(const std::shared_ptr<FsClientIo>& st) {
  if (st->done == st->size) {
    fs_client_finish(st, ok_status());
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
    fs_client_finish(st, ErrorCode::kOutOfRange);
    return;
  }
  const Completion pair = st->pair.lock();
  pair.arm().on_ready([st, chunk](Status s) {
    if (!s.ok()) {
      fs_client_finish(st, s);
      return;
    }
    st->done += chunk;
    fs_client_step(st);
  });
  auto send = [st, pair, ep = eps[ep_index], target_off, chunk](CapId view) {
    pair.watch(st->proc->request_invoke(ep, imm_args(IoRange{target_off, chunk})
                                                .cap(view)
                                                .cap(pair.ok())
                                                .cap(pair.err())));
  };
  if (st->done == 0) {
    send(st->mem);  // services copy exactly `size` bytes from/to the buffer's start
    return;
  }
  // Later chunks need a view at the right offset into the client buffer.
  st->proc->memory_diminish(st->mem, st->done, chunk, Perms::kNone)
      .on_ready([send, pair](Result<CapId>&& view) {
        if (!view.ok()) {
          pair.resolve(view.error());
          return;
        }
        send(view.value());
      });
}

Future<Status> fs_client_io(Process& proc, const FsClient::OpenFile& f, bool is_write,
                            uint64_t off, uint64_t size, CapId mem) {
  const std::vector<CapId>& eps = is_write ? f.write_eps : f.read_eps;
  if (eps.empty() || size == 0 || !extent_within(off, size, f.size)) {
    return make_ready_future(Status(ErrorCode::kInvalidArgument));
  }
  auto st = std::make_shared<FsClientIo>(
      FsClientIo{&proc, f, is_write, off, size, 0, mem, {}, Promise<Status>()});
  Completion::create(proc).on_ready([st](Result<Completion>&& pair) {
    if (!pair.ok()) {
      st->promise.set(pair.error());
      return;
    }
    st->pair = pair.value().weak();
    fs_client_step(st);
  });
  return st->promise.future();
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
  return call(proc, f.close_ep, NoImms{});
}

Future<Status> FsClient::unlink(Process& proc, CapId unlink_ep, const std::string& name) {
  return call(proc, unlink_ep, NameImms{name});
}

}  // namespace fractos
