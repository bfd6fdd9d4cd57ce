#include "src/apps/face_verify.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "src/base/assert.h"
#include "src/sim/rng.h"

namespace fractos {

std::vector<uint8_t> face_image(uint32_t batch, uint32_t index, uint64_t image_bytes) {
  Rng rng(0x9000ull + batch * 1315423911ull + index);
  std::vector<uint8_t> img(image_bytes);
  for (auto& b : img) {
    b = rng.next_byte();
  }
  return img;
}

std::vector<uint8_t> face_batch(uint32_t batch, uint32_t images_per_batch,
                                uint64_t image_bytes) {
  std::vector<uint8_t> content;
  content.reserve(image_bytes * images_per_batch);
  for (uint32_t i = 0; i < images_per_batch; ++i) {
    const auto img = face_image(batch, i, image_bytes);
    content.insert(content.end(), img.begin(), img.end());
  }
  return content;
}

namespace {

// One process-wide cache of generated batches, shared by every deployment: a fat tree of 64
// pods ingests the same database 64 times, and generation is pure host time. Keyed by
// everything face_batch depends on; std::map keeps references stable as it grows. The
// simulator is single-threaded, so there is no lock.
const std::vector<uint8_t>& cached_batch(const FaceVerifyParams& params, uint32_t batch) {
  using Key = std::tuple<uint32_t, uint32_t, uint64_t>;
  static std::map<Key, std::vector<uint8_t>> cache;
  auto [it, fresh] = cache.try_emplace(Key{batch, params.images_per_batch, params.image_bytes});
  if (fresh) {
    it->second = face_batch(batch, params.images_per_batch, params.image_bytes);
  }
  return it->second;
}

}  // namespace

SimGpu::Kernel make_face_verify_kernel(Duration per_image_compute) {
  return [per_image_compute](PoolBytes& mem, const std::vector<uint64_t>& args) {
    FRACTOS_CHECK(args.size() >= 5);
    const uint64_t probe = args[0];
    const uint64_t db = args[1];
    const uint64_t result = args[2];
    const uint64_t n = args[3];
    const uint64_t image_bytes = args[4];
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t p = probe + i * image_bytes;
      const uint64_t d = db + i * image_bytes;
      const bool match = std::equal(mem.begin() + static_cast<ptrdiff_t>(p),
                                    mem.begin() + static_cast<ptrdiff_t>(p + image_bytes),
                                    mem.begin() + static_cast<ptrdiff_t>(d));
      mem[result + i] = match ? 1 : 0;
    }
    return per_image_compute * static_cast<double>(n);
  };
}

FaceVerifyCluster FaceVerifyCluster::build(System* sys) {
  FaceVerifyCluster c;
  c.frontend_node = sys->add_node("frontend");
  c.fs_node = sys->add_node("fs");
  c.storage_node = sys->add_node("storage");
  c.gpu_node = sys->add_node("gpu");
  c.nvme = std::make_unique<SimNvme>(&sys->loop());
  c.gpu = std::make_unique<SimGpu>(&sys->net(), c.gpu_node);
  return c;
}

// --- FractOS deployment ---------------------------------------------------------------------

FaceVerifyFractos::FaceVerifyFractos(System* sys, FaceVerifyCluster* cluster, Loc ctrl_loc,
                                     FaceVerifyParams params, Controller* shared_controller)
    : sys_(sys), cluster_(cluster), params_(params), slot_pool_(params.pool_slots) {
  slot_pool_.instrument(&sys->loop(), "facever");
  const uint64_t batch_bytes = params_.image_bytes * params_.images_per_batch;

  Controller* c_front;
  Controller* c_fs;
  Controller* c_storage;
  Controller* c_gpu;
  if (shared_controller != nullptr) {
    c_front = c_fs = c_storage = c_gpu = shared_controller;
  } else {
    c_front = &sys->add_controller(cluster->frontend_node, ctrl_loc);
    c_fs = &sys->add_controller(cluster->fs_node, ctrl_loc);
    c_storage = &sys->add_controller(cluster->storage_node, ctrl_loc);
    c_gpu = &sys->add_controller(cluster->gpu_node, ctrl_loc);
  }

  BlockAdaptor::Params bp;
  bp.slot_bytes = std::max<uint64_t>(2 << 20, batch_bytes);
  block_ = std::make_unique<BlockAdaptor>(sys, cluster->storage_node, *c_storage,
                                          cluster->nvme.get(), bp);
  FsService::Params fp;
  fp.extent_bytes = std::max<uint64_t>(4 << 20, batch_bytes);
  fp.slot_bytes = bp.slot_bytes;
  fs_ = FsService::bootstrap(sys, cluster->fs_node, *c_fs, block_->process(),
                             block_->mgmt_endpoint(), fp);
  gpu_adaptor_ = std::make_unique<GpuAdaptor>(sys, *c_gpu, cluster->gpu.get());
  gpu_adaptor_->register_kernel("face_verify",
                                make_face_verify_kernel(params_.per_image_compute));

  const uint64_t heap =
      (batch_bytes * 2 + 8192) * params_.pool_slots + batch_bytes + (2 << 20);
  frontend_ = &sys->spawn("frontend", cluster->frontend_node, *c_front, heap);
  fs_create_ = sys->bootstrap_grant(fs_->process(), fs_->create_endpoint(), *frontend_).value();
  fs_open_ = sys->bootstrap_grant(fs_->process(), fs_->open_endpoint(), *frontend_).value();
  const CapId gpu_init =
      sys->bootstrap_grant(gpu_adaptor_->process(), gpu_adaptor_->init_endpoint(), *frontend_)
          .value();

  // GPU session + per-slot buffers and pre-derived kernel Requests ("a small pool of
  // pre-allocated GPU memory buffers").
  session_ = sys->await_ok(GpuClient::init(*frontend_, gpu_init));
  const CapId kernel_ep = sys->await_ok(GpuClient::load(*frontend_, session_, "face_verify"));

  slots_.resize(params_.pool_slots);
  for (size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    auto probe = sys->await_ok(GpuClient::alloc(*frontend_, session_, batch_bytes));
    auto db = sys->await_ok(GpuClient::alloc(*frontend_, session_, batch_bytes));
    auto res = sys->await_ok(GpuClient::alloc(*frontend_, session_, 4096));
    slot.gpu_probe_addr = probe.device_addr;
    slot.gpu_db_addr = db.device_addr;
    slot.gpu_result_addr = res.device_addr;
    slot.gpu_probe_mem = probe.mem;
    slot.gpu_db_mem = db.mem;

    slot.probe_addr = frontend_->alloc(batch_bytes);
    slot.probe_mem =
        sys->await_ok(frontend_->memory_create(slot.probe_addr, batch_bytes, Perms::kRead));
    slot.result_addr = frontend_->alloc(4096);
    slot.result_mem =
        sys->await_ok(frontend_->memory_create(slot.result_addr, 4096, Perms::kReadWrite));

    slot.done = Completion::serve(sys, *frontend_);

    // The pre-derived kernel Request: args baked in, result copy-back pair + success/error
    // continuations attached. The storage adaptor will invoke it verbatim (step b of Fig. 2).
    Process::Args kargs = GpuClient::pack_args({slot.gpu_probe_addr, slot.gpu_db_addr,
                                                slot.gpu_result_addr, params_.images_per_batch,
                                                params_.image_bytes});
    kargs.cap(res.mem).cap(slot.result_mem).cap(slot.done.ok()).cap(slot.done.err());
    slot.kernel_req = sys->await_ok(frontend_->request_derive(kernel_ep, std::move(kargs)));
  }
}

void FaceVerifyFractos::ingest_database() {
  const uint64_t batch_bytes = params_.image_bytes * params_.images_per_batch;
  const uint64_t stage_addr = frontend_->alloc(batch_bytes);
  const CapId stage =
      sys_->await_ok(frontend_->memory_create(stage_addr, batch_bytes, Perms::kReadWrite));
  for (uint32_t b = 0; b < params_.num_batches; ++b) {
    const std::string name = "batch_" + std::to_string(b);
    FRACTOS_CHECK(sys_->await(FsClient::create(*frontend_, fs_create_, name, batch_bytes)).ok());
    frontend_->write_mem(stage_addr, cached_batch(params_, b));
    auto f = sys_->await_ok(FsClient::open(*frontend_, fs_open_, name, true, false));
    FRACTOS_CHECK(sys_->await(FsClient::write(*frontend_, f, 0, batch_bytes, stage)).ok());
    FRACTOS_CHECK(sys_->await(FsClient::close(*frontend_, f)).ok());
  }
}

FaceVerifyFractos::~FaceVerifyFractos() {
  slot_pool_.close();
  for (const Slot& slot : slots_) {
    slot.done.close();
  }
}

Future<Result<bool>> FaceVerifyFractos::verify(uint32_t batch, bool tamper) {
  if (MetricsRegistry* m = sys_->loop().metrics()) {
    static const NameId kRequests = intern_name("facever.requests");
    m->add(kRequests);
  }
  uint64_t span = 0;
  if (span_tracing_active()) {
    if (SpanTracer* t = sys_->loop().span_tracer()) {
      static const NameId kFacever = intern_name("facever");
      static const NameId kVerify = intern_name("verify");
      span = t->begin(kFacever, SpanKind::kService, kVerify, sys_->loop().now());
    }
  }
  Promise<Result<bool>> promise;
  slot_pool_.acquire()
      .and_then(
          [this, batch, tamper, promise](size_t slot) { run_on_slot(slot, batch, tamper, promise); })
      .or_else([promise](ErrorCode e) { promise.set(e); });
  if (span == 0) {
    return promise.future();
  }
  return promise.future().then([this, span](Result<bool>&& r) -> Result<bool> {
    if (SpanTracer* t = sys_->loop().span_tracer()) {
      if (r.ok()) {
        t->end(span, sys_->loop().now());
      } else {
        t->end_error(span, sys_->loop().now(), "verify-failed");
      }
    }
    return std::move(r);
  });
}

void FaceVerifyFractos::run_on_slot(size_t s, uint32_t batch, bool tamper,
                                    Promise<Result<bool>> promise) {
  Slot& slot = slots_[s];
  const uint64_t batch_bytes = params_.image_bytes * params_.images_per_batch;

  // The probe (the client-supplied photos) is the cached batch; a tampered probe must NOT
  // verify, so that (rare, test-only) path takes a private corrupted copy. Slots are reused
  // round-robin, so the pristine probe for this batch is often already staged — skip the
  // redundant 512 KiB write_mem in that case.
  if (tamper) {
    std::vector<uint8_t> probe = cached_batch(params_, batch);
    probe[params_.image_bytes / 2] ^= 0xff;
    frontend_->write_mem(slot.probe_addr, probe);
    slot.staged_batch = -1;
  } else if (slot.staged_batch != static_cast<int64_t>(batch)) {
    frontend_->write_mem(slot.probe_addr, cached_batch(params_, batch));
    slot.staged_batch = static_cast<int64_t>(batch);
  }

  // Completion: the GPU adaptor copied the verdict bytes into our result buffer and invoked
  // the respond Request.
  slot.done.arm().on_ready([this, s, tamper, promise](Status st) {
    Slot& sl = slots_[s];
    if (!st.ok()) {
      slot_pool_.release(s);
      promise.set(st.error());
      return;
    }
    const auto verdicts = frontend_->read_mem(sl.result_addr, params_.images_per_batch);
    bool all = true;
    for (uint32_t i = 0; i < params_.images_per_batch; ++i) {
      const bool expected = !(tamper && i == 0);
      if ((verdicts[i] == 1) != expected) {
        all = false;
      }
    }
    slot_pool_.release(s);
    promise.set(all);
  });

  // Probe upload and file open proceed in parallel; the storage read is invoked when both
  // are done. From there the execution is fully decentralized: storage -> GPU -> frontend.
  struct Join {
    int remaining = 2;
    Status failure = ok_status();
    Result<FsClient::OpenFile> open_result = ErrorCode::kInternal;
  };
  auto join = std::make_shared<Join>();
  auto maybe_go = [this, s, join, batch_bytes]() {
    if (--join->remaining > 0) {
      return;
    }
    Slot& sl = slots_[s];
    if (!join->failure.ok() || !join->open_result.ok()) {
      sl.done.resolve(join->failure.ok() ? Status(join->open_result.error()) : join->failure);
      return;
    }
    const auto& f = join->open_result.value();
    if (f.read_eps.empty()) {
      sl.done.resolve(Status(ErrorCode::kInternal));
      return;
    }
    // Step a of Fig. 2: invoke the storage read with the GPU buffer as destination and the
    // (pre-derived) kernel Request as continuation.
    sl.done.watch(frontend_->request_invoke(f.read_eps[0],
                                            imm_args(IoRange{0, batch_bytes})
                                                .cap(sl.gpu_db_mem)
                                                .cap(sl.kernel_req)));
  };

  frontend_->memory_copy(slot.probe_mem, slot.gpu_probe_mem, batch_bytes)
      .on_ready([join, maybe_go](Status st) {
        if (!st.ok()) {
          join->failure = st;
        }
        maybe_go();
      });
  FsClient::open(*frontend_, fs_open_, "batch_" + std::to_string(batch), false, /*dax=*/true)
      .on_ready([join, maybe_go](Result<FsClient::OpenFile>&& f) {
        join->open_result = std::move(f);
        maybe_go();
      });
}

// --- Baseline deployment ----------------------------------------------------------------------

FaceVerifyBaseline::FaceVerifyBaseline(System* sys, FaceVerifyCluster* cluster,
                                       FaceVerifyParams params)
    : sys_(sys), cluster_(cluster), params_(params), slot_pool_(params.pool_slots) {
  slot_pool_.instrument(&sys->loop(), "facever_baseline");
  nvmeof_target_ =
      std::make_unique<NvmeofTarget>(&sys->net(), cluster->storage_node, cluster->nvme.get());
  nvmeof_ =
      std::make_unique<NvmeofInitiator>(&sys->net(), cluster->fs_node, nvmeof_target_.get());
  PageCache::Params cp;
  cp.capacity_pages = params_.baseline_cache_pages;
  cache_ = std::make_unique<PageCache>(&sys->loop(), nvmeof_.get(), cp);
  nfs_server_ = std::make_unique<NfsServer>(&sys->net(), cluster->fs_node, cache_.get());
  nfs_ = std::make_unique<NfsClient>(&sys->net(), cluster->frontend_node, nfs_server_.get());
  rcuda_daemon_ = std::make_unique<RcudaDaemon>(&sys->net(), cluster->gpu.get());
  rcuda_daemon_->register_kernel("face_verify",
                                 make_face_verify_kernel(params_.per_image_compute));
  rcuda_ =
      std::make_unique<RcudaClient>(&sys->net(), cluster->frontend_node, rcuda_daemon_.get());

  kernel_fn_ = sys->await_ok(rcuda_->cu_module_get_function("face_verify"));
  const uint64_t batch_bytes = params_.image_bytes * params_.images_per_batch;
  slots_.resize(params_.pool_slots);
  for (auto& slot : slots_) {
    slot.gpu_probe_addr = sys->await_ok(rcuda_->cu_mem_alloc(batch_bytes));
    slot.gpu_db_addr = sys->await_ok(rcuda_->cu_mem_alloc(batch_bytes));
    slot.gpu_result_addr = sys->await_ok(rcuda_->cu_mem_alloc(4096));
  }
}

void FaceVerifyBaseline::ingest_database() {
  const uint64_t batch_bytes = params_.image_bytes * params_.images_per_batch;
  for (uint32_t b = 0; b < params_.num_batches; ++b) {
    const std::string name = "batch_" + std::to_string(b);
    FRACTOS_CHECK(nfs_server_->create_file(name, batch_bytes).ok());
    auto f = sys_->await_ok(nfs_->open(name));
    FRACTOS_CHECK(sys_->await(nfs_->write(f, 0, cached_batch(params_, b))).ok());
  }
}

Future<Result<bool>> FaceVerifyBaseline::verify(uint32_t batch, bool tamper) {
  Promise<Result<bool>> promise;
  slot_pool_.acquire()
      .and_then(
          [this, batch, tamper, promise](size_t slot) { run_on_slot(slot, batch, tamper, promise); })
      .or_else([promise](ErrorCode e) { promise.set(e); });
  return promise.future();
}

void FaceVerifyBaseline::run_on_slot(size_t s, uint32_t batch, bool tamper,
                                     Promise<Result<bool>> promise) {
  const Slot& slot = slots_[s];
  const uint64_t batch_bytes = params_.image_bytes * params_.images_per_batch;
  const uint32_t n = params_.images_per_batch;

  // One copy of the cached batch — cu_memcpy_htod consumes the probe by value.
  std::vector<uint8_t> probe = cached_batch(params_, batch);
  if (tamper) {
    probe[params_.image_bytes / 2] ^= 0xff;
  }

  // The centralized star: every step returns to the frontend before the next one starts,
  // and the first failure skips the rest.
  nfs_->open("batch_" + std::to_string(batch))
      .and_then([this, batch_bytes](NfsClient::FileHandle f) {
        return nfs_->read(f, 0, batch_bytes);
      })
      .and_then([this, slot](std::vector<uint8_t> data) {
        return rcuda_->cu_memcpy_htod(slot.gpu_db_addr, std::move(data));
      })
      .and_then([this, slot, probe = std::move(probe)]() mutable {
        return rcuda_->cu_memcpy_htod(slot.gpu_probe_addr, std::move(probe));
      })
      .and_then([this, slot, n]() {
        return rcuda_->cu_launch_kernel(kernel_fn_, {slot.gpu_probe_addr, slot.gpu_db_addr,
                                                     slot.gpu_result_addr, n,
                                                     params_.image_bytes});
      })
      .and_then([this]() { return rcuda_->cu_ctx_synchronize(); })
      .and_then([this, slot, n]() { return rcuda_->cu_memcpy_dtoh(slot.gpu_result_addr, n); })
      .and_then([n, tamper](std::vector<uint8_t> verdicts) {
        bool all = true;
        for (uint32_t i = 0; i < n; ++i) {
          const bool expected = !(tamper && i == 0);
          if ((verdicts[i] == 1) != expected) {
            all = false;
          }
        }
        return all;
      })
      .on_ready([this, s, promise](Result<bool>&& verdict) {
        slot_pool_.release(s);
        promise.set(std::move(verdict));
      });
}

}  // namespace fractos
