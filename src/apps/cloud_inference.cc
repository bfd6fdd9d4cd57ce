#include "src/apps/cloud_inference.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/base/assert.h"
#include "src/sim/rng.h"

namespace fractos {

SimGpu::Kernel make_inference_kernel(Duration compute) {
  // args = {in_addr, out_addr, n_bytes}: out[i] = in[i] XOR 0x5A (content-verifiable).
  return [compute](PoolBytes& mem, const std::vector<uint64_t>& args) {
    FRACTOS_CHECK(args.size() >= 3);
    const uint64_t in = args[0];
    const uint64_t out = args[1];
    const uint64_t n = args[2];
    FRACTOS_CHECK(in <= mem.size() && n <= mem.size() - in);
    FRACTOS_CHECK(out <= mem.size() && n <= mem.size() - out);
    const uint8_t* src = mem.data() + in;
    uint8_t* dst = mem.data() + out;
    uint64_t i = 0;
    // Eight bytes at a time, unless the output starts inside the input: then each byte must
    // see the ones already written before it, as the byte-order definition above says.
    if (out <= in || out >= in + n) {
      constexpr uint64_t kMask = 0x5A5A5A5A5A5A5A5Aull;
      for (; i + 8 <= n; i += 8) {
        uint64_t word;
        std::memcpy(&word, src + i, sizeof(word));
        word ^= kMask;
        std::memcpy(dst + i, &word, sizeof(word));
      }
    }
    for (; i < n; ++i) {
      dst[i] = static_cast<uint8_t>(src[i] ^ 0x5A);
    }
    return compute;
  };
}

CloudInference::CloudInference(System* sys, Loc ctrl_loc, CloudInferenceParams params)
    : sys_(sys), params_(params), slot_pool_(params.pool_slots) {
  frontend_node_ = sys->add_node("frontend");
  fs_node_ = sys->add_node("fs");
  in_node_ = sys->add_node("input-storage");
  out_node_ = sys->add_node("output-storage");
  gpu_node_ = sys->add_node("gpu");
  Controller& c_front = sys->add_controller(frontend_node_, ctrl_loc);
  Controller& c_fs = sys->add_controller(fs_node_, ctrl_loc);
  Controller& c_in = sys->add_controller(in_node_, ctrl_loc);
  Controller& c_out = sys->add_controller(out_node_, ctrl_loc);
  Controller& c_gpu = sys->add_controller(gpu_node_, ctrl_loc);

  in_nvme_ = std::make_unique<SimNvme>(&sys->loop());
  out_nvme_ = std::make_unique<SimNvme>(&sys->loop());
  BlockAdaptor::Params bp;
  bp.slot_bytes = std::max<uint64_t>(2 << 20, params_.request_bytes);
  in_block_ = std::make_unique<BlockAdaptor>(sys, in_node_, c_in, in_nvme_.get(), bp);
  out_block_ = std::make_unique<BlockAdaptor>(sys, out_node_, c_out, out_nvme_.get(), bp);
  FsService::Params fp;
  fp.extent_bytes = std::max<uint64_t>(4 << 20, params_.request_bytes * params_.pool_slots);
  fp.slot_bytes = bp.slot_bytes;
  in_fs_ = FsService::bootstrap(sys, fs_node_, c_fs, in_block_->process(),
                                in_block_->mgmt_endpoint(), fp);
  out_fs_ = FsService::bootstrap(sys, fs_node_, c_fs, out_block_->process(),
                                 out_block_->mgmt_endpoint(), fp);
  gpu_ = std::make_unique<SimGpu>(&sys->net(), gpu_node_);
  gpu_adaptor_ = std::make_unique<GpuAdaptor>(sys, c_gpu, gpu_.get());
  gpu_adaptor_->register_kernel("inference", make_inference_kernel(params_.compute));

  const uint64_t heap =
      params_.pool_slots * (params_.request_bytes + 8192) + params_.request_bytes + (2 << 20);
  frontend_ = &sys->spawn("frontend", frontend_node_, c_front, heap);
  in_create_ = sys->bootstrap_grant(in_fs_->process(), in_fs_->create_endpoint(), *frontend_)
                   .value();
  in_open_ =
      sys->bootstrap_grant(in_fs_->process(), in_fs_->open_endpoint(), *frontend_).value();
  out_create_ = sys->bootstrap_grant(out_fs_->process(), out_fs_->create_endpoint(), *frontend_)
                    .value();
  out_open_ =
      sys->bootstrap_grant(out_fs_->process(), out_fs_->open_endpoint(), *frontend_).value();
  const CapId gpu_init =
      sys->bootstrap_grant(gpu_adaptor_->process(), gpu_adaptor_->init_endpoint(), *frontend_)
          .value();
  session_ = sys->await_ok(GpuClient::init(*frontend_, gpu_init));
  kernel_ep_ = sys->await_ok(GpuClient::load(*frontend_, session_, "inference"));
}

std::vector<uint8_t> CloudInference::input_content(uint32_t input_id) const {
  Rng rng(0xabcd0000ull + input_id);
  std::vector<uint8_t> v(params_.request_bytes);
  for (auto& b : v) {
    b = rng.next_byte();
  }
  return v;
}

void CloudInference::ingest() {
  const uint64_t rb = params_.request_bytes;
  // Input files.
  const uint64_t stage_addr = frontend_->alloc(rb);
  const CapId stage =
      sys_->await_ok(frontend_->memory_create(stage_addr, rb, Perms::kReadWrite));
  for (uint32_t i = 0; i < params_.num_inputs; ++i) {
    const std::string name = "in_" + std::to_string(i);
    FRACTOS_CHECK(sys_->await(FsClient::create(*frontend_, in_create_, name, rb)).ok());
    std::vector<uint8_t> content = input_content(i);
    frontend_->write_mem(stage_addr, content);
    // The kernel's transform of this input, computed once: every verification compares
    // against it.
    for (uint8_t& b : content) {
      b = static_cast<uint8_t>(b ^ 0x5A);
    }
    expected_outputs_.push_back(std::move(content));
    auto f = sys_->await_ok(FsClient::open(*frontend_, in_open_, name, true, false));
    FRACTOS_CHECK(sys_->await(FsClient::write(*frontend_, f, 0, rb, stage)).ok());
    FRACTOS_CHECK(sys_->await(FsClient::close(*frontend_, f)).ok());
    // Steady-state handle: DAX read-only, opened once (the paper's "two for open" amortizes).
    input_files_.push_back(
        sys_->await_ok(FsClient::open(*frontend_, in_open_, name, false, true)));
  }
  // Output file: one region per slot.
  FRACTOS_CHECK(sys_->await(FsClient::create(*frontend_, out_create_, "out",
                                             rb * params_.pool_slots))
                    .ok());
  output_file_ = sys_->await_ok(FsClient::open(*frontend_, out_open_, "out", true, true));
  FRACTOS_CHECK(output_file_.write_eps.size() == 1);  // single extent by construction
  output_file_fsmode_ =
      sys_->await_ok(FsClient::open(*frontend_, out_open_, "out", true, false));

  // Per-slot GPU buffers and the pre-derived continuation chain:
  //   kernel Request -> output-write Request -> respond Request.
  slots_.resize(params_.pool_slots);
  for (size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    slot.out_off = s * rb;
    auto in_buf = sys_->await_ok(GpuClient::alloc(*frontend_, session_, rb));
    auto out_buf = sys_->await_ok(GpuClient::alloc(*frontend_, session_, rb));
    slot.gpu_in_addr = in_buf.device_addr;
    slot.gpu_out_addr = out_buf.device_addr;
    slot.gpu_in_mem = in_buf.mem;
    slot.gpu_out_mem = out_buf.mem;
    slot.host_addr = frontend_->alloc(rb);
    slot.host_mem =
        sys_->await_ok(frontend_->memory_create(slot.host_addr, rb, Perms::kReadWrite));

    slot.done = Completion::serve(sys_, *frontend_);

    // Step d of Fig. 2: the output-write Request. Hidden service composition — the write
    // child came from the FS, reads from GPU memory, and continues into the application.
    const CapId write_req = sys_->await_ok(frontend_->request_derive(
        output_file_.write_eps[0], imm_args(IoRange{slot.out_off, rb})
                                       .cap(slot.gpu_out_mem)
                                       .cap(slot.done.ok())
                                       .cap(slot.done.err())));
    // Step b/c: the kernel Request whose success continuation IS the output write.
    Process::Args kargs =
        GpuClient::pack_args({slot.gpu_in_addr, slot.gpu_out_addr, rb});
    kargs.cap(write_req).cap(slot.done.err());
    slot.kernel_req = sys_->await_ok(frontend_->request_derive(kernel_ep_, std::move(kargs)));
  }
}

CloudInference::~CloudInference() {
  slot_pool_.close();
  for (const Slot& slot : slots_) {
    slot.done.close();
  }
}

void CloudInference::verify_output(size_t s, uint32_t input_id, Promise<Result<bool>> promise) {
  Slot& slot = slots_[s];
  const uint64_t rb = params_.request_bytes;
  // The slot is cleared in place before the read, so stale bytes from an earlier request
  // can never pass the comparison; the comparison reads the slot in place too.
  PoolBytes& mem = sys_->net().node(frontend_node_).pool(frontend_->heap_pool());
  FRACTOS_CHECK(slot.host_addr <= mem.size() && rb <= mem.size() - slot.host_addr);
  std::fill_n(mem.begin() + static_cast<ptrdiff_t>(slot.host_addr), rb, uint8_t{0});
  FsClient::read(*frontend_, output_file_fsmode_, slot.out_off, rb, slot.host_mem)
      .on_ready([this, s, input_id, promise](Status rs) {
        Slot& sl = slots_[s];
        if (!rs.ok()) {
          slot_pool_.release(s);
          promise.set(rs.error());
          return;
        }
        const std::vector<uint8_t>& want = expected_outputs_[input_id];
        const PoolBytes& mem = sys_->net().node(frontend_node_).pool(frontend_->heap_pool());
        const uint8_t* got = mem.data() + sl.host_addr;
        const bool sized = want.size() == params_.request_bytes;
        const bool same = sized && std::equal(want.begin(), want.end(), got);
        slot_pool_.release(s);
        promise.set(same);
      });
}

Future<Result<bool>> CloudInference::infer_distributed(uint32_t input_id) {
  Promise<Result<bool>> promise;
  FRACTOS_CHECK(input_id < input_files_.size());
  slot_pool_.acquire().and_then([this, input_id, promise](size_t s) {
    Slot& slot = slots_[s];
    slot.done.arm().on_ready([this, s, input_id, promise](Status st) {
      if (!st.ok()) {
        slot_pool_.release(s);
        promise.set(st.error());
        return;
      }
      verify_output(s, input_id, promise);
    });
    // Step a of Fig. 2: one message to the input SSD; everything after runs without us.
    slot.done.watch(frontend_->request_invoke(input_files_[input_id].read_eps[0],
                                              imm_args(IoRange{0, params_.request_bytes})
                                                  .cap(slot.gpu_in_mem)
                                                  .cap(slot.kernel_req)));
  }).or_else([promise](ErrorCode e) { promise.set(e); });
  return promise.future();
}

Future<Result<bool>> CloudInference::infer_centralized(uint32_t input_id) {
  Promise<Result<bool>> promise;
  FRACTOS_CHECK(input_id < input_files_.size());
  const uint64_t rb = params_.request_bytes;
  slot_pool_.acquire().and_then([this, input_id, rb, promise](size_t s) {
    Slot& slot = slots_[s];
    auto fail = [this, s, promise](ErrorCode e) {
      slot_pool_.release(s);
      promise.set(e);
    };
    // 1: input SSD -> app memory (the app mediates everything from here on).
    FsClient::read(*frontend_, input_files_[input_id], 0, rb, slot.host_mem)
        .on_ready([this, s, input_id, rb, promise, fail](Status s1) {
          if (!s1.ok()) {
            fail(s1.error());
            return;
          }
          Slot& sl = slots_[s];
          // 2: app -> GPU input buffer.
          frontend_->memory_copy(sl.host_mem, sl.gpu_in_mem, rb)
              .on_ready([this, s, input_id, rb, promise, fail](Status s2) {
                if (!s2.ok()) {
                  fail(s2.error());
                  return;
                }
                Slot& sl2 = slots_[s];
                // 3: kernel, with the result copied BACK to the app (GPU -> app).
                GpuClient::run(*frontend_, kernel_ep_,
                               {sl2.gpu_in_addr, sl2.gpu_out_addr, rb}, sl2.gpu_out_mem,
                               sl2.host_mem)
                    .on_ready([this, s, input_id, rb, promise, fail](Status s3) {
                      if (!s3.ok()) {
                        fail(s3.error());
                        return;
                      }
                      Slot& sl3 = slots_[s];
                      // 4+5: app -> FS -> output SSD.
                      FsClient::write(*frontend_, output_file_fsmode_, sl3.out_off, rb,
                                      sl3.host_mem)
                          .on_ready([this, s, input_id, promise, fail](Status s4) {
                            if (!s4.ok()) {
                              fail(s4.error());
                              return;
                            }
                            verify_output(s, input_id, promise);
                          });
                    });
              });
        });
  }).or_else([promise](ErrorCode e) { promise.set(e); });
  return promise.future();
}

}  // namespace fractos
