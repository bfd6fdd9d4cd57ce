// The block-device adaptor: exposes a disaggregated NVMe SSD through logical volumes
// (Section 5: "The block-device adaptor exposes Requests that read/write the contents of
// logical volumes (managed through separate Requests)").
//
// Endpoints (immediates laid out and answered by the call convention of
// src/core/service_call.h):
//
//   mgmt (volume create): SizeImms, caps = [reply].
//                         reply: its status, caps = [read_ep, write_ep, delete_ep]
//   read  (per volume):   an I/O request (src/services/completion.h), dst Memory first.
//                         On success the continuation is invoked VERBATIM — the adaptor does
//                         not know (or care) whether it is a GPU kernel invocation, an FS
//                         callback, or a client reply (the decentralized-execution core of
//                         the paper). On failure the error Request (if present) gets the
//                         status.
//   write (per volume):   an I/O request, src Memory first.
//   delete (per volume):  caps = [reply]. REVOKES the volume's read and write endpoints —
//                         every delegated capability to the freed blocks dies immediately
//                         (the use-after-free scenario of Section 3.5) — and frees the region
//                         once the reads and writes already past the volume lookup have
//                         ended. A freed region reads as zeros.
//
// Data path: device <-> staging slot in the adaptor's heap <-> memory_copy against the
// client-provided Memory capability (which may live on any node — GPU memory included).

#ifndef SRC_SERVICES_BLOCK_ADAPTOR_H_
#define SRC_SERVICES_BLOCK_ADAPTOR_H_

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/base/extent.h"
#include "src/core/system.h"
#include "src/futures/slot_pool.h"
#include "src/devices/nvme.h"
#include "src/services/completion.h"

namespace fractos {

class BlockAdaptor {
 public:
  struct Params {
    uint32_t staging_slots = 8;
    uint64_t slot_bytes = 2ull << 20;  // max I/O size per request
    // Device DMA and network transfer are overlapped in sub-chunks of this size (real
    // NVMe + RDMA pipelines naturally; a store-and-forward adaptor would not).
    uint64_t stream_chunk = 64ull << 10;
  };

  BlockAdaptor(System* sys, uint32_t node, Controller& controller, SimNvme* nvme);
  BlockAdaptor(System* sys, uint32_t node, Controller& controller, SimNvme* nvme, Params params);

  Process& process() { return *proc_; }
  CapId mgmt_endpoint() const { return mgmt_ep_; }
  SimNvme& nvme() { return *nvme_; }
  size_t num_volumes() const { return volumes_.size(); }
  uint64_t max_io_bytes() const { return params_.slot_bytes; }

 private:
  struct Volume {
    uint64_t base = 0;
    uint64_t size = 0;
    CapId read_ep = kInvalidCap;
    CapId write_ep = kInvalidCap;
    CapId delete_ep = kInvalidCap;
    uint32_t ios = 0;  // reads and writes past the volume lookup, not yet ended
  };
  struct Slot {
    size_t idx = 0;           // index in slots_ / the SlotPool
    uint64_t addr = 0;        // offset in the adaptor heap
    CapId mem = kInvalidCap;  // reusable Memory capability over the whole slot
  };

  void handle_mgmt(ServiceCall<SizeImms> c);
  void handle_io(uint32_t vol_id, bool is_write, Process::Received r);
  void read_via_slot(uint32_t vol_id, const IoRequest& req, uint64_t device_off, Slot slot);
  void write_via_slot(uint32_t vol_id, const IoRequest& req, uint64_t device_off, Slot slot);
  void handle_delete(uint32_t vol_id, CapId reply);
  // Ends an I/O on `vol_id`; a deleted volume's last I/O frees its extent.
  void end_io(uint32_t vol_id);
  void free_extent(const Volume& vol);

  System* sys_;
  Process* proc_;
  SimNvme* nvme_;
  Params params_;
  CapId mgmt_ep_ = kInvalidCap;
  ExtentAllocator space_;  // the device's bytes, one 4 KiB-aligned extent per volume
  std::unordered_map<uint32_t, Volume> volumes_;
  // Deleted volumes whose I/Os have not all ended; their extents are still taken.
  std::unordered_map<uint32_t, Volume> draining_;
  uint32_t next_vol_ = 1;
  // Staging-slot pool: ops queue when all slots are busy.
  SlotPool slot_pool_;
  std::vector<Slot> slots_;
};

// Client-side helpers wrapping the adaptor's wire conventions.
struct BlockClient {
  struct Volume {
    CapId read_ep = kInvalidCap;
    CapId write_ep = kInvalidCap;
    CapId delete_ep = kInvalidCap;
    uint64_t size = 0;
  };

  static Future<Result<Volume>> create_volume(Process& proc, CapId mgmt_ep, uint64_t size);
  // Synchronous forms: resolve when the I/O's continuation fires.
  static Future<Status> read(Process& proc, const Volume& v, uint64_t off, uint64_t size,
                             CapId dst_mem);
  static Future<Status> write(Process& proc, const Volume& v, uint64_t off, uint64_t size,
                              CapId src_mem);
  static Future<Status> destroy(Process& proc, const Volume& v);
};

}  // namespace fractos

#endif  // SRC_SERVICES_BLOCK_ADAPTOR_H_
