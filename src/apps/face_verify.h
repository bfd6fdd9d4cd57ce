// The end-to-end face-verification application (Section 5, evaluated in Section 6.5).
//
// "The application is a face-verification service used to verify the identity of a person by
// matching the photo and the ID in the input with the photo corresponding to that ID from a
// secure database. [...] The application creates and builds a pipeline of Requests to
// (1) open and read the corresponding files from storage into the GPU (it uses a small pool
// of pre-allocated GPU memory buffers), (2) execute the face-verification GPU kernel,
// (3) copy the results from the GPU into the application memory, and (4) send a response."
//
// Two deployments over a 4-node cluster (frontend / fs / storage / gpu):
//   * FaceVerifyFractos — FS (DAX) + block adaptor + GPU adaptor, the request graph chained:
//     frontend -> storage read (dst = GPU buffer, continuation = kernel Request) ->
//     GPU kernel -> result copy-back -> respond. Database bytes cross the network ONCE.
//   * FaceVerifyBaseline — NFS frontend + ext4-over-NVMe-oF + rCUDA, the Section 6.5
//     baseline: database bytes cross the network three times (NVMe-oF, NFS, rCUDA).
//
// The kernel really compares probe vs database images byte-for-byte, so every run is
// content-verified: verify() resolves true only if all images matched.

#ifndef SRC_APPS_FACE_VERIFY_H_
#define SRC_APPS_FACE_VERIFY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/futures/slot_pool.h"

#include "src/baselines/nfs.h"
#include "src/baselines/nvmeof.h"
#include "src/baselines/page_cache.h"
#include "src/baselines/rcuda.h"
#include "src/services/completion.h"
#include "src/services/fs.h"
#include "src/services/gpu_adaptor.h"

namespace fractos {

struct FaceVerifyParams {
  uint64_t image_bytes = 64 << 10;
  uint32_t images_per_batch = 8;
  uint32_t num_batches = 16;  // database size = num_batches batch files
  uint32_t pool_slots = 4;    // pre-allocated GPU buffer slots (paper: "a small pool")
  Duration per_image_compute = Duration::micros(120);
  // Page-cache pages on the baseline's FS node. The paper's database is a "secure database"
  // far larger than RAM, so per-request reads are cold; a bounded cache models that.
  uint64_t baseline_cache_pages = 64;
};

// Deterministic synthetic database image (the "secure database" content).
std::vector<uint8_t> face_image(uint32_t batch, uint32_t index, uint64_t image_bytes);

// A whole batch (images_per_batch images concatenated). Generation is pure wall-clock
// overhead — every deployment in the process shares one cache of these instead of
// regenerating 512 KiB of pseudo-random bytes on every request or every ingest.
std::vector<uint8_t> face_batch(uint32_t batch, uint32_t images_per_batch,
                                uint64_t image_bytes);

// The face-verification kernel: args = {probe_addr, db_addr, result_addr, n, image_bytes};
// result[i] = 1 if probe image i matches database image i.
SimGpu::Kernel make_face_verify_kernel(Duration per_image_compute);

// Common cluster for both deployments.
struct FaceVerifyCluster {
  uint32_t frontend_node = 0;
  uint32_t fs_node = 0;
  uint32_t storage_node = 0;
  uint32_t gpu_node = 0;
  std::unique_ptr<SimNvme> nvme;
  std::unique_ptr<SimGpu> gpu;

  static FaceVerifyCluster build(System* sys);
};

class FaceVerifyFractos {
 public:
  // `ctrl_loc` places the per-node Controllers on host CPUs or SmartNICs (Fig. 12/13 compare
  // both); pass a `shared_controller` to use one Controller for everything ("Shared HAL").
  FaceVerifyFractos(System* sys, FaceVerifyCluster* cluster, Loc ctrl_loc,
                    FaceVerifyParams params, Controller* shared_controller = nullptr);

  // Creates and fills the database files ("batch_<i>", one per request batch).
  void ingest_database();

  // One client request. Resolves true iff the GPU's verdicts are exactly as expected: every
  // probe image matches its database image — except that with `tamper` set, probe image 0 is
  // corrupted and must be reported as a mismatch. (False means the system returned wrong
  // verdicts; errors surface as error codes.)
  Future<Result<bool>> verify(uint32_t batch, bool tamper = false);
  // Fails in-flight requests and queued slot acquires with kAborted.
  ~FaceVerifyFractos();

  Process& frontend() { return *frontend_; }

 private:
  struct Slot {
    uint64_t gpu_probe_addr = 0;
    uint64_t gpu_db_addr = 0;
    uint64_t gpu_result_addr = 0;
    CapId gpu_probe_mem = kInvalidCap;   // frontend-held caps
    CapId gpu_db_mem = kInvalidCap;
    CapId kernel_req = kInvalidCap;      // pre-derived kernel Request for this slot
    Completion done;                     // the kernel Request's respond/error pair
    uint64_t result_addr = 0;            // frontend result landing buffer
    CapId result_mem = kInvalidCap;
    uint64_t probe_addr = 0;             // frontend probe staging
    CapId probe_mem = kInvalidCap;
    // Which batch's pristine probe currently sits at probe_addr (-1 = none/corrupted).
    // Staging is a host-side write_mem with no simulated cost, so skipping a redundant
    // re-stage of the same bytes changes nothing simulated — only wall-clock memcpy.
    int64_t staged_batch = -1;
  };

  void run_on_slot(size_t slot, uint32_t batch, bool tamper, Promise<Result<bool>> promise);

  System* sys_;
  FaceVerifyCluster* cluster_;
  FaceVerifyParams params_;
  std::unique_ptr<BlockAdaptor> block_;
  std::unique_ptr<FsService> fs_;
  std::unique_ptr<GpuAdaptor> gpu_adaptor_;
  Process* frontend_ = nullptr;
  CapId fs_create_ = kInvalidCap;
  CapId fs_open_ = kInvalidCap;
  GpuClient::Session session_;
  SlotPool slot_pool_;
  std::vector<Slot> slots_;
};

class FaceVerifyBaseline {
 public:
  FaceVerifyBaseline(System* sys, FaceVerifyCluster* cluster, FaceVerifyParams params);

  void ingest_database();
  Future<Result<bool>> verify(uint32_t batch, bool tamper = false);

 private:
  struct Slot {
    uint64_t gpu_probe_addr = 0;
    uint64_t gpu_db_addr = 0;
    uint64_t gpu_result_addr = 0;
  };
  void run_on_slot(size_t slot, uint32_t batch, bool tamper, Promise<Result<bool>> promise);

  System* sys_;
  FaceVerifyCluster* cluster_;
  FaceVerifyParams params_;
  std::unique_ptr<NvmeofTarget> nvmeof_target_;
  std::unique_ptr<NvmeofInitiator> nvmeof_;
  std::unique_ptr<PageCache> cache_;
  std::unique_ptr<NfsServer> nfs_server_;
  std::unique_ptr<NfsClient> nfs_;
  std::unique_ptr<RcudaDaemon> rcuda_daemon_;
  std::unique_ptr<RcudaClient> rcuda_;
  uint64_t kernel_fn_ = 0;
  SlotPool slot_pool_;
  std::vector<Slot> slots_;
};

}  // namespace fractos

#endif  // SRC_APPS_FACE_VERIFY_H_
