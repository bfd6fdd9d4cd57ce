// The COMPLETE Fig. 2 cloud-inference scenario, including the output path.
//
// "For each client request, the service reads its input from storage, processes it on a
// GPU-based inference engine, and writes the output to a file on a file server. [...] the FS
// service also uses remote SSDs."
//
// Distributed (ring, the green path):
//   frontend --(a: read request; dst = GPU input, cont = kernel Request)--> input SSD
//   input SSD --(b: kernel Request, verbatim)--> GPU
//   GPU --(d: output-write Request, verbatim; src = GPU output memory)--> output SSD
//   output SSD --(e: respond Request, verbatim)--> frontend
// The output-write Request is a DAX child the FS handed out — the dynamic composition of
// Section 3.4: the output SSD is invisible to the application, yet ends up reading from GPU
// memory and invoking the application's continuation directly.
//
// Centralized (star, the red path): the same FractOS primitives driven the conventional way —
// every transfer goes through the frontend (read to app, copy to GPU, result back to app,
// write from app). Fig. 2's analysis: the star needs 5 data transfers and ~1.6x the messages
// of the ring's 2.
//
// The kernel is verifiable: out[i] = in[i] XOR 0x5A; after a request the output file on the
// output SSD must contain exactly the transformed input.

#ifndef SRC_APPS_CLOUD_INFERENCE_H_
#define SRC_APPS_CLOUD_INFERENCE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/futures/slot_pool.h"
#include "src/services/completion.h"
#include "src/services/fs.h"
#include "src/services/gpu_adaptor.h"

namespace fractos {

struct CloudInferenceParams {
  uint64_t request_bytes = 256 << 10;  // input (and output) payload per request
  uint32_t num_inputs = 4;             // input files ("the photos database")
  uint32_t pool_slots = 2;             // pre-allocated GPU buffer slots
  Duration compute = Duration::micros(400);  // inference time per request
};

SimGpu::Kernel make_inference_kernel(Duration compute);

class CloudInference {
 public:
  // Builds the full 5-node cluster (frontend / fs / input-storage / output-storage / gpu)
  // with one Controller per node at `ctrl_loc`, both storage tiers behind the FS service.
  CloudInference(System* sys, Loc ctrl_loc, CloudInferenceParams params);

  // Creates and fills the input files, and the per-slot output regions.
  void ingest();

  // One request through the DISTRIBUTED ring. Resolves true iff the output file holds the
  // correctly transformed input afterwards (verified by reading it back out of band).
  Future<Result<bool>> infer_distributed(uint32_t input_id);

  // The same work through the CENTRALIZED star (frontend mediates every transfer).
  Future<Result<bool>> infer_centralized(uint32_t input_id);

  Process& frontend() { return *frontend_; }
  uint32_t gpu_node() const { return gpu_node_; }
  // Fails in-flight requests and queued slot acquires with kAborted.
  ~CloudInference();

 private:
  struct Slot {
    uint64_t gpu_in_addr = 0;
    uint64_t gpu_out_addr = 0;
    CapId gpu_in_mem = kInvalidCap;
    CapId gpu_out_mem = kInvalidCap;
    CapId kernel_req = kInvalidCap;   // pre-derived: kernel -> output write -> respond
    Completion done;                  // the chain's respond/error pair
    uint64_t out_off = 0;             // this slot's region in the output file
    // Centralized mode staging in frontend memory.
    uint64_t host_addr = 0;
    CapId host_mem = kInvalidCap;
  };

  // Reads the output region back (FS mode) and compares against the transformed input.
  void verify_output(size_t slot, uint32_t input_id, Promise<Result<bool>> promise);
  std::vector<uint8_t> input_content(uint32_t input_id) const;

  System* sys_;
  CloudInferenceParams params_;
  uint32_t frontend_node_ = 0, fs_node_ = 0, in_node_ = 0, out_node_ = 0, gpu_node_ = 0;
  std::unique_ptr<SimNvme> in_nvme_;
  std::unique_ptr<SimNvme> out_nvme_;
  std::unique_ptr<SimGpu> gpu_;
  std::unique_ptr<BlockAdaptor> in_block_;
  std::unique_ptr<BlockAdaptor> out_block_;
  std::unique_ptr<FsService> in_fs_;
  std::unique_ptr<FsService> out_fs_;
  std::unique_ptr<GpuAdaptor> gpu_adaptor_;
  Process* frontend_ = nullptr;
  CapId in_create_ = kInvalidCap, in_open_ = kInvalidCap;
  CapId out_create_ = kInvalidCap, out_open_ = kInvalidCap;
  GpuClient::Session session_;
  CapId kernel_ep_ = kInvalidCap;
  SlotPool slot_pool_;
  std::vector<Slot> slots_;
  // Per input: the output the inference kernel must produce (input XOR 0x5A).
  std::vector<std::vector<uint8_t>> expected_outputs_;
  // Cached DAX opens (steady state: open once, reuse).
  std::vector<FsClient::OpenFile> input_files_;
  FsClient::OpenFile output_file_;
  FsClient::OpenFile output_file_fsmode_;  // FS-mode handle for verification reads
};

}  // namespace fractos

#endif  // SRC_APPS_CLOUD_INFERENCE_H_
