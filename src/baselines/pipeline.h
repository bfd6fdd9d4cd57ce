// Multi-stage processing pipeline: the service-composition experiment of Fig. 8.
//
// K stage services are deployed on distinct nodes; a payload streams through all of them.
// Three drive modes cover the design space of Fig. 1:
//   * kStar      — the centralized model (e.g. rCUDA-like): the client mediates every
//                  transfer; data returns to the client after each stage.
//   * kFastStar  — centralized control, distributed data (e.g. LegoOS-like): the client
//                  invokes each stage synchronously, but each stage copies its output
//                  directly into the next stage's input buffer.
//   * kChain     — fully distributed (FractOS): the client pre-composes a continuation chain
//                  (stage i's Request carries stage i+1's input buffer and Request), invokes
//                  once, and the final stage responds to the client directly.
//
// Each stage increments every payload byte, so an end-to-end run is verified by content
// (output == input + K), not just by timing.

#ifndef SRC_BASELINES_PIPELINE_H_
#define SRC_BASELINES_PIPELINE_H_

#include <memory>
#include <vector>

#include "src/core/service_call.h"
#include "src/core/system.h"

namespace fractos {

class PipelineStage {
 public:
  // A FractOS Process on `node` with an input buffer of `buffer_bytes` and a "process"
  // endpoint: SizeImms, caps = [dst Memory, continuation]. The handler transforms its
  // buffer (+1 per byte), models `stage_cost` of compute, copies the result into dst, and
  // invokes the continuation verbatim.
  PipelineStage(System* sys, uint32_t node, Controller& controller, uint64_t buffer_bytes,
                Duration stage_cost);

  Process& process() { return *proc_; }
  CapId process_ep() const { return process_ep_; }
  CapId buffer_cap() const { return buffer_cap_; }  // delegate to the predecessor
  uint64_t invocations() const { return invocations_; }

 private:
  void handle(Process::Received r);

  System* sys_;
  Process* proc_;
  uint64_t buffer_addr_ = 0;
  uint64_t buffer_bytes_ = 0;
  Duration stage_cost_;
  CapId process_ep_ = kInvalidCap;
  CapId buffer_cap_ = kInvalidCap;
  uint64_t invocations_ = 0;
};

enum class PipelineMode {
  kStar = 0,
  kFastStar = 1,
  kChain = 2,
};

const char* pipeline_mode_name(PipelineMode mode);

class PipelineRunner {
 public:
  // Wires the client (on `client_node`, attached to `controller`) to the stages: grants the
  // needed capabilities, allocates client buffers, and (for kChain) pre-derives the
  // continuation chain — all setup cost, off the measured path.
  PipelineRunner(System* sys, uint32_t client_node, Controller& controller,
                 std::vector<PipelineStage*> stages, uint64_t payload_bytes, PipelineMode mode);

  // Pushes one payload through the pipeline; resolves when the final result reaches the
  // client. Verifies content (each stage increments every byte).
  Future<Status> run_once();

  Process& client() { return *client_; }

 private:
  void run_star(std::shared_ptr<Promise<Status>> done);
  void run_fast_star(std::shared_ptr<Promise<Status>> done);
  void run_chain(std::shared_ptr<Promise<Status>> done);
  Status verify_output();
  // One synchronous stage invocation with [dst, reply] caps.
  Future<Status> invoke_stage(size_t i, CapId dst);

  System* sys_;
  Process* client_;
  std::vector<PipelineStage*> stages_;
  uint64_t payload_bytes_;
  PipelineMode mode_;
  uint64_t in_addr_ = 0;
  uint64_t out_addr_ = 0;
  CapId in_cap_ = kInvalidCap;
  CapId out_cap_ = kInvalidCap;
  std::vector<CapId> stage_eps_;      // client-held process endpoints
  std::vector<CapId> stage_buffers_;  // client-held stage input buffers
  CapId chain_head_ = kInvalidCap;    // pre-derived chain (kChain)
  CapId chain_reply_ = kInvalidCap;   // client endpoint the last stage invokes
  std::function<void()> on_chain_reply_;
  uint8_t iteration_seed_ = 1;
};

}  // namespace fractos

#endif  // SRC_BASELINES_PIPELINE_H_
