#include "src/baselines/nvmeof.h"

#include <utility>

namespace fractos {

namespace {
// Command and completion capsules: one RPC frame each.
enum NvmeofOp : uint8_t {
  kOpRead = 0,
  kOpWrite = 1,
  kOpCompletion = 2,
};

struct ReadCommand {
  uint64_t off = 0;
  uint64_t size = 0;
  FRACTOS_WIRE_FIELDS(off, size)
};
struct WriteCommand {
  uint64_t off = 0;
  Payload data;
  FRACTOS_WIRE_FIELDS(off, data)
};
}  // namespace

NvmeofTarget::NvmeofTarget(Network* net, uint32_t node, SimNvme* nvme)
    : NvmeofTarget(net, node, nvme, Params{}) {}

NvmeofTarget::NvmeofTarget(Network* net, uint32_t node, SimNvme* nvme, Params params)
    : node_(node),
      cpu_(net->node(node).host()),
      nvme_(nvme),
      params_(params),
      rpc_(net, Endpoint{node, Loc::kHost}, kOpCompletion) {
  using Reply = RpcServer::Reply;
  rpc_.on<ReadCommand>(kOpRead, [this](ReadCommand c, Reply reply) {
    cpu_.run(params_.command_cost, [this, c, reply]() {
      nvme_->read(c.off, c.size, [reply](Result<Payload> r) {
        // The capsule format embeds data in the completion message, so the baseline pays an
        // encode copy here — the disaggregation tax FractOS's RDMA path avoids.
        reply.send(Traffic::kData, r.error(),
                   r.ok() ? r.value().bytes() : std::span<const uint8_t>());
      });
    });
  });
  rpc_.on<WriteCommand>(kOpWrite, [this](WriteCommand c, Reply reply) {
    cpu_.run(params_.command_cost, [this, c = std::move(c), reply]() mutable {
      nvme_->write(c.off, std::move(c.data), [reply](Status s) { reply.status(s.error()); });
    });
  });
}

NvmeofInitiator::NvmeofInitiator(Network* net, uint32_t node, NvmeofTarget* target)
    : target_(target), rpc_(net, Endpoint{node, Loc::kHost}, target->rpc()) {}

void NvmeofInitiator::read(uint64_t off, uint64_t size,
                           std::function<void(Result<Payload>)> done) {
  rpc_.call<Payload>(kOpRead, ReadCommand{off, size}, Traffic::kControl)
      .on_ready([done = std::move(done)](Result<Payload>&& r) { done(std::move(r)); });
}

void NvmeofInitiator::write(uint64_t off, Payload data, std::function<void(Status)> done) {
  rpc_.call(kOpWrite, WriteCommand{off, std::move(data)}, Traffic::kData)
      .on_ready([done = std::move(done)](Status&& s) { done(s); });
}

}  // namespace fractos
