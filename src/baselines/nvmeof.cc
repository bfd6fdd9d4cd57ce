#include "src/baselines/nvmeof.h"

#include <utility>

#include "src/base/assert.h"
#include "src/wire/buffer.h"

namespace fractos {

namespace {
// Command/completion wire format (one message per NVMe-oF capsule).
constexpr uint8_t kOpRead = 0;
constexpr uint8_t kOpWrite = 1;
constexpr uint8_t kOpCompletion = 2;
}  // namespace

NvmeofTarget::NvmeofTarget(Network* net, uint32_t node, SimNvme* nvme)
    : NvmeofTarget(net, node, nvme, Params{}) {}

NvmeofTarget::NvmeofTarget(Network* net, uint32_t node, SimNvme* nvme, Params params)
    : net_(net), node_(node), nvme_(nvme), params_(params) {}

QueuePair& NvmeofTarget::accept(Endpoint initiator_ep) {
  (void)initiator_ep;
  connections_.push_back(std::make_unique<QueuePair>(net_, Endpoint{node_, Loc::kHost}));
  QueuePair* qp = connections_.back().get();
  qp->set_receive_handler([this, qp](Payload bytes) { on_command(qp, bytes); });
  return *qp;
}

void NvmeofTarget::on_command(QueuePair* qp, const Payload& bytes) {
  Decoder d(bytes.bytes());
  const uint8_t op = d.get_u8();
  const uint64_t seq = d.get_u64();
  const uint64_t off = d.get_u64();
  ExecContext& cpu = net_->node(node_).host();
  if (op == kOpRead) {
    const uint64_t size = d.get_u64();
    FRACTOS_CHECK(d.ok());
    cpu.run(params_.command_cost, [this, qp, seq, off, size]() {
      nvme_->read(off, size, [qp, seq](Result<Payload> r) {
        Encoder e;
        e.put_u8(kOpCompletion);
        e.put_u64(seq);
        e.put_u8(r.ok() ? 0 : static_cast<uint8_t>(r.error()));
        // The capsule format embeds data in the completion message, so the baseline pays an
        // encode copy here — the disaggregation tax FractOS's RDMA path avoids.
        e.put_bytes(r.ok() ? r.value().bytes() : std::span<const uint8_t>());
        qp->send(Traffic::kData, e.take());
      });
    });
    return;
  }
  if (op == kOpWrite) {
    std::vector<uint8_t> data = d.get_bytes();
    FRACTOS_CHECK(d.ok());
    cpu.run(params_.command_cost, [this, qp, seq, off, data = std::move(data)]() mutable {
      nvme_->write(off, std::move(data), [qp, seq](Status s) {
        Encoder e;
        e.put_u8(kOpCompletion);
        e.put_u64(seq);
        e.put_u8(s.ok() ? 0 : static_cast<uint8_t>(s.error()));
        e.put_bytes({});
        qp->send(Traffic::kControl, e.take());
      });
    });
    return;
  }
  FRACTOS_CHECK_MSG(false, "unknown NVMe-oF command");
}

NvmeofInitiator::NvmeofInitiator(Network* net, uint32_t node, NvmeofTarget* target)
    : net_(net), target_(target), qp_(net, Endpoint{node, Loc::kHost}) {
  QueuePair& remote = target->accept(qp_.local());
  QueuePair::connect(qp_, remote);
  qp_.set_receive_handler([this](Payload bytes) { on_completion(bytes); });
}

void NvmeofInitiator::on_completion(const Payload& bytes) {
  Decoder d(bytes.bytes());
  const uint8_t op = d.get_u8();
  const uint64_t seq = d.get_u64();
  const uint8_t status = d.get_u8();
  std::vector<uint8_t> data = d.get_bytes();
  FRACTOS_CHECK(d.ok() && op == kOpCompletion);
  auto it = pending_.find(seq);
  FRACTOS_CHECK(it != pending_.end());
  auto done = std::move(it->second);
  pending_.erase(it);
  if (status != 0) {
    done(static_cast<ErrorCode>(status));
  } else {
    done(Payload(std::move(data)));
  }
}

void NvmeofInitiator::read(uint64_t off, uint64_t size,
                           std::function<void(Result<Payload>)> done) {
  const uint64_t seq = next_seq_++;
  pending_.emplace(seq, std::move(done));
  Encoder e;
  e.put_u8(kOpRead);
  e.put_u64(seq);
  e.put_u64(off);
  e.put_u64(size);
  qp_.send(Traffic::kControl, e.take());
}

void NvmeofInitiator::write(uint64_t off, Payload data, std::function<void(Status)> done) {
  const uint64_t seq = next_seq_++;
  pending_.emplace(seq, [done = std::move(done)](Result<Payload> r) {
    done(r.ok() ? ok_status() : Status(r.error()));
  });
  Encoder e;
  e.put_u8(kOpWrite);
  e.put_u64(seq);
  e.put_u64(off);
  e.put_bytes(data.bytes());
  qp_.send(Traffic::kData, e.take());
}

}  // namespace fractos
