#include "src/baselines/rpc.h"

#include <utility>

namespace fractos {

void RpcServer::Reply::send(Traffic category, ErrorCode status,
                            std::span<const uint8_t> payload) const {
  Encoder e;
  e.put(RpcReplyHeader{op_, seq_, status});
  e.put_bytes(payload);
  qp_->send(category, e.take());
}

QueuePair& RpcServer::accept() {
  connections_.push_back(std::make_unique<QueuePair>(net_, local_));
  QueuePair* qp = connections_.back().get();
  qp->set_receive_handler([this, qp](Payload frame) { on_request(qp, frame); });
  return *qp;
}

void RpcServer::on_request(QueuePair* qp, const Payload& frame) {
  Decoder d(frame.bytes());
  RpcRequestHeader h;
  d.get(h);
  if (!d.ok() || h.op >= handlers_.size() || handlers_[h.op] == nullptr) {
    return;
  }
  handlers_[h.op](d, Reply(qp, reply_op_, h.seq));
}

RpcClient::RpcClient(Network* net, Endpoint local, RpcServer& server, ExecContext* issue_cpu,
                     Duration issue_cost)
    : qp_(net, local),
      reply_op_(server.reply_op()),
      issue_cpu_(issue_cpu),
      issue_cost_(issue_cost) {
  QueuePair::connect(qp_, server.accept());
  qp_.set_receive_handler([this](Payload frame) { on_reply(frame); });
  qp_.set_severed_handler([this]() {
    // Taken first: a continuation may issue a call, which must not land in the table being
    // drained.
    for (auto& [seq, promise] : std::exchange(pending_, {})) {
      promise.set(ErrorCode::kChannelClosed);
    }
  });
}

Future<Result<Payload>> RpcClient::issue(uint64_t seq, Traffic category, Payload frame) {
  if (qp_.severed()) {
    return make_ready_future(Result<Payload>(ErrorCode::kChannelClosed));
  }
  Promise<Result<Payload>> promise;
  pending_.emplace(seq, promise);
  if (issue_cpu_ == nullptr) {
    qp_.send(category, std::move(frame));
  } else {
    issue_cpu_->run(issue_cost_, [this, category, frame = std::move(frame)]() mutable {
      qp_.send(category, std::move(frame));
    });
  }
  return promise.future();
}

void RpcClient::on_reply(const Payload& frame) {
  Decoder d(frame.bytes());
  RpcReplyHeader h;
  d.get(h);
  const std::span<const uint8_t> payload = d.get_span();
  if (!d.done() || h.op != reply_op_) {
    return;
  }
  auto it = pending_.find(h.seq);
  if (it == pending_.end()) {
    return;
  }
  Promise<Result<Payload>> promise = std::move(it->second);
  pending_.erase(it);
  if (h.status != ErrorCode::kOk) {
    promise.set(h.status);
  } else if (payload.empty()) {
    promise.set(Payload());
  } else {
    promise.set(Payload::copy_of(payload.data(), payload.size()));
  }
}

}  // namespace fractos
