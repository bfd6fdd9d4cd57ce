#include "src/core/peer_links.h"

#include <algorithm>

#include "src/base/assert.h"
#include "src/core/controller.h"
#include "src/futures/timeout.h"

namespace fractos {

// --- channels ------------------------------------------------------------------------------------

Channel& PeerLinks::connect(ControllerAddr peer) {
  FRACTOS_CHECK(!peers_.contains(peer));  // System wires each Controller pair once; not input
  auto chan = std::make_unique<Channel>(host_->net_, host_->config_.endpoint);
  chan->set_handler([this, peer](Envelope&& env) { host_->on_peer_msg(peer, std::move(env)); });
  chan->set_severed_handler([this, peer]() { host_->on_peer_severed(peer); });
  return *peers_.emplace(peer, std::move(chan)).first->second;
}

void PeerLinks::drop(ControllerAddr peer) {
  peers_.erase(peer);
  on_severed(peer);
}

Channel* PeerLinks::live(ControllerAddr peer) {
  if (host_->failed_) {
    return nullptr;
  }
  auto it = peers_.find(peer);
  Channel* chan = it != peers_.end() ? it->second.get()
                  : connector_ != nullptr ? connector_(peer)
                                          : nullptr;
  return chan == nullptr || chan->severed() ? nullptr : chan;
}

void PeerLinks::send(ControllerAddr peer, const Envelope& env) {
  if (Channel* chan = live(peer)) {
    chan->send(Traffic::kControl, env);
  }
}

size_t PeerLinks::broadcast(const Payload& body) {
  size_t sent = 0;
  for (auto& [peer, chan] : peers_) {
    if (!chan->severed()) {
      chan->send_encoded(Traffic::kControl, with_seq(body, host_->next_seq_++));
      ++sent;
    }
  }
  return sent;
}

void PeerLinks::sever_all() {
  for (auto& [peer, chan] : peers_) {
    chan->sever();
  }
}

void PeerLinks::reset() {
  peers_.clear();
  batches_.clear();
  completed_.clear();
  completed_fifo_.clear();
}

// --- ops this Controller issues --------------------------------------------------------------------

Future<Result<PeerReplyMsg>> PeerLinks::call(ControllerAddr peer, uint64_t op_id, Envelope env) {
  Promise<Result<PeerReplyMsg>> promise;
  Future<Result<PeerReplyMsg>> inner = promise.future();
  Channel* chan = live(peer);
  if (chan == nullptr) {
    promise.set(ErrorCode::kChannelClosed);
    return inner;
  }
  EventLoop* loop = host_->net_->loop();
  uint64_t span = 0;
  if (span_tracing_active() && loop->span_tracer() != nullptr) {
    static const NameId kPeerOp = intern_name("peer-op");
    span = loop->span_tracer()->begin(host_->name_id_, SpanKind::kController, kPeerOp,
                                      loop->now());
  }
  pending_.emplace(op_id, PendingOp{std::move(promise), peer, span});
  const ControllerPolicy& policy = host_->config_;
  const bool lossy = host_->net_->lossy();
  if (env.type == MsgType::kRemoteDerive && policy.peer_op_batch_max > 0) {
    PendingBatch& batch = batches_[peer];
    batch.ops.push_back(std::get<RemoteDeriveMsg>(std::move(env.body)));
    if (batch.ops.size() >= policy.peer_op_batch_max) {
      flush(peer);
    } else if (!batch.flush_scheduled) {
      batch.flush_scheduled = true;
      loop->schedule_after(policy.peer_op_batch_delay, [this, peer]() { flush(peer); });
    }
  } else {
    Payload frame = encode_envelope(env);
    chan->send_encoded(Traffic::kControl, frame);
    if (lossy) {
      schedule_resend(peer, {op_id}, std::move(frame), 1);
    }
  }
  if (!lossy) {
    // Clean fabric: the reply always arrives, or the peer's sever completes the op, so no
    // timer is armed.
    return inner;
  }
  Future<Result<PeerReplyMsg>> bounded =
      with_timeout(*loop, policy.peer_op_deadline, std::move(inner));
  // Scheduled after with_timeout's own deadline event (same instant, later sequence number):
  // the consumer sees kTimeout first, so dropping the promise here is a guarded no-op.
  loop->schedule_after(policy.peer_op_deadline, [this, op_id]() { forget(op_id); });
  return bounded;
}

void PeerLinks::flush(ControllerAddr peer) {
  auto bit = batches_.find(peer);
  if (bit == batches_.end()) {
    return;
  }
  std::vector<RemoteDeriveMsg> ops = std::move(bit->second.ops);
  batches_.erase(bit);
  // Members whose op already completed (severed peer, deadline) have been answered.
  std::erase_if(ops, [this](const RemoteDeriveMsg& op) { return !pending_.contains(op.op_id); });
  Channel* chan = ops.empty() ? nullptr : live(peer);
  if (chan == nullptr) {
    return;
  }
  if (MetricsRegistry* m = host_->net_->loop()->metrics()) {
    m->observe(host_->batch_occupancy_key_, ops.size());
  }
  const Envelope env = make_envelope(host_->next_seq_++, RemoteDeriveBatchMsg{std::move(ops)});
  Payload frame = encode_envelope(env);
  chan->send_encoded(Traffic::kControl, frame);
  if (host_->net_->lossy()) {
    const auto& sent = std::get<RemoteDeriveBatchMsg>(env.body).ops;
    std::vector<uint64_t> op_ids(sent.size());
    std::transform(sent.begin(), sent.end(), op_ids.begin(),
                   [](const RemoteDeriveMsg& op) { return op.op_id; });
    schedule_resend(peer, std::move(op_ids), std::move(frame), 1);
  }
}

void PeerLinks::schedule_resend(ControllerAddr peer, std::vector<uint64_t> op_ids, Payload frame,
                                uint32_t attempt) {
  if (attempt > kRetryBudget) {
    return;
  }
  const Duration delay = kRto * static_cast<double>(uint64_t{1} << std::min(attempt - 1, 16u));
  host_->net_->loop()->schedule_after(delay, [this, peer, op_ids = std::move(op_ids),
                                              frame = std::move(frame), attempt]() mutable {
    // The whole frame goes again while any op in it is pending (fail_all empties the table
    // when the host fails); the receiver answers the completed ones from its cache.
    if (std::none_of(op_ids.begin(), op_ids.end(),
                     [this](uint64_t op_id) { return pending_.contains(op_id); })) {
      return;
    }
    ++host_->stats_.peer_retries;
    if (Channel* chan = live(peer)) {
      chan->send_encoded(Traffic::kControl, frame);
    }
    schedule_resend(peer, std::move(op_ids), std::move(frame), attempt + 1);
  });
}

Promise<Result<PeerReplyMsg>> PeerLinks::retire(PendingTable::iterator it, const char* error) {
  PendingOp op = std::move(it->second);
  pending_.erase(it);
  SpanTracer* t = op.span != 0 ? host_->net_->loop()->span_tracer() : nullptr;
  if (t != nullptr && error != nullptr) {
    t->end_error(op.span, host_->net_->loop()->now(), error);
  } else if (t != nullptr) {
    t->end(op.span, host_->net_->loop()->now());
  }
  return std::move(op.promise);
}

void PeerLinks::forget(uint64_t op_id) {
  auto it = pending_.find(op_id);
  if (it != pending_.end()) {
    ++host_->stats_.peer_op_timeouts;
    retire(it, "timeout");
  }
}

void PeerLinks::on_reply(ControllerAddr from, const PeerReplyMsg& m) {
  auto it = pending_.find(m.op_id);
  if (it == pending_.end()) {
    // First reply won, the deadline fired, or the host failed: resend duplicates and
    // post-timeout stragglers land here.
    ++host_->stats_.late_replies_ignored;
    return;
  }
  if (it->second.peer != from) {
    ++host_->stats_.rejected_msgs;
    return;
  }
  retire(it, nullptr).set(Result<PeerReplyMsg>(m));
}

void PeerLinks::on_severed(ControllerAddr peer) { fail_ops(peer, ErrorCode::kChannelClosed); }

void PeerLinks::fail_all(ErrorCode status) {
  fail_ops(std::nullopt, status);
  batches_.clear();
}

void PeerLinks::fail_ops(std::optional<ControllerAddr> peer, ErrorCode status) {
  // Collect first: completing a promise runs its continuation, which may start new ops.
  std::vector<uint64_t> ops;
  for (const auto& [op_id, op] : pending_) {
    if (!peer.has_value() || op.peer == *peer) {
      ops.push_back(op_id);
    }
  }
  for (uint64_t op_id : ops) {
    auto it = pending_.find(op_id);
    if (it != pending_.end()) {
      retire(it, "channel-closed").set(status);
    }
  }
}

// --- ops peers issue to this Controller ---------------------------------------------------------

const PeerReplyMsg* PeerLinks::find_completed(ControllerAddr origin, uint64_t op_id) {
  if (!host_->net_->lossy()) {
    return nullptr;
  }
  auto it = completed_.find(completed_key(origin, op_id));
  if (it == completed_.end()) {
    return nullptr;
  }
  ++host_->stats_.peer_dedup_hits;
  return &it->second;
}

void PeerLinks::remember(ControllerAddr origin, const PeerReplyMsg& reply) {
  if (!host_->net_->lossy()) {
    return;  // duplicates are impossible on a clean fabric
  }
  // TTL eviction on simulated time: once an entry outlives peer_op_dedup_ttl (well above
  // peer_op_deadline), no resend of its op can still arrive. The size cap is the backstop.
  const Time now = host_->net_->loop()->now();
  while (!completed_fifo_.empty() &&
         now.ns() - completed_fifo_.front().second.ns() >= host_->config_.peer_op_dedup_ttl.ns()) {
    completed_.erase(completed_fifo_.front().first);
    completed_fifo_.pop_front();
  }
  const uint64_t key = completed_key(origin, reply.op_id);
  if (completed_.emplace(key, reply).second) {
    completed_fifo_.push_back({key, now});
    if (completed_fifo_.size() > kCompletedCacheCap) {
      completed_.erase(completed_fifo_.front().first);
      completed_fifo_.pop_front();
    }
  }
}

}  // namespace fractos
