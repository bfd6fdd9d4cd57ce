#include "src/fabric/queue_pair.h"

#include <algorithm>
#include <utility>

#include "src/base/assert.h"
#include "src/sim/metrics.h"

namespace fractos {

namespace {

// Wire size charged for a standalone RC acknowledgment (header-only packet).
constexpr size_t kAckBytes = 16;

// Interned once; every bump afterwards is a slot-indexed add with no string in sight.
struct QpNames {
  NameId dropped = intern_name("qp.dropped");
  NameId retransmits = intern_name("qp.retransmits");
  NameId duplicates_suppressed = intern_name("qp.duplicates_suppressed");
  NameId acks_sent = intern_name("qp.acks_sent");
};

const QpNames& qp_names() {
  static const QpNames n;
  return n;
}

void bump(Network* net, NameId key, int64_t delta = 1) {
  if (MetricsRegistry* m = net->loop()->metrics()) {
    m->add(key, delta);
  }
}

}  // namespace

QueuePair::QueuePair(Network* net, Endpoint local) : net_(net), local_(local) {
  FRACTOS_CHECK(net != nullptr);  // the owner's wiring, not input
}

QueuePair::~QueuePair() { anchor_.clear(); }

void QueuePair::connect(QueuePair& a, QueuePair& b) {
  FRACTOS_CHECK(!a.connected() && !b.connected());  // wiring (System, RpcClient); not input
  a.peer_.emplace(b.anchor_);
  a.peer_ep_ = b.local_;
  b.peer_.emplace(a.anchor_);
  b.peer_ep_ = a.local_;
}

Endpoint QueuePair::remote() const {
  FRACTOS_CHECK(connected());  // asked only of a connected end; not input
  return peer_ep_;
}

void QueuePair::send(Traffic category, Payload payload) {
  FRACTOS_CHECK(connected());  // owners connect before they send; not input
  if (severed_) {
    note_dropped(1);
    return;
  }
  if (!reliable()) {
    // Clean fabric or datagram service: one transfer, no protocol state. The dropped
    // callback only fires for sends eaten by node failure. Both callbacks are one anchor
    // wide, so the send allocates nothing.
    net_->send(local_, peer_ep_, category, std::move(payload),
               [peer = *peer_](Payload bytes) {
                 if (QueuePair* qp = peer.get()) {
                   qp->deliver(std::move(bytes));
                 }
               },
               [self = anchor_]() {
                 if (QueuePair* qp = self.get()) {
                   qp->note_dropped(1);
                 }
               });
    return;
  }

  const uint64_t seq = tx_seq_++;
  Pending& p = unacked_[seq];
  p.category = category;
  p.payload = std::move(payload);
  transmit(seq);
}

void QueuePair::transmit(uint64_t seq) {
  auto it = unacked_.find(seq);
  FRACTOS_CHECK(it != unacked_.end());  // every caller names a seq it just found or inserted
  Pending& p = it->second;
  ++p.attempts;
  p.last_tx = net_->loop()->now();
  if (p.attempts > 1) {
    ++retransmits_;
    bump(net_, qp_names().retransmits);
  }

  // `p.payload` is copied per transmission — a refcount bump, not a byte copy, so a burst of
  // retransmits of a 256 KiB frame costs nothing beyond the modeled wire time.
  net_->send(local_, peer_ep_, p.category, p.payload,
             [peer = *peer_, seq](Payload bytes) {
               if (QueuePair* qp = peer.get()) {
                 qp->on_wire_data(seq, std::move(bytes));
               }
             });
  arm_retransmit(seq, p.attempts);
}

void QueuePair::arm_retransmit(uint64_t seq, uint32_t attempt) {
  // Exponential backoff, capped at 64x so a long outage retries at a steady cadence instead
  // of overshooting the budget horizon.
  const Duration delay = rto_ * static_cast<double>(uint64_t{1} << std::min(attempt - 1, 6u));
  net_->loop()->schedule_after(delay, [self = anchor_, seq, attempt]() {
    QueuePair* qp = self.get();
    if (qp == nullptr || qp->severed_) {
      return;
    }
    auto it = qp->unacked_.find(seq);
    if (it == qp->unacked_.end() || it->second.attempts != attempt) {
      return;  // ACKed meanwhile, or a newer timer owns this seq.
    }
    // Only head retries count toward the budget (RoCE retry_cnt: consecutive retries of the
    // head WQE, reset on any ACK progress). A trailing entry is waiting out head-of-line
    // recovery; severing on its attempt count would kill a healthy pair under a burst.
    if (it == qp->unacked_.begin() && ++qp->consecutive_head_retries_ >= qp->retry_budget_) {
      // RoCE RC retry_cnt exhaustion: the connection moves to the error state, and the local
      // queue learns of it first, as an RC NIC reports it as an error completion.
      qp->net_->note_rc_exhausted();
      qp->tear_down(/*peer_knows=*/false);
      return;
    }
    qp->transmit(seq);
  });
}

void QueuePair::on_wire_data(uint64_t seq, Payload payload) {
  if (severed_) {
    return;
  }
  if (seq == rx_next_) {
    ++rx_next_;
    send_ack(rx_next_);
    deliver(std::move(payload));
    return;
  }
  // Duplicate (already delivered) or out-of-order future message: an RC responder drops
  // both and re-ACKs its cumulative position so the sender can converge.
  if (seq < rx_next_) {
    ++duplicates_suppressed_;
    bump(net_, qp_names().duplicates_suppressed);
  }
  send_ack(rx_next_);
}

void QueuePair::send_ack(uint64_t cumulative) {
  if (!connected()) {
    return;
  }
  ++acks_sent_;
  bump(net_, qp_names().acks_sent);
  // One shared ACK frame for the lifetime of the program: every ACK aliases the same rep.
  static const Payload kAckFrame = Payload::zeros(kAckBytes);
  net_->send(local_, peer_ep_, Traffic::kControl, kAckFrame,
             [peer = *peer_, cumulative](Payload) {
               if (QueuePair* qp = peer.get()) {
                 qp->on_ack(cumulative);
               }
             });
}

void QueuePair::on_ack(uint64_t cumulative) {
  if (severed_) {
    return;
  }
  const size_t before = unacked_.size();
  unacked_.erase(unacked_.begin(), unacked_.lower_bound(cumulative));
  if (unacked_.size() == before) {
    return;
  }
  consecutive_head_retries_ = 0;
  // Go-back-N resume: progress exposes a new head whose own timer may be parked at the
  // backoff cap. Retransmitting it now lets a recovering window drain at RTT pace instead
  // of one entry per capped backoff. The quiet-period check keeps the steady state (head
  // ACKed while the next entry's first copy is still in flight) from double-sending.
  if (!unacked_.empty()) {
    auto head = unacked_.begin();
    if (net_->loop()->now() - head->second.last_tx >= rto_) {
      transmit(head->first);
    }
  }
}

void QueuePair::deliver(Payload payload) {
  if (severed_) {
    return;
  }
  // Not reachable from the peer: every owner (Channel, RpcServer::accept, RpcClient) installs
  // its receive handler before the end is connected, so nothing can arrive without one.
  FRACTOS_CHECK_MSG(on_receive_ != nullptr, "QueuePair received with no handler");
  on_receive_(std::move(payload));
}

void QueuePair::note_dropped(int64_t n) {
  dropped_ += static_cast<uint64_t>(n);
  bump(net_, qp_names().dropped, n);
}

void QueuePair::sever() { tear_down(/*peer_knows=*/false); }

void QueuePair::tear_down(bool peer_knows) {
  if (severed_) {
    return;
  }
  severed_ = true;
  // Everything still unACKed is lost.
  note_dropped(static_cast<int64_t>(unacked_.size()));
  unacked_.clear();
  if (on_severed_ != nullptr) {
    on_severed_();
  }
  const QueuePair* peer = connected() ? peer_->get() : nullptr;  // null once destroyed
  if (!peer_knows && peer != nullptr && !peer->severed_) {
    // The transport detects the broken connection one propagation delay later.
    const Duration delay = net_->wire_latency(local_, peer_ep_);
    net_->loop()->schedule_after(delay, [peer = *peer_]() {
      if (QueuePair* qp = peer.get()) {
        qp->tear_down(/*peer_knows=*/true);
      }
    });
  }
}

}  // namespace fractos
