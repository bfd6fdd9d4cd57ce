// Reliable-connected queue pair: the bidirectional, ordered message channel FractOS uses
// between a Process and its Controller and between Controllers ("Processes are decoupled from
// their Controller via an RoCE queue pair, as well as Controllers between themselves",
// Section 4 of the paper).
//
// A QueuePair is one local end; connect() wires two ends together. sever() models a broken
// channel (process death, node failure). The sever contract: an end runs its owner's severed
// handler exactly once, whatever severed it — its owner's sever(), its own retry exhaustion,
// or the peer's sever, which reaches it one propagation delay later. That handler is exactly
// the event FractOS's failure-translation machinery consumes ("A Process failure is detected
// by the owner Controller when their channel is severed", Section 3.6).
//
// Reliability: on a clean fabric the wire itself never loses messages, so a send is one
// Network::send and nothing more. When a FaultInjector that can lose/duplicate/reorder
// messages is installed (Network::lossy()), kReliable pairs switch on RC semantics modeled
// after RoCE RC: every message carries a sequence number, the receiver delivers strictly
// in order (duplicates and out-of-order arrivals are dropped and re-ACKed), and the sender
// retransmits unACKed messages with exponential backoff. Exhausting the retry budget severs
// the pair — RoCE RC retry_cnt behavior. kDatagram pairs (heartbeats) stay fire-and-forget
// even on a lossy fabric, matching UD semantics.

#ifndef SRC_FABRIC_QUEUE_PAIR_H_
#define SRC_FABRIC_QUEUE_PAIR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "src/fabric/network.h"

namespace fractos {

class QueuePair {
 public:
  using ReceiveHandler = std::function<void(Payload)>;
  using SeveredHandler = std::function<void()>;

  // kReliable = RC service (retransmit on a lossy fabric); kDatagram = UD service (lossy
  // fabric may silently eat messages — what heartbeats want, so monitor false positives are
  // possible and detectable).
  enum class Mode : uint8_t {
    kReliable = 0,
    kDatagram = 1,
  };

  QueuePair(Network* net, Endpoint local);
  ~QueuePair();
  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  // Wires `a` and `b` as the two ends of one connection. Each end must be unconnected.
  static void connect(QueuePair& a, QueuePair& b);

  Endpoint local() const { return local_; }
  Endpoint remote() const;
  bool connected() const { return peer_.has_value(); }
  bool severed() const { return severed_; }

  void set_receive_handler(ReceiveHandler handler) { on_receive_ = std::move(handler); }
  void set_severed_handler(SeveredHandler handler) { on_severed_ = std::move(handler); }

  void set_mode(Mode mode) { mode_ = mode; }
  Mode mode() const { return mode_; }

  // RC retransmission knobs (effective only when the fabric is lossy).
  void set_retry_policy(Duration rto, uint32_t retry_budget) {
    rto_ = rto;
    retry_budget_ = retry_budget;
  }

  // Sends `payload` to the peer; its receive handler runs after the modeled latency.
  // Sends on a severed pair are dropped and counted in dropped(). The payload is a
  // refcounted handle: RC retransmissions re-send the same rep without copying bytes.
  void send(Traffic category, Payload payload);

  // Tears the connection down from this side: this end's severed handler runs now, the
  // peer's after one propagation delay (the transport detecting the broken connection).
  // Unacknowledged in-flight messages are counted as dropped. Idempotent.
  void sever();

  // --- reliability counters (first-class outputs; all zero on a clean fabric) ---
  uint64_t dropped() const { return dropped_; }                 // sends that never arrived
  uint64_t retransmits() const { return retransmits_; }         // RC retries issued
  uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  uint64_t acks_sent() const { return acks_sent_; }
  size_t unacked() const { return unacked_.size(); }

 private:
  struct Pending {
    Traffic category = Traffic::kControl;
    Payload payload;
    uint32_t attempts = 0;
    Time last_tx;  // when this entry last hit the wire (drives go-back-N resume)
  };

  bool reliable() const { return mode_ == Mode::kReliable && net_->lossy(); }
  void transmit(uint64_t seq);
  void arm_retransmit(uint64_t seq, uint32_t attempt);
  void on_wire_data(uint64_t seq, Payload payload);
  void send_ack(uint64_t cumulative);
  void on_ack(uint64_t cumulative);
  void deliver(Payload payload);
  void note_dropped(int64_t n);
  // The one teardown, whatever severed the pair: drops the unACKed window, runs the owner's
  // handler once, and tells the peer unless it already knows.
  void tear_down(bool peer_knows);

  // What every callback the pair parks in the event loop (deliveries, ACKs, retransmit
  // timers, sever propagation) holds instead of `this`: a counted cell that ~QueuePair
  // clears. Controller::restart() destroys channels mid-simulation, and a callback firing
  // into a destroyed pair must be a no-op, not a use-after-free. One pointer wide, so a
  // message's callbacks fit Network::DeliverFn inline.
  class Anchor {
   public:
    explicit Anchor(QueuePair* qp) : cell_(new Cell{qp, 1}) {}
    Anchor(const Anchor& other) : cell_(other.cell_) { ++cell_->refs; }
    Anchor(Anchor&& other) noexcept : cell_(other.cell_) { other.cell_ = nullptr; }
    Anchor& operator=(const Anchor&) = delete;
    Anchor& operator=(Anchor&&) = delete;
    ~Anchor() {
      if (cell_ != nullptr && --cell_->refs == 0) {
        delete cell_;
      }
    }
    // The pair, or nullptr once it is destroyed.
    QueuePair* get() const { return cell_->qp; }
    void clear() { cell_->qp = nullptr; }

   private:
    struct Cell {
      QueuePair* qp;
      size_t refs;
    };
    Cell* cell_;
  };

  Network* net_;
  Endpoint local_;
  // The other end, by anchor: Controller::restart destroys ends whose peers live on.
  std::optional<Anchor> peer_;
  Endpoint peer_ep_;
  ReceiveHandler on_receive_;
  SeveredHandler on_severed_;
  bool severed_ = false;
  Mode mode_ = Mode::kReliable;

  // RC state. tx_seq_ numbers outgoing messages; rx_next_ is the next in-order sequence the
  // receive side will accept; unacked_ holds sent-but-unACKed messages for retransmission.
  uint64_t tx_seq_ = 0;
  uint64_t rx_next_ = 0;
  // RoCE retry_cnt: consecutive retransmissions of the *head* of the unacked window with no
  // cumulative-ACK progress in between. Trailing entries retransmit on their own timers but
  // never count toward the budget — they are blocked behind head-of-line recovery, which is
  // not evidence of a dead link. Reset on every ACK advance.
  uint32_t consecutive_head_retries_ = 0;
  std::map<uint64_t, Pending> unacked_;
  Duration rto_ = Duration::micros(30);
  uint32_t retry_budget_ = 12;

  uint64_t dropped_ = 0;
  uint64_t retransmits_ = 0;
  uint64_t duplicates_suppressed_ = 0;
  uint64_t acks_sent_ = 0;

  Anchor anchor_{this};
};

}  // namespace fractos

#endif  // SRC_FABRIC_QUEUE_PAIR_H_
