// Envelope-typed message channel: a QueuePair that encodes/decodes FractOS protocol
// envelopes. Used both for Process<->Controller request/response queues and for
// Controller<->Controller links.

#ifndef SRC_CORE_CHANNEL_H_
#define SRC_CORE_CHANNEL_H_

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "src/fabric/queue_pair.h"
#include "src/wire/message.h"

namespace fractos {

class Channel {
 public:
  // Takes the decoded envelope by rvalue reference: the handler moves what it keeps, and
  // nothing between the decoder and the handler copies it.
  using Handler = std::function<void(Envelope&&)>;
  using SeveredHandler = std::function<void()>;

  Channel(Network* net, Endpoint local) : qp_(net, local) {
    qp_.set_receive_handler([this](Payload bytes) { on_bytes(bytes.bytes()); });
  }

  static void connect(Channel& a, Channel& b) { QueuePair::connect(a.qp_, b.qp_); }

  Endpoint local() const { return qp_.local(); }
  Endpoint remote() const { return qp_.remote(); }
  bool severed() const { return qp_.severed(); }

  void set_handler(Handler handler) { handler_ = std::move(handler); }
  void set_severed_handler(SeveredHandler handler) {
    qp_.set_severed_handler(std::move(handler));
  }

  void send(Traffic category, const Envelope& env) {
    send_encoded(category, encode_envelope(env));
  }

  // Pre-encoded variant: a frame encoded once with encode_envelope() (one block) can be sent
  // again and again — controller peer-op resends re-send the same refcounted frame.
  void send_encoded(Traffic category, Payload frame) { qp_.send(category, std::move(frame)); }

  void sever() { qp_.sever(); }

  // Transport-level controls and counters, exposed for reliability tuning and assertions.
  QueuePair& queue_pair() { return qp_; }
  const QueuePair& queue_pair() const { return qp_; }

  uint64_t malformed_dropped() const { return malformed_dropped_; }

  // Test hook: feeds raw bytes to the receive path as if they arrived on the wire (the
  // Process API always encodes, so hostile raw frames can only be injected this way).
  void inject_raw_for_test(const std::vector<uint8_t>& bytes) { on_bytes(bytes); }

 private:
  void on_bytes(std::span<const uint8_t> bytes) {
    Result<Envelope> env = decode_envelope(bytes);
    if (!env.ok()) {
      // Bytes on a channel come from an UNTRUSTED Process (or a peer with a bug): a trusted
      // Controller must never abort on malformed input — drop it and count it.
      ++malformed_dropped_;
      return;
    }
    if (handler_ != nullptr) {
      handler_(std::move(env.value()));
    }
  }

  QueuePair qp_;
  Handler handler_;
  uint64_t malformed_dropped_ = 0;
};

}  // namespace fractos

#endif  // SRC_CORE_CHANNEL_H_
