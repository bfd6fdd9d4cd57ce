// A Controller's peer-op layer: its channels to the peer Controllers, the ops it has in
// flight to them, and the replies it has already given them (DESIGN.md §4c).
//
// Each Controller owns exactly one PeerLinks. It is one object for all peers, not one per
// channel: an eager mesh of n Controllers has n * (n - 1) peer channels, and per-channel
// containers would cost memory on every one of them.
//
// On a lossy fabric an op is also resent with exponential backoff and bounded by
// peer_op_deadline, and the receiver answers a resent op from its completed-op cache; on a
// clean fabric none of that runs.

#ifndef SRC_CORE_PEER_LINKS_H_
#define SRC_CORE_PEER_LINKS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/channel.h"
#include "src/futures/future.h"
#include "src/wire/message.h"

namespace fractos {

class Controller;

class PeerLinks {
 public:
  // Lazy meshing (SystemConfig::lazy_controller_mesh): resolves a first send toward an
  // unconnected peer by performing the two-sided connect, or returns nullptr for a dead or
  // unknown peer. It costs no simulated time.
  using Connector = std::function<Channel*(ControllerAddr)>;

  // Bound on the completed-op reply cache; entries older than peer_op_dedup_ttl go first.
  static constexpr size_t kCompletedCacheCap = 4096;
  // Resends start at kRto and double, at most kRetryBudget times, until peer_op_deadline.
  static constexpr Duration kRto = Duration::micros(150);
  static constexpr uint32_t kRetryBudget = 3;

  explicit PeerLinks(Controller* host) : host_(host) {}
  // Timers and channel handlers hold its address.
  PeerLinks(const PeerLinks&) = delete;
  PeerLinks& operator=(const PeerLinks&) = delete;

  // --- channels ---

  // Creates the channel toward `peer`; the caller connects it to the peer's side.
  Channel& connect(ControllerAddr peer);
  // Forgets the channel to `peer` (so a restarted peer can be re-meshed); the ops in flight
  // on it complete with kChannelClosed.
  void drop(ControllerAddr peer);
  void set_connector(Connector fn) { connector_ = std::move(fn); }
  // The unsevered channel to `peer`, connecting lazily; nullptr when there is none or the
  // host has failed.
  Channel* live(ControllerAddr peer);
  // Sends `env` to `peer`, or drops it when the peer is unreachable.
  void send(ControllerAddr peer, const Envelope& env);
  // Sends the encoded `body` to every unsevered peer, each under its own seq; returns how
  // many peers it went to.
  size_t broadcast(const Payload& body);
  void sever_all();

  // --- ops this Controller issues ---

  // Sends `env` to `peer` as op `op_id` and returns a future for the peer's reply; completes
  // at once with kChannelClosed when the peer is unreachable. A RemoteDerive is queued into
  // the peer's batch instead when peer_op_batch_max > 0, and flushed as one
  // kRemoteDeriveBatch frame when the batch is full or after peer_op_batch_delay.
  Future<Result<PeerReplyMsg>> call(ControllerAddr peer, uint64_t op_id, Envelope env);
  Future<Result<PeerReplyMsg>> call_derive(ControllerAddr peer, RemoteDeriveMsg rd) {
    const uint64_t op_id = rd.op_id;
    return call(peer, op_id, make_envelope(op_id, std::move(rd)));
  }
  // A reply is honoured only from the peer its op went to; one from any other peer is
  // dropped and counted in ControllerStats::rejected_msgs.
  void on_reply(ControllerAddr from, const PeerReplyMsg& m);
  // Every op in flight to `peer` completes with kChannelClosed.
  void on_severed(ControllerAddr peer);
  // Every op in flight completes with `status`, and the unflushed batches are dropped.
  void fail_all(ErrorCode status);

  // --- ops peers issue to this Controller (lossy fabric only) ---

  // The reply already given to `origin`'s op `op_id`, counted as a dedup hit; nullptr when
  // the op has not completed here.
  const PeerReplyMsg* find_completed(ControllerAddr origin, uint64_t op_id);
  // Records `reply` as the answer to `origin`'s op reply.op_id.
  void remember(ControllerAddr origin, const PeerReplyMsg& reply);
  size_t completed_size() const { return completed_.size(); }

  // Restart: forgets every channel, batch and completed op.
  void reset();

 private:
  struct PendingOp {
    Promise<Result<PeerReplyMsg>> promise;
    ControllerAddr peer = 0;
    uint64_t span = 0;  // open "peer-op" span, 0 when untraced
  };
  using PendingTable = std::unordered_map<uint64_t, PendingOp>;
  struct PendingBatch {
    std::vector<RemoteDeriveMsg> ops;
    bool flush_scheduled = false;
  };

  void flush(ControllerAddr peer);
  // Resends `frame` (one op's, or a batch's) with backoff while any of `op_ids` is pending.
  void schedule_resend(ControllerAddr peer, std::vector<uint64_t> op_ids, Payload frame,
                       uint32_t attempt);
  // At the op's deadline (its with_timeout has already delivered kTimeout).
  void forget(uint64_t op_id);
  // Removes the op from the table and closes its span (`error` set marks it failed).
  Promise<Result<PeerReplyMsg>> retire(PendingTable::iterator it, const char* error);
  // Completes the ops in flight to `peer` (to every peer when nullopt) with `status`.
  void fail_ops(std::optional<ControllerAddr> peer, ErrorCode status);
  static uint64_t completed_key(ControllerAddr origin, uint64_t op_id) {
    return (static_cast<uint64_t>(origin) << 48) ^ op_id;
  }

  Controller* host_;
  std::unordered_map<ControllerAddr, std::unique_ptr<Channel>> peers_;
  Connector connector_;
  // One record per op in flight, keyed by op id. Its iteration order is the order ops
  // complete in on a sever or a failure.
  PendingTable pending_;
  std::unordered_map<ControllerAddr, PendingBatch> batches_;
  // The FIFO carries insertion times for the TTL eviction, oldest first.
  std::unordered_map<uint64_t, PeerReplyMsg> completed_;
  std::deque<std::pair<uint64_t, Time>> completed_fifo_;
};

}  // namespace fractos

#endif  // SRC_CORE_PEER_LINKS_H_
