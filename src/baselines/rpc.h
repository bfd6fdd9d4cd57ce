// One request/reply RPC per call: the transport of the paper's CPU-centric baselines (NFS,
// NVMe-oF and rCUDA; Sections 6.3-6.5). The round trip it models is the network tax those
// stacks pay per call, so it exists once, under all three protocols.
//
// Frames, one QueuePair message each:
//   request  [op u8][seq u64][args]
//   reply    [reply-op u8][seq u64][status u8][u32 n][n payload bytes]
// `args` is the op's FRACTOS_WIRE_FIELDS struct, declared once and used by both ends. `status`
// is an ErrorCode (kOk = 0), decoded strictly against enum_last. A protocol picks its op
// numbers and its reply-op byte; the layer picks nothing else.
//
// Frames come from the wire, so none of them can abort the simulator:
//   * a request whose op has no handler, or that does not decode to exactly its args, is
//     dropped unanswered;
//   * a reply that does not decode completely, or whose seq nothing is waiting for, is
//     dropped;
//   * when the connection severs, from either end or by retry exhaustion, every pending call
//     fails with kChannelClosed, in seq order. Calls on a severed connection fail at once.

#ifndef SRC_BASELINES_RPC_H_
#define SRC_BASELINES_RPC_H_

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "src/fabric/queue_pair.h"
#include "src/futures/future.h"
#include "src/sim/exec_context.h"
#include "src/wire/buffer.h"

namespace fractos {

// The fixed fields that open every request and reply frame.
struct RpcRequestHeader {
  uint8_t op = 0;
  uint64_t seq = 0;
  FRACTOS_WIRE_FIELDS(op, seq)
};
struct RpcReplyHeader {
  uint8_t op = 0;
  uint64_t seq = 0;
  ErrorCode status = ErrorCode::kOk;
  FRACTOS_WIRE_FIELDS(op, seq, status)
};

// The server end: one QueuePair per client, and one handler per op.
class RpcServer {
 public:
  // The answer to one request. Send it once.
  class Reply {
   public:
    Reply(QueuePair* qp, uint8_t op, uint64_t seq) : qp_(qp), op_(op), seq_(seq) {}

    // Sends the reply frame, with `payload` as its byte string.
    void send(Traffic category, ErrorCode status, std::span<const uint8_t> payload = {}) const;
    // A reply with no payload, on the control class.
    void status(ErrorCode code) const { send(Traffic::kControl, code); }
    // kOk with `value`, in its wire layout, as the payload, on the control class.
    template <typename T>
    void ok(const T& value) const {
      Encoder e;
      e.put(value);
      send(Traffic::kControl, ErrorCode::kOk, e.data());
    }

   private:
    QueuePair* qp_;
    uint8_t op_;
    uint64_t seq_;
  };

  RpcServer(Network* net, Endpoint local, uint8_t reply_op)
      : net_(net), local_(local), reply_op_(reply_op) {}

  // Serves `op`: `handler(Args&&, Reply)` runs for each request whose bytes after the header
  // decode to exactly one Args.
  template <typename Args, typename F>
  void on(uint8_t op, F handler) {
    if (handlers_.size() <= op) {
      handlers_.resize(op + 1u);
    }
    handlers_[op] = [handler = std::move(handler)](Decoder& d, Reply reply) mutable {
      Args args;
      d.get(args);
      if (d.done()) {
        handler(std::move(args), reply);
      }
    };
  }

  // Opens the server's end of a new connection; the client connects its own end to it.
  QueuePair& accept();

  uint8_t reply_op() const { return reply_op_; }

 private:
  void on_request(QueuePair* qp, const Payload& frame);

  Network* net_;
  Endpoint local_;
  uint8_t reply_op_;
  std::vector<std::function<void(Decoder&, Reply)>> handlers_;  // by op
  std::vector<std::unique_ptr<QueuePair>> connections_;
};

// The client end: seq assignment, the pending calls, and reply matching.
class RpcClient {
 public:
  // With `issue_cpu`, each call first spends `issue_cost` there (client-side interposition,
  // as rCUDA's), then goes on the wire; without it, a call is sent at once.
  RpcClient(Network* net, Endpoint local, RpcServer& server, ExecContext* issue_cpu = nullptr,
            Duration issue_cost = Duration());

  // Sends `op` with `args` on `category` and resolves with the reply as a `Reply`:
  //   * void: the status alone (a Status);
  //   * Payload or std::vector<uint8_t>: the payload's bytes;
  //   * anything else: the value the payload decodes to exactly (kInternal if it does not).
  template <typename Reply = void, typename Args>
  auto call(uint8_t op, const Args& args, Traffic category) {
    const uint64_t seq = next_seq_++;
    Encoder e;
    e.put(RpcRequestHeader{op, seq});
    e.put(args);
    Future<Result<Payload>> reply = issue(seq, category, e.take());
    if constexpr (std::is_void_v<Reply>) {
      return reply.then([](Result<Payload>&& r) -> Status { return r.error(); });
    } else if constexpr (std::is_same_v<Reply, Payload>) {
      return reply;
    } else if constexpr (std::is_same_v<Reply, std::vector<uint8_t>>) {
      return reply.and_then([](Payload&& p) { return p.to_vector(); });
    } else {
      return reply.and_then([](Payload&& p) -> Result<Reply> {
        Decoder d(p.bytes());
        Reply v{};
        d.get(v);
        if (!d.done()) {
          return ErrorCode::kInternal;
        }
        return v;
      });
    }
  }

  uint64_t calls_issued() const { return next_seq_ - 1; }

 private:
  Future<Result<Payload>> issue(uint64_t seq, Traffic category, Payload frame);
  void on_reply(const Payload& frame);

  QueuePair qp_;
  uint8_t reply_op_;
  ExecContext* issue_cpu_;
  Duration issue_cost_;
  uint64_t next_seq_ = 1;
  std::map<uint64_t, Promise<Result<Payload>>> pending_;  // by seq
};

}  // namespace fractos

#endif  // SRC_BASELINES_RPC_H_
