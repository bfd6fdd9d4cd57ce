// The two ends of an I/O request graph, shared by every service and app here.
//
// An I/O request (the block adaptor's read/write, the FS's fs_read/fs_write) is an IoRange
// and caps = [Memory, continuation] or [Memory, continuation, error]. On success the service
// invokes the continuation verbatim; on failure the error Request, if any, gets the status
// (send_reply). IoRequest is the service's reader of that convention and its failure reply.
//
// A Completion is the caller's end: an ok endpoint and an error endpoint, handed out as that
// continuation pair (or as the success/error pair of a GPU kernel Request). It binds both
// handlers, decodes the error status, and resolves each use exactly once.

#ifndef SRC_SERVICES_COMPLETION_H_
#define SRC_SERVICES_COMPLETION_H_

#include <functional>
#include <memory>

#include "src/core/service_call.h"
#include "src/core/system.h"

namespace fractos {

// The immediates of an I/O request: which bytes of the target it moves.
struct IoRange {
  uint64_t off = 0;
  uint64_t size = 0;
  FRACTOS_WIRE_FIELDS(off, size)
};
struct IoRequest {
  uint64_t off = ~0ull;  // absent: no range fits
  uint64_t size = 0;
  CapId mem = kInvalidCap;  // the first Memory capability
  uint64_t mem_size = 0;
  CapId cont = kInvalidCap;  // the first Request capability
  CapId err = kInvalidCap;   // the second, if any

  explicit IoRequest(const Process::Received& r);

  // True when the request names a Memory and a continuation, and moves 1..mem_size bytes
  // that lie inside [0, limit).
  bool fits(uint64_t limit) const;
  // Invokes the error continuation, if there is one, with `code` as its status.
  void fail_op(Process& proc, ErrorCode code) const;
};

struct CompletionState;

class Completion {
 public:
  Completion() = default;

  // A pair kept for its owner's lifetime and armed once per use (staging slots, app
  // slots): serves the ok endpoint, then the error endpoint, awaiting each in turn.
  static Completion serve(System* sys, Process& proc);
  // A pair for one op: creates both endpoints at once and binds them. Fails with
  // kResourceExhausted when either create fails.
  static Future<Result<Completion>> create(Process& proc);
  // One op on its own pair: creates it, arms it, passes it to `invoke` (which returns the
  // request_invoke status), and unbinds it once the op resolves.
  using InvokeFn = std::function<Future<Status>(CapId ok, CapId err)>;
  static Future<Status> once(Process& proc, InvokeFn invoke);

  CapId ok() const;
  CapId err() const;

  // Arms the pair for one use. The future resolves exactly once, with whichever comes
  // first: ok on the ok delivery; the error delivery's status (kInternal when absent, kOk or
  // unknown); the status given to resolve() or watch(); or kAborted
  // from close(). A delivery while the pair is not armed runs nothing.
  Future<Status> arm() const;
  // Resolves the armed use with `s`, if one is armed.
  void resolve(Status s) const;
  // Resolves the armed use with the invoke's status if the invoke is refused: a refused
  // Request never reaches its service, so neither endpoint will fire.
  void watch(Future<Status> invoke) const;
  // Unbinds both endpoints and resolves an armed use with kAborted. A no-op on an empty
  // Completion.
  void close() const;

  // A handle that does not keep the pair alive: for state that the pair's own armed
  // continuation holds, which would otherwise keep itself alive through the pair.
  class Weak {
   public:
    Completion lock() const { return Completion(st_.lock()); }

   private:
    friend class Completion;
    std::weak_ptr<CompletionState> st_;
  };
  Weak weak() const;

 private:
  explicit Completion(std::shared_ptr<CompletionState> st) : st_(std::move(st)) {}

  std::shared_ptr<CompletionState> st_;
};

}  // namespace fractos

#endif  // SRC_SERVICES_COMPLETION_H_
