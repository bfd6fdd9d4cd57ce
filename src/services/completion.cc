#include "src/services/completion.h"

#include <optional>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/base/extent.h"

namespace fractos {

IoRequest::IoRequest(const Process::Received& r) {
  if (IoRange range; get_imms(r, range)) {
    off = range.off;
    size = range.size;
  }
  for (const auto& c : r.caps) {
    if (c.kind == ObjectKind::kMemory && mem == kInvalidCap) {
      mem = c.cid;
      mem_size = c.mem_size;
    } else if (c.kind == ObjectKind::kRequest) {
      if (cont == kInvalidCap) {
        cont = c.cid;
      } else if (err == kInvalidCap) {
        err = c.cid;
      }
    }
  }
}

bool IoRequest::fits(uint64_t limit) const {
  return mem != kInvalidCap && cont != kInvalidCap && size != 0 &&
         extent_within(off, size, limit) && mem_size >= size;
}

void IoRequest::fail_op(Process& proc, ErrorCode code) const {
  if (err != kInvalidCap) {
    send_reply(proc, err, code);
  }
}

struct CompletionState {
  Process* proc = nullptr;
  CapId ok = kInvalidCap;
  CapId err = kInvalidCap;
  bool one_shot = false;  // a pair made by once(): unbound when its one use resolves
  std::optional<Promise<Status>> pending;

  void unbind() {
    proc->remove_endpoint(ok);
    proc->remove_endpoint(err);
  }
  void resolve(Status s) {
    if (!pending.has_value()) {
      return;
    }
    Promise<Status> done = std::move(*pending);
    pending.reset();
    if (one_shot) {
      unbind();
    }
    done.set(s);
  }
  Process::Handler ok_handler(const std::shared_ptr<CompletionState>& self) {
    return [self](Process::Received) { self->resolve(ok_status()); };
  }
  Process::Handler err_handler(const std::shared_ptr<CompletionState>& self) {
    return [self](Process::Received r) {
      // An error delivery never resolves ok: a zero, like an absent or unknown code, is the
      // service's fault.
      const ErrorCode code = reply_status(r);
      self->resolve(Status(code == ErrorCode::kOk ? ErrorCode::kInternal : code));
    };
  }
};

Completion Completion::serve(System* sys, Process& proc) {
  auto st = std::make_shared<CompletionState>();
  st->proc = &proc;
  st->ok = sys->await_ok(proc.serve({}, st->ok_handler(st)));
  st->err = sys->await_ok(proc.serve({}, st->err_handler(st)));
  return Completion(std::move(st));
}

Future<Result<Completion>> Completion::create(Process& proc) {
  auto ok_f = proc.request_create({});
  auto err_f = proc.request_create({});
  return when_all(std::vector<Future<Result<CapId>>>{std::move(ok_f), std::move(err_f)})
      .then([&proc](std::vector<Result<CapId>>&& eps) -> Result<Completion> {
        if (!eps[0].ok() || !eps[1].ok()) {
          return ErrorCode::kResourceExhausted;
        }
        auto st = std::make_shared<CompletionState>();
        st->proc = &proc;
        st->ok = eps[0].value();
        st->err = eps[1].value();
        proc.on_endpoint(st->ok, st->ok_handler(st));
        proc.on_endpoint(st->err, st->err_handler(st));
        return Completion(std::move(st));
      });
}

Future<Status> Completion::once(Process& proc, InvokeFn invoke) {
  Promise<Status> promise;
  create(proc).on_ready([promise, invoke = std::move(invoke)](Result<Completion>&& pair) {
    if (!pair.ok()) {
      promise.set(pair.error());
      return;
    }
    CompletionState& st = *pair.value().st_;
    st.one_shot = true;
    st.pending = promise;
    pair.value().watch(invoke(st.ok, st.err));
  });
  return promise.future();
}

CapId Completion::ok() const { return st_->ok; }

CapId Completion::err() const { return st_->err; }

Future<Status> Completion::arm() const {
  // The owner's own sequencing (one armed use per slot or op), never a delivery: input only
  // resolves a use.
  FRACTOS_CHECK_MSG(!st_->pending.has_value(), "Completion armed twice");
  st_->pending.emplace();
  return st_->pending->future();
}

void Completion::resolve(Status s) const { st_->resolve(s); }

void Completion::watch(Future<Status> invoke) const {
  invoke.on_ready([st = st_](Status s) {
    if (!s.ok()) {
      st->resolve(s);
    }
  });
}

void Completion::close() const {
  if (st_ == nullptr) {
    return;
  }
  st_->unbind();
  st_->resolve(Status(ErrorCode::kAborted));
}

Completion::Weak Completion::weak() const {
  Weak w;
  w.st_ = st_;
  return w;
}

}  // namespace fractos
