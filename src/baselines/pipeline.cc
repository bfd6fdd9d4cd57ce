#include "src/baselines/pipeline.h"

#include <utility>

#include "src/base/assert.h"

namespace fractos {

const char* pipeline_mode_name(PipelineMode mode) {
  switch (mode) {
    case PipelineMode::kStar: return "star";
    case PipelineMode::kFastStar: return "fast-star";
    case PipelineMode::kChain: return "chain";
  }
  return "unknown";
}

PipelineStage::PipelineStage(System* sys, uint32_t node, Controller& controller,
                             uint64_t buffer_bytes, Duration stage_cost)
    : sys_(sys), buffer_bytes_(buffer_bytes), stage_cost_(stage_cost) {
  proc_ = &sys->spawn("stage", node, controller, buffer_bytes + (1 << 20));
  buffer_addr_ = proc_->alloc(buffer_bytes);
  buffer_cap_ =
      sys->await_ok(proc_->memory_create(buffer_addr_, buffer_bytes, Perms::kReadWrite));
  process_ep_ = sys->await_ok(proc_->serve({}, [this](Process::Received r) {
    handle(std::move(r));
  }));
}

void PipelineStage::handle(Process::Received r) {
  ++invocations_;
  SizeImms args;
  const uint64_t size = get_imms(r, args) ? args.size : 0;
  CapId dst = kInvalidCap;
  CapId cont = kInvalidCap;
  for (const auto& c : r.caps) {
    if (c.kind == ObjectKind::kMemory && dst == kInvalidCap) {
      dst = c.cid;
    } else if (c.kind == ObjectKind::kRequest && cont == kInvalidCap) {
      cont = c.cid;
    }
  }
  if (dst == kInvalidCap || cont == kInvalidCap || size == 0 || size > buffer_bytes_) {
    return;
  }
  // The stage transformation: +1 on every byte (content-verifiable end to end).
  auto data = proc_->read_mem(buffer_addr_, size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(b + 1);
  }
  proc_->write_mem(buffer_addr_, data);

  proc_->compute(stage_cost_).on_ready([this, dst, cont, size](Unit&&) {
    proc_->memory_copy(buffer_cap_, dst, size).on_ready([this, cont](Status cs) {
      if (!cs.ok()) {
        return;
      }
      proc_->request_invoke(cont);
    });
  });
}

PipelineRunner::PipelineRunner(System* sys, uint32_t client_node, Controller& controller,
                               std::vector<PipelineStage*> stages, uint64_t payload_bytes,
                               PipelineMode mode)
    : sys_(sys), stages_(std::move(stages)), payload_bytes_(payload_bytes), mode_(mode) {
  FRACTOS_CHECK(!stages_.empty());
  client_ = &sys->spawn("pipeline-client", client_node, controller,
                        2 * payload_bytes + (1 << 20));
  in_addr_ = client_->alloc(payload_bytes);
  out_addr_ = client_->alloc(payload_bytes);
  in_cap_ = sys->await_ok(client_->memory_create(in_addr_, payload_bytes, Perms::kReadWrite));
  out_cap_ = sys->await_ok(client_->memory_create(out_addr_, payload_bytes, Perms::kReadWrite));
  for (PipelineStage* s : stages_) {
    stage_eps_.push_back(sys->bootstrap_grant(s->process(), s->process_ep(), *client_).value());
    stage_buffers_.push_back(
        sys->bootstrap_grant(s->process(), s->buffer_cap(), *client_).value());
  }

  if (mode_ == PipelineMode::kChain) {
    // Client reply endpoint the LAST stage will invoke.
    chain_reply_ = sys->await_ok(client_->serve({}, [this](Process::Received) {
      if (on_chain_reply_) {
        auto cb = std::move(on_chain_reply_);
        on_chain_reply_ = nullptr;
        cb();
      }
    }));
    // Derive the chain back to front: stage i's Request carries [next input buffer / client
    // output buffer, next derived Request / client reply].
    CapId next_req = chain_reply_;
    for (size_t i = stages_.size(); i-- > 0;) {
      const CapId dst = i + 1 < stages_.size() ? stage_buffers_[i + 1] : out_cap_;
      chain_head_ = sys->await_ok(client_->request_derive(
          stage_eps_[i],
          imm_args(SizeImms{payload_bytes_}).cap(dst).cap(next_req)));
      next_req = chain_head_;
    }
  }
}

Status PipelineRunner::verify_output() {
  const auto out = client_->read_mem(out_addr_, payload_bytes_);
  const uint8_t expect0 = static_cast<uint8_t>(iteration_seed_ + stages_.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const uint8_t expected = static_cast<uint8_t>(expect0 + (i & 0x3f));
    if (out[i] != expected) {
      return ErrorCode::kInternal;
    }
  }
  return ok_status();
}

Future<Status> PipelineRunner::invoke_stage(size_t i, CapId dst) {
  // The stage invokes its continuation verbatim: the one-shot reply Request's delivery is the
  // stage's completion.
  return client_->call(stage_eps_[i], imm_args(SizeImms{payload_bytes_}).cap(dst))
      .then([](Result<Process::Received>&& r) {
        return r.ok() ? ok_status() : Status(r.error());
      });
}

Future<Status> PipelineRunner::run_once() {
  // Fresh input pattern per iteration so verification cannot pass by staleness.
  ++iteration_seed_;
  std::vector<uint8_t> input(payload_bytes_);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<uint8_t>(iteration_seed_ + (i & 0x3f));
  }
  client_->write_mem(in_addr_, input);
  client_->write_mem(out_addr_, std::vector<uint8_t>(payload_bytes_, 0));

  auto done = std::make_shared<Promise<Status>>();
  switch (mode_) {
    case PipelineMode::kStar:
      run_star(done);
      break;
    case PipelineMode::kFastStar:
      run_fast_star(done);
      break;
    case PipelineMode::kChain:
      run_chain(done);
      break;
  }
  return done->future();
}

void PipelineRunner::run_star(std::shared_ptr<Promise<Status>> done) {
  // The client mediates every hop: copy in, invoke, result comes back to the client.
  auto step = std::make_shared<std::function<void(size_t, CapId)>>();
  *step = [this, done, weak_step = std::weak_ptr<std::function<void(size_t, CapId)>>(step)](
              size_t i, CapId src) {
    auto step = weak_step.lock();
    if (!step) {
      return;
    }
    if (i == stages_.size()) {
      // Result is already in out_cap_ (the last stage wrote it there).
      done->set(verify_output());
      return;
    }
    client_->memory_copy(src, stage_buffers_[i], payload_bytes_)
        .on_ready([this, done, step, i](Status cs) {
          if (!cs.ok()) {
            done->set(cs);
            return;
          }
          invoke_stage(i, out_cap_).on_ready([this, done, step, i](Status s) {
            if (!s.ok()) {
              done->set(s);
              return;
            }
            (*step)(i + 1, out_cap_);
          });
        });
  };
  (*step)(0, in_cap_);
}

void PipelineRunner::run_fast_star(std::shared_ptr<Promise<Status>> done) {
  // Centralized control, direct data: stage i writes straight into stage i+1's buffer.
  client_->memory_copy(in_cap_, stage_buffers_[0], payload_bytes_)
      .on_ready([this, done](Status cs) {
        if (!cs.ok()) {
          done->set(cs);
          return;
        }
        auto step = std::make_shared<std::function<void(size_t)>>();
        *step = [this, done,
                 weak_step = std::weak_ptr<std::function<void(size_t)>>(step)](size_t i) {
          auto step = weak_step.lock();
          if (!step) {
            return;
          }
          if (i == stages_.size()) {
            done->set(verify_output());
            return;
          }
          const CapId dst = i + 1 < stages_.size() ? stage_buffers_[i + 1] : out_cap_;
          invoke_stage(i, dst).on_ready([this, done, step, i](Status s) {
            if (!s.ok()) {
              done->set(s);
              return;
            }
            (*step)(i + 1);
          });
        };
        (*step)(0);
      });
}

void PipelineRunner::run_chain(std::shared_ptr<Promise<Status>> done) {
  // Fully distributed: one invoke, the continuation chain does the rest.
  on_chain_reply_ = [this, done]() { done->set(verify_output()); };
  client_->memory_copy(in_cap_, stage_buffers_[0], payload_bytes_)
      .on_ready([this, done](Status cs) {
        if (!cs.ok()) {
          done->set(cs);
          return;
        }
        client_->request_invoke(chain_head_).on_ready([done](Status s) {
          if (!s.ok()) {
            done->set(s);
          }
        });
      });
}

}  // namespace fractos
