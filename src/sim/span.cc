#include "src/sim/span.h"

#include <cinttypes>
#include <cstdio>

#include "src/base/assert.h"

namespace fractos {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kSyscall:
      return "syscall";
    case SpanKind::kController:
      return "controller";
    case SpanKind::kTranslation:
      return "translation";
    case SpanKind::kFabric:
      return "fabric";
    case SpanKind::kQueue:
      return "queue";
    case SpanKind::kDevice:
      return "device";
    case SpanKind::kService:
      return "service";
    case SpanKind::kFabricQueue:
      return "fabric-queue";
    case SpanKind::kReplication:
      return "replication";
    case SpanKind::kFarMem:
      return "farmem";
  }
  return "?";
}

uint64_t SpanTracer::start_trace(NameId actor, NameId name, Time now) {
  Span s;
  s.span_id = spans_.size() + 1;
  s.trace_id = s.span_id;
  s.parent = 0;
  s.actor_id = actor;
  s.kind = SpanKind::kRequest;
  s.name_id = name;
  s.t_start = now;
  s.t_end = now;
  s.open = true;
  spans_.push_back(std::move(s));
  ++open_;
  return spans_.back().span_id;
}

uint64_t SpanTracer::begin(NameId actor, SpanKind kind, NameId name, Time now) {
  const SpanContext ctx = ambient_span_context();
  if (!ctx.valid()) {
    return 0;
  }
  Span s;
  s.span_id = spans_.size() + 1;
  s.trace_id = ctx.trace_id;
  s.parent = ctx.span_id;
  s.actor_id = actor;
  s.kind = kind;
  s.name_id = name;
  s.t_start = now;
  s.t_end = now;
  s.open = true;
  spans_.push_back(std::move(s));
  ++open_;
  return spans_.back().span_id;
}

uint64_t SpanTracer::record(NameId actor, SpanKind kind, NameId name, Time t_start,
                            Time t_end) {
  const SpanContext ctx = ambient_span_context();
  if (!ctx.valid()) {
    return 0;
  }
  FRACTOS_DCHECK(t_end >= t_start);
  Span s;
  s.span_id = spans_.size() + 1;
  s.trace_id = ctx.trace_id;
  s.parent = ctx.span_id;
  s.actor_id = actor;
  s.kind = kind;
  s.name_id = name;
  s.t_start = t_start;
  s.t_end = t_end;
  s.open = false;
  spans_.push_back(std::move(s));
  bubble_end(ctx.span_id, t_end);
  return spans_.back().span_id;
}

void SpanTracer::bubble_end(uint64_t parent_id, Time end) {
  // The chain ends at a trace root, whose parent is 0.
  while (contains(parent_id)) {
    Span& s = spans_[parent_id - 1];
    if (s.open) {
      if (end > s.max_child_end) {
        s.max_child_end = end;
      }
      return;
    }
    if (s.t_end >= end) {
      return;
    }
    s.t_end = end;
    parent_id = s.parent;
  }
}

void SpanTracer::end(uint64_t span_id, Time now) {
  if (!contains(span_id)) {
    return;
  }
  Span& s = spans_[span_id - 1];
  if (!s.open) {
    return;
  }
  s.open = false;
  --open_;
  s.t_end = max(now, s.max_child_end);
  if (s.t_end < s.t_start) {
    s.t_end = s.t_start;
  }
  bubble_end(s.parent, s.t_end);
}

void SpanTracer::end_error(uint64_t span_id, Time now, std::string_view what) {
  if (!contains(span_id)) {
    return;
  }
  end(span_id, now);
  Span& s = spans_[span_id - 1];
  s.error = true;
  s.error_what = what;
}

void SpanTracer::attr(uint64_t span_id, std::string_view key, std::string_view value) {
  if (!contains(span_id)) {
    return;
  }
  spans_[span_id - 1].attrs.emplace_back(key, value);
}

SpanContext SpanTracer::context_of(uint64_t span_id) const {
  if (!contains(span_id)) {
    return SpanContext{};
  }
  const Span& s = spans_[span_id - 1];
  return SpanContext{s.trace_id, s.span_id};
}

const Span* SpanTracer::find(uint64_t span_id) const {
  if (!contains(span_id)) {
    return nullptr;
  }
  return &spans_[span_id - 1];
}

std::vector<const Span*> SpanTracer::trace(uint64_t trace_id) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (s.trace_id == trace_id) {
      out.push_back(&s);
    }
  }
  return out;
}

std::string SpanTracer::serialize() const {
  std::string out;
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "span id=%" PRIu64 " trace=%" PRIu64 " parent=%" PRIu64
                  " actor=%s kind=%s name=%s start=%" PRId64 " end=%" PRId64 " status=",
                  s.span_id, s.trace_id, s.parent, s.actor().c_str(), span_kind_name(s.kind),
                  s.name().c_str(), s.t_start.ns(), s.t_end.ns());
    out += buf;
    if (s.open) {
      out += "open";
    } else if (s.error) {
      out += "error:";
      out += s.error_what;
    } else {
      out += "ok";
    }
    for (const auto& [k, v] : s.attrs) {
      out += ' ';
      out += k;
      out += '=';
      out += v;
    }
    out += '\n';
  }
  return out;
}

}  // namespace fractos
