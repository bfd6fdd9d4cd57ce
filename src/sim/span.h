// Structured span tracing for the simulated cluster.
//
// The simulator's one tracer. A SpanTracer records a *forest* of spans — {trace_id, span_id,
// parent, actor, kind, t_start, t_end, attrs} — so tools can attribute every nanosecond of a
// request to fabric hops, controller compute, translation, queueing, or device time (the
// paper's Figure-8-style disaggregation-tax breakdown; see src/sim/tax_report.h). Counters
// live in the other observability layer, MetricsRegistry (src/sim/metrics.h).
//
// Context propagation is ambient: the single-threaded event loop makes a global
// (trace_id, span_id) pair safe. A SpanScope installs a context for the current stack frame;
// EventLoop captures the ambient context into every scheduled Event while a tracer is alive
// and restores it when the event fires, and Future::on_ready wraps stored continuations the
// same way — so a context set at the top of a request flows through timers, wire deliveries,
// and continuation chains without any call site threading it by hand.
//
// Zero-cost discipline: with no SpanTracer alive, every instrumentation site is one branch on
// an inline global counter; no string is built, no context is copied, and no simulated-time
// event is ever scheduled by the tracer itself. Spans are stamped with simulated time only,
// so identical seeds serialize to byte-identical traces.
//
// Actor and name strings are interned (src/sim/intern.h): a Span stores two 4-byte ids, and
// hot sites that fire per message/IO pass pre-interned NameIds so a traced run never
// constructs a std::string key on the instrumentation path. The string_view overloads intern
// on the fly for cold sites and tests; serialization resolves ids back to strings, so dumps
// are unchanged.

#ifndef SRC_SIM_SPAN_H_
#define SRC_SIM_SPAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/intern.h"
#include "src/sim/time.h"

namespace fractos {

// What a span's duration models; tax_report.cc folds kinds into attribution buckets.
enum class SpanKind : uint8_t {
  kRequest = 0,      // a whole end-to-end request (trace root)
  kSyscall = 1,      // Process-side syscall round trip (send to reply)
  kController = 2,   // Controller handler occupancy (arrival to completion)
  kTranslation = 3,  // capability serialization / request-translation compute
  kFabric = 4,       // one wire transfer (occupancy + propagation)
  kQueue = 5,        // waiting for a busy resource (core, device channel, slot pool)
  kDevice = 6,       // device service time (NVMe channel, GPU engine)
  kService = 7,      // service-level operation (FS I/O, app verify)
  kFabricQueue = 8,  // head-of-line wait in a switch egress queue (fabric congestion)
  kReplication = 9,  // control-plane replication (log commit waits, leader elections)
  kFarMem = 10,      // far-memory fault handling (demand fetch / prefetch-wait turnaround)
};

const char* span_kind_name(SpanKind kind);

struct SpanContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

namespace internal_span {
// SpanTracers alive; gates every capture site.
inline int g_active_tracers = 0;
inline SpanContext g_ambient{};
}  // namespace internal_span

// True while any SpanTracer exists. This is the one branch every instrumentation and
// context-capture site pays when tracing is off.
inline bool span_tracing_active() { return internal_span::g_active_tracers > 0; }

inline SpanContext ambient_span_context() { return internal_span::g_ambient; }

// RAII ambient-context installer. The default constructor installs the *empty* context —
// used to detach work that must not join the current trace (e.g. the trailing DeliverAck a
// Process sends after a request was already delivered).
class SpanScope {
 public:
  explicit SpanScope(SpanContext ctx) : prev_(internal_span::g_ambient) {
    internal_span::g_ambient = ctx;
  }
  SpanScope() : prev_(internal_span::g_ambient) { internal_span::g_ambient = SpanContext{}; }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { internal_span::g_ambient = prev_; }

 private:
  SpanContext prev_;
};

struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent = 0;  // 0 for trace roots
  NameId actor_id = kInvalidNameId;
  SpanKind kind = SpanKind::kRequest;
  NameId name_id = kInvalidNameId;
  const std::string& actor() const { return interned_name(actor_id); }
  const std::string& name() const { return interned_name(name_id); }
  Time t_start;
  Time t_end;
  bool open = false;
  bool error = false;
  std::string error_what;
  std::vector<std::pair<std::string, std::string>> attrs;
  // Latest end time seen among (transitive) children while this span was still open; close()
  // clamps t_end to it so a parent never closes earlier than a child (pre-closed fabric spans
  // end in the future relative to the event that records them).
  Time max_child_end;
};

// Records spans. Attach to an EventLoop with loop.set_span_tracer(&tracer); the tracer's
// lifetime (not attachment) is what switches the ambient-context machinery on.
class SpanTracer {
 public:
  SpanTracer() { ++internal_span::g_active_tracers; }
  ~SpanTracer() { --internal_span::g_active_tracers; }
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  // Opens a trace root (kind kRequest) and returns its span id, which doubles as the trace
  // id. The caller installs it with SpanScope(tracer.context_of(id)).
  uint64_t start_trace(std::string_view actor, std::string_view name, Time now) {
    return start_trace(intern_name(actor), intern_name(name), now);
  }
  uint64_t start_trace(NameId actor, NameId name, Time now);

  // Opens a child of the ambient context. Returns 0 — on which every later operation is a
  // no-op — when no trace context is ambient, so call sites need no second branch.
  uint64_t begin(std::string_view actor, SpanKind kind, std::string_view name, Time now) {
    return begin(intern_name(actor), kind, intern_name(name), now);
  }
  uint64_t begin(NameId actor, SpanKind kind, NameId name, Time now);

  // Records an already-bounded child of the ambient context (fabric transfers and device
  // service windows know both endpoints up front; t_end may lie in the simulated future).
  // Returns the span id, or 0 when no context is ambient.
  uint64_t record(std::string_view actor, SpanKind kind, std::string_view name, Time t_start,
                  Time t_end) {
    return record(intern_name(actor), kind, intern_name(name), t_start, t_end);
  }
  uint64_t record(NameId actor, SpanKind kind, NameId name, Time t_start, Time t_end);

  // Closes a span at max(now, latest child end). No-op for id 0 or an already-closed span.
  void end(uint64_t span_id, Time now);

  // Closes a span and marks it failed (e.g. "timeout", "channel-closed").
  void end_error(uint64_t span_id, Time now, std::string_view what);

  void attr(uint64_t span_id, std::string_view key, std::string_view value);

  SpanContext context_of(uint64_t span_id) const;

  const std::vector<Span>& spans() const { return spans_; }
  const Span* find(uint64_t span_id) const;
  size_t open_spans() const { return open_; }
  // True iff `span_id` indexes a span of this tracer. Several tracers may be alive at once
  // (each numbers its spans from 1), so an id handed to the wrong tracer can be out of range.
  bool contains(uint64_t span_id) const { return span_id > 0 && span_id <= spans_.size(); }

  // All spans of one trace, in span-id (creation) order.
  std::vector<const Span*> trace(uint64_t trace_id) const;

  // Deterministic line-per-span dump (creation order, integer nanoseconds): identical seeds
  // must serialize byte-identically.
  std::string serialize() const;

 private:
  // Propagates a child's end time up the ancestor chain: open ancestors remember it (for
  // their own close), already-closed ancestors are extended so containment holds.
  void bubble_end(uint64_t parent_id, Time end);

  std::vector<Span> spans_;  // span_id is index + 1
  size_t open_ = 0;
};

}  // namespace fractos

#endif  // SRC_SIM_SPAN_H_
