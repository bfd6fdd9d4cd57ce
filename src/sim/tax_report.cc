#include "src/sim/tax_report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

#include "src/base/assert.h"

namespace fractos {

const char* tax_bucket_name(TaxBucket b) {
  switch (b) {
    case TaxBucket::kFabric:
      return "fabric";
    case TaxBucket::kController:
      return "controller";
    case TaxBucket::kTranslation:
      return "translation";
    case TaxBucket::kQueue:
      return "queue";
    case TaxBucket::kDevice:
      return "device";
    case TaxBucket::kOther:
      return "other";
    case TaxBucket::kFabricQueue:
      return "fabric.queue";
    case TaxBucket::kReplication:
      return "replication";
    case TaxBucket::kFarMem:
      return "farmem";
  }
  return "?";
}

TaxBucket tax_bucket_of(SpanKind kind) {
  switch (kind) {
    case SpanKind::kFabric:
      return TaxBucket::kFabric;
    case SpanKind::kController:
      return TaxBucket::kController;
    case SpanKind::kTranslation:
      return TaxBucket::kTranslation;
    case SpanKind::kQueue:
      return TaxBucket::kQueue;
    case SpanKind::kFabricQueue:
      return TaxBucket::kFabricQueue;
    case SpanKind::kReplication:
      return TaxBucket::kReplication;
    case SpanKind::kFarMem:
      return TaxBucket::kFarMem;
    case SpanKind::kDevice:
      return TaxBucket::kDevice;
    case SpanKind::kRequest:
    case SpanKind::kSyscall:
    case SpanKind::kService:
      return TaxBucket::kOther;
  }
  return TaxBucket::kOther;
}

TaxBreakdown fold_tax(const SpanTracer& tracer, uint64_t trace_id) {
  const std::vector<const Span*> spans = tracer.trace(trace_id);
  TaxBreakdown out;
  const Span* root = nullptr;
  for (const Span* s : spans) {
    if (s->span_id == trace_id) {
      root = s;
      break;
    }
  }
  if (root == nullptr || spans.empty()) {
    return out;
  }
  const int64_t lo = root->t_start.ns();
  const int64_t hi = root->t_end.ns();
  out.total_ns = hi - lo;
  if (out.total_ns <= 0) {
    return out;
  }

  // Clip every span to the root interval; open spans extend to the root's end. Depth is the
  // distance to the root along the parent chain, resolved by memoized chain walks.
  std::unordered_map<uint64_t, const Span*> by_id;
  by_id.reserve(spans.size());
  for (const Span* s : spans) {
    by_id.emplace(s->span_id, s);
  }
  std::unordered_map<uint64_t, int> depth;
  depth.reserve(spans.size());
  const auto depth_of = [&](const Span* s) {
    int walked = 0;
    const Span* cur = s;
    // Walk up until a memoized ancestor, the root, or a parent outside this trace's span set
    // (treated as depth 0, matching the old behavior for unknown parents).
    int base = 0;
    for (;;) {
      const auto memo = depth.find(cur->span_id);
      if (memo != depth.end()) {
        base = memo->second;
        break;
      }
      if (cur->parent == 0) {
        break;
      }
      const auto pit = by_id.find(cur->parent);
      if (pit == by_id.end()) {
        ++walked;  // unknown parent counts as one hop above an (absent) depth-0 ancestor
        break;
      }
      cur = pit->second;
      ++walked;
    }
    const int d = base + walked;
    depth[s->span_id] = d;
    return d;
  };

  struct Clipped {
    int64_t lo;
    int64_t hi;
    int depth;
    uint64_t span_id;
    TaxBucket bucket;
  };
  std::vector<Clipped> clipped;
  clipped.reserve(spans.size());
  for (const Span* s : spans) {
    const int d = depth_of(s);
    const int64_t a = std::max(s->t_start.ns(), lo);
    const int64_t b = std::min(s->open ? hi : s->t_end.ns(), hi);
    if (a < b) {
      clipped.push_back(Clipped{a, b, d, s->span_id, tax_bucket_of(s->kind)});
    }
  }

  // Elementary-interval sweep: between consecutive boundaries the covering set is constant,
  // and the deepest covering span (ties -> later span id) owns the slice.
  std::vector<int64_t> bounds;
  bounds.reserve(clipped.size() * 2);
  for (const Clipped& c : clipped) {
    bounds.push_back(c.lo);
    bounds.push_back(c.hi);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    const int64_t a = bounds[i];
    const int64_t b = bounds[i + 1];
    const Clipped* best = nullptr;
    for (const Clipped& c : clipped) {
      if (c.lo <= a && c.hi >= b) {
        if (best == nullptr || c.depth > best->depth ||
            (c.depth == best->depth && c.span_id > best->span_id)) {
          best = &c;
        }
      }
    }
    FRACTOS_DCHECK(best != nullptr);  // the root covers everything
    out.ns[static_cast<size_t>(best->bucket)] += b - a;
  }
  return out;
}

std::string tax_table(const std::vector<std::pair<std::string, TaxBreakdown>>& rows) {
  std::string out;
  char buf[64];
  size_t label_w = 5;
  for (const auto& [label, bd] : rows) {
    label_w = std::max(label_w, label.size());
  }
  std::snprintf(buf, sizeof(buf), "%-*s", static_cast<int>(label_w), "label");
  out += buf;
  for (size_t b = 0; b < kNumTaxBuckets; ++b) {
    std::snprintf(buf, sizeof(buf), " %12s", tax_bucket_name(static_cast<TaxBucket>(b)));
    out += buf;
  }
  out += "        total\n";
  for (const auto& [label, bd] : rows) {
    std::snprintf(buf, sizeof(buf), "%-*s", static_cast<int>(label_w), label.c_str());
    out += buf;
    for (size_t b = 0; b < kNumTaxBuckets; ++b) {
      std::snprintf(buf, sizeof(buf), " %9.3f us", static_cast<double>(bd.ns[b]) / 1e3);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), " %9.3f us\n", static_cast<double>(bd.total_ns) / 1e3);
    out += buf;
  }
  return out;
}

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
}

void append_us(std::string& out, int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000, ns % 1000);
  out += buf;
}

}  // namespace

std::string chrome_trace_json(const SpanTracer& tracer) {
  std::string out = "{\"traceEvents\":[";
  char buf[64];
  bool first = true;
  for (const Span& s : tracer.spans()) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "\n{\"name\":";
    append_json_string(out, s.name());
    out += ",\"cat\":\"";
    out += span_kind_name(s.kind);
    out += "\",\"ph\":\"X\",\"ts\":";
    append_us(out, s.t_start.ns());
    out += ",\"dur\":";
    append_us(out, (s.t_end - s.t_start).ns());
    std::snprintf(buf, sizeof(buf), ",\"pid\":%" PRIu64 ",\"tid\":", s.trace_id);
    out += buf;
    append_json_string(out, s.actor());
    out += ",\"args\":{";
    std::snprintf(buf, sizeof(buf), "\"span_id\":%" PRIu64 ",\"parent\":%" PRIu64, s.span_id,
                  s.parent);
    out += buf;
    if (s.error) {
      out += ",\"error\":";
      append_json_string(out, s.error_what);
    }
    for (const auto& [k, v] : s.attrs) {
      out += ',';
      append_json_string(out, k);
      out += ':';
      append_json_string(out, v);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace fractos
