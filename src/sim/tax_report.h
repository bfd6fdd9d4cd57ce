// Disaggregation-tax attribution: folds one trace's span forest into per-request latency
// buckets (the paper's Figures 8-10 attribute each request's latency to fabric hops,
// controller work, and device time — this reproduces that breakdown from our own spans).
//
// Attribution is an interval sweep over the root span's [t_start, t_end): at every instant
// the *deepest* covering span wins (ties break toward the later-created span), and its kind
// maps to a bucket. Because every instant of the root interval is assigned to exactly one
// bucket, the per-bucket sums add up to the end-to-end latency by construction — the bench
// asserts this for every request.

#ifndef SRC_SIM_TAX_REPORT_H_
#define SRC_SIM_TAX_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/span.h"

namespace fractos {

enum class TaxBucket : uint8_t {
  kFabric = 0,       // wire transfers
  kController = 1,   // controller handler compute
  kTranslation = 2,  // capability serialization / request translation
  kQueue = 3,        // waiting on busy cores, device channels, slot pools
  kDevice = 4,       // device service time
  kOther = 5,        // everything else (process-side logic, protocol gaps)
  kFabricQueue = 6,  // per-hop head-of-line wait in switch egress queues (congestion)
  kReplication = 7,  // control-plane replication (commit waits, elections)
  kFarMem = 8,       // far-memory fault handling (demand fetch / prefetch-wait turnaround)
};
inline constexpr size_t kNumTaxBuckets = 9;

const char* tax_bucket_name(TaxBucket b);
TaxBucket tax_bucket_of(SpanKind kind);

struct TaxBreakdown {
  int64_t ns[kNumTaxBuckets] = {};
  int64_t total_ns = 0;  // root span duration

  int64_t sum_ns() const {
    int64_t s = 0;
    for (size_t i = 0; i < kNumTaxBuckets; ++i) {
      s += ns[i];
    }
    return s;
  }
  TaxBreakdown& operator+=(const TaxBreakdown& o) {
    for (size_t i = 0; i < kNumTaxBuckets; ++i) {
      ns[i] += o.ns[i];
    }
    total_ns += o.total_ns;
    return *this;
  }
};

// Attributes trace `trace_id`'s root interval across buckets. Open spans are treated as
// extending to the root's end. Returns a zero breakdown if the trace does not exist.
TaxBreakdown fold_tax(const SpanTracer& tracer, uint64_t trace_id);

// Renders labeled breakdowns as an aligned text table (one row per label, microseconds).
std::string tax_table(const std::vector<std::pair<std::string, TaxBreakdown>>& rows);

// Serializes every span as Chrome trace_event JSON ("ph":"X" complete events; ts/dur in
// microseconds; pid = trace id, tid = actor) — loadable in chrome://tracing / Perfetto.
std::string chrome_trace_json(const SpanTracer& tracer);

}  // namespace fractos

#endif  // SRC_SIM_TAX_REPORT_H_
