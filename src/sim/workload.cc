#include "src/sim/workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/base/assert.h"
#include "src/sim/metrics.h"

namespace fractos {

double ArrivalSpec::mean_rate_rps() const {
  switch (kind) {
    case Kind::kPoisson:
      return rate_rps;
    case Kind::kOnOff:
      return rate_rps * (on / (on + off));
    case Kind::kDiurnal:
      return rate_rps;  // the sinusoid integrates to zero over each period
  }
  return rate_rps;
}

ArrivalSchedule::ArrivalSchedule(ArrivalSpec spec, uint64_t seed)
    : spec_(spec), rng_(seed) {
  FRACTOS_CHECK(spec_.rate_rps > 0.0);
  if (spec_.kind == ArrivalSpec::Kind::kOnOff) {
    FRACTOS_CHECK(spec_.on > Duration::zero() && spec_.off >= Duration::zero());
  }
  if (spec_.kind == ArrivalSpec::Kind::kDiurnal) {
    FRACTOS_CHECK(spec_.depth >= 0.0 && spec_.depth < 1.0);
    FRACTOS_CHECK(spec_.period > Duration::zero());
  }
}

int64_t ArrivalSchedule::exp_gap_ns(double rate_rps) {
  // Inverse-CDF: gap = -ln(1 - u) / rate, u uniform in [0, 1). log1p keeps precision for
  // small u and never sees log(0).
  const double u = rng_.next_double();
  const double gap_s = -std::log1p(-u) / rate_rps;
  const int64_t ns = static_cast<int64_t>(gap_s * 1e9 + 0.5);
  return ns < 1 ? 1 : ns;
}

Duration ArrivalSchedule::next() {
  switch (spec_.kind) {
    case ArrivalSpec::Kind::kPoisson: {
      wall_ns_ += exp_gap_ns(spec_.rate_rps);
      return Duration::nanos(wall_ns_);
    }
    case ArrivalSpec::Kind::kOnOff: {
      // Draw the process in "busy time" (Poisson at the burst rate over concatenated on
      // windows), then splice the off windows back in: busy time b lands in cycle b / on at
      // offset b % on. Integer arithmetic, so the duty-cycle identity is exact.
      busy_ns_ += exp_gap_ns(spec_.rate_rps);
      const int64_t on_ns = spec_.on.ns();
      const int64_t cycle_ns = on_ns + spec_.off.ns();
      const int64_t cycles = busy_ns_ / on_ns;
      const int64_t within = busy_ns_ % on_ns;
      return Duration::nanos(cycles * cycle_ns + within);
    }
    case ArrivalSpec::Kind::kDiurnal: {
      // Thinning (Lewis & Shedler): candidates at the peak rate, each kept with probability
      // lambda(t) / lambda_max. Every candidate consumes exactly two rng draws whether kept
      // or not, so the stream stays deterministic under any acceptance pattern.
      const double lambda_max = spec_.rate_rps * (1.0 + spec_.depth);
      const double period_s = spec_.period.to_seconds();
      for (;;) {
        wall_ns_ += exp_gap_ns(lambda_max);
        const double t_s = static_cast<double>(wall_ns_) / 1e9;
        const double lambda =
            spec_.rate_rps * (1.0 + spec_.depth * std::sin(6.283185307179586 * t_s / period_s));
        if (rng_.next_double() * lambda_max < lambda) {
          return Duration::nanos(wall_ns_);
        }
      }
    }
  }
  FRACTOS_CHECK(false);
  return Duration::zero();
}

OpenLoopEngine::OpenLoopEngine(EventLoop* loop, Duration horizon)
    : loop_(loop),
      horizon_(horizon),
      publisher_(loop, [this](MetricSink& out) {
        for (const Tenant& t : tenants_) {
          const std::string tp = "tenant." + t.spec.name + ".";
          out.emit(tp + "offered", t.slo.offered);
          out.emit(tp + "issued", t.slo.issued);
          out.emit(tp + "completed", t.slo.completed);
          out.emit(tp + "failed", t.slo.failed);
          out.emit(tp + "shed", t.slo.shed);
          out.emit(tp + "shed_client", t.slo.shed_client);
          out.emit(tp + "deferrals", t.slo.deferrals);
          out.emit(tp + "ecn_marks", t.slo.ecn_marks);
        }
      }) {
  FRACTOS_CHECK(horizon > Duration::zero());
  actor_id_ = intern_name("openloop");
}

size_t OpenLoopEngine::add_tenant(TenantSpec spec, IssueFn issue) {
  FRACTOS_CHECK(!running_);
  FRACTOS_CHECK(issue != nullptr);
  FRACTOS_CHECK(!spec.name.empty());
  if (spec.ecn_backpressure) {
    FRACTOS_CHECK(spec.ecn_cut > 0.0 && spec.ecn_cut < 1.0);
    FRACTOS_CHECK(spec.ecn_recover > 0.0);
    FRACTOS_CHECK(spec.ecn_min_scale > 0.0 && spec.ecn_min_scale <= 1.0);
    FRACTOS_CHECK(spec.ecn_epoch > Duration::zero());
  }
  Tenant t(std::move(spec), std::move(issue));
  t.name_id = intern_name(t.spec.name);
  t.latency_key = intern_name("tenant." + t.spec.name + ".latency_ns");
  tenants_.push_back(std::move(t));
  return tenants_.size() - 1;
}

void OpenLoopEngine::on_ecn_mark(uint32_t src_node, uint32_t dst_node) {
  const Time now = loop_->now();
  for (Tenant& t : tenants_) {
    if (!t.spec.ecn_backpressure) {
      continue;
    }
    bool touches = false;
    for (uint32_t n : t.spec.nodes) {
      if (n == src_node || n == dst_node) {
        touches = true;
        break;
      }
    }
    if (!touches) {
      continue;
    }
    ++t.slo.ecn_marks;
    // Multiplicative decrease, at most once per epoch: a congested switch emits a mark per
    // queued message, and reacting to every one would slam the scale to the floor on the
    // first burst.
    if (now - t.last_cut >= t.spec.ecn_epoch) {
      t.scale = std::max(t.spec.ecn_min_scale, t.scale * (1.0 - t.spec.ecn_cut));
      t.last_cut = now;
    }
    t.last_signal = now;  // any mark restarts the mark-free recovery clock
  }
}

void OpenLoopEngine::recover(Tenant& t, Time now) {
  if (t.scale >= 1.0) {
    t.last_signal = now;
    return;
  }
  const int64_t epoch_ns = t.spec.ecn_epoch.ns();
  const int64_t k = (now - t.last_signal).ns() / epoch_ns;
  if (k > 0) {
    t.scale = std::min(1.0, t.scale + t.spec.ecn_recover * static_cast<double>(k));
    t.last_signal = t.last_signal + Duration::nanos(k * epoch_ns);
  }
}

Duration OpenLoopEngine::pacing_gap(const Tenant& t) const {
  return Duration::seconds(1.0 / (t.spec.arrivals.mean_rate_rps() * t.scale));
}

void OpenLoopEngine::schedule_next_arrival(size_t i) {
  Tenant& t = tenants_[i];
  const Duration offset = t.schedule.next();
  if (offset > horizon_) {
    t.done_generating = true;
    return;
  }
  const Time at = start_ + offset;
  loop_->schedule_at(at, [this, i, at]() {
    handle_arrival(i, at);
    schedule_next_arrival(i);
  });
}

void OpenLoopEngine::handle_arrival(size_t i, Time scheduled) {
  Tenant& t = tenants_[i];
  ++t.slo.offered;
  if (t.spec.ecn_backpressure) {
    const Time now = loop_->now();
    recover(t, now);
    if (t.scale < 1.0) {
      const Time admit_at = max(now, t.next_admit);
      t.next_admit = admit_at + pacing_gap(t);
      if (admit_at > now) {
        if (t.deferred >= t.spec.defer_limit) {
          // The pacing backlog is full: shed here, before the request touches the system.
          ++t.slo.shed_client;
          return;
        }
        ++t.deferred;
        ++deferred_total_;
        ++t.slo.deferrals;
        loop_->schedule_at(admit_at, [this, i, scheduled]() {
          --tenants_[i].deferred;
          --deferred_total_;
          issue_request(i, scheduled);
        });
        return;
      }
    }
  }
  issue_request(i, scheduled);
}

void OpenLoopEngine::issue_request(size_t i, Time scheduled) {
  Tenant& t = tenants_[i];
  ++t.slo.issued;
  ++t.outstanding;
  ++outstanding_total_;
  uint64_t span_id = 0;
  SpanTracer* st = loop_->span_tracer();
  if (st != nullptr && span_tracing_active()) {
    span_id = st->start_trace(actor_id_, t.name_id, loop_->now());
  }
  DoneFn done = [this, i, scheduled, span_id](Status s) { complete(i, scheduled, span_id, s); };
  if (span_id != 0) {
    // The request's whole continuation chain inherits this trace root through the event
    // loop's ambient-context capture.
    SpanScope scope(st->context_of(span_id));
    t.issue(std::move(done));
  } else {
    t.issue(std::move(done));
  }
}

void OpenLoopEngine::complete(size_t i, Time scheduled, uint64_t span_id, Status s) {
  Tenant& t = tenants_[i];
  FRACTOS_CHECK(t.outstanding > 0);
  --t.outstanding;
  --outstanding_total_;
  const Time now = loop_->now();
  const Duration lat = now - scheduled;
  if (s.ok()) {
    ++t.slo.completed;
    t.slo.latency_us.add(lat);
    if (MetricsRegistry* mr = loop_->metrics()) {
      mr->observe(t.latency_key, static_cast<uint64_t>(lat.ns()));
    }
  } else if (s.error() == ErrorCode::kOverloaded) {
    ++t.slo.shed;
    t.slo.shed_latency_us.add(lat);
  } else {
    ++t.slo.failed;
  }
  if (span_id != 0) {
    if (SpanTracer* st = loop_->span_tracer()) {
      if (s.ok()) {
        st->end(span_id, now);
      } else {
        st->end_error(span_id, now, error_code_name(s.error()));
      }
    }
  }
}

void OpenLoopEngine::run() {
  FRACTOS_CHECK(!running_);
  running_ = true;
  start_ = loop_->now();
  for (size_t i = 0; i < tenants_.size(); ++i) {
    schedule_next_arrival(i);
  }
  const bool done = loop_->run_until([this]() {
    if (outstanding_total_ != 0 || deferred_total_ != 0) {
      return false;
    }
    for (const Tenant& t : tenants_) {
      if (!t.done_generating) {
        return false;
      }
    }
    return true;
  });
  FRACTOS_CHECK_MSG(done, "open-loop run: event loop drained with requests still in flight");
  for (Tenant& t : tenants_) {
    FRACTOS_CHECK_MSG(t.slo.offered == t.slo.accounted(),
                      "open-loop SLO accounting leak (a done callback was dropped or doubled)");
    t.slo.goodput_rps = static_cast<double>(t.slo.completed) / horizon_.to_seconds();
  }
}

}  // namespace fractos
