// Open-loop multi-tenant traffic generation with SLO accounting (DESIGN.md §4i).
//
// A closed-loop driver (bench_scaleout's drive()) issues the next request only after the
// previous one completes, so under overload it slows down with the system and the knee in the
// latency-vs-load curve is invisible. The OpenLoopEngine instead draws arrival times from a
// seeded stochastic schedule and issues each request at its appointed simulated time whether
// or not earlier ones finished — offered load is an input, and queueing collapse shows up
// where it belongs: in the per-tenant p99/p99.9 and drop-rate accounting.
//
// Three layers:
//   * ArrivalSchedule — deterministic arrival-time streams (Poisson via inverse-CDF, bursty
//     on/off, diurnal-modulated via thinning), each driven by a private splitmix64 stream so
//     the same (spec, seed) yields byte-identical schedules on every platform.
//   * OpenLoopEngine — runs concurrent tenants against caller-supplied issue functions,
//     tagging each request with a per-tenant trace root and recording per-tenant SLO
//     counters and latency distributions (measured from the *scheduled* arrival, so pacing
//     delay and queueing both count against the tenant).
//   * ECN backpressure — Network::set_ecn_listener feeds switch ECN marks into
//     OpenLoopEngine::on_ecn_mark; a marked tenant's admission rate is cut multiplicatively
//     and recovers additively per mark-free epoch (DCQCN in spirit), with excess arrivals
//     deferred behind a pacing gate and shed client-side past a bounded deferral queue.
//
// Zero-cost discipline: nothing in this file is constructed by System or Controller; a run
// without an OpenLoopEngine (and without an ECN listener) executes no code from here, so all
// recorded goldens and bench numbers are unaffected.

#ifndef SRC_SIM_WORKLOAD_H_
#define SRC_SIM_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/sim/event_loop.h"
#include "src/sim/intern.h"
#include "src/sim/metrics.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fractos {

// The seed-expansion PRNG from rng.h, exposed as a stream: one independent instance per
// tenant, so adding a tenant never perturbs another tenant's arrival times.
class Splitmix64 {
 public:
  explicit Splitmix64(uint64_t seed) : x_(seed) {}

  uint64_t next() {
    x_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, 1).
  double next_double() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t x_;
};

// What a tenant's arrival process looks like. Rates are requests per second of simulated
// time.
struct ArrivalSpec {
  enum class Kind : uint8_t {
    kPoisson = 0,  // memoryless arrivals at rate_rps
    kOnOff = 1,    // Poisson at rate_rps during `on` windows, silent during `off` windows
    kDiurnal = 2,  // Poisson with rate_rps * (1 + depth * sin(2*pi*t / period))
  };

  Kind kind = Kind::kPoisson;
  double rate_rps = 1000.0;
  // On/off burst shape (kOnOff only).
  Duration on = Duration::millis(1);
  Duration off = Duration::millis(1);
  // Sinusoidal modulation (kDiurnal only); depth in [0, 1).
  double depth = 0.5;
  Duration period = Duration::millis(10);

  static ArrivalSpec poisson(double rps) {
    ArrivalSpec s;
    s.kind = Kind::kPoisson;
    s.rate_rps = rps;
    return s;
  }
  static ArrivalSpec on_off(double burst_rps, Duration on, Duration off) {
    ArrivalSpec s;
    s.kind = Kind::kOnOff;
    s.rate_rps = burst_rps;
    s.on = on;
    s.off = off;
    return s;
  }
  static ArrivalSpec diurnal(double mean_rps, double depth, Duration period) {
    ArrivalSpec s;
    s.kind = Kind::kDiurnal;
    s.rate_rps = mean_rps;
    s.depth = depth;
    s.period = period;
    return s;
  }

  // Long-run average arrival rate (what an SLO-normalizing denominator wants): the duty
  // cycle discounts kOnOff, the sinusoid integrates away for kDiurnal.
  double mean_rate_rps() const;
};

// A deterministic stream of arrival offsets for one tenant. next() returns strictly
// increasing Durations measured from the schedule's origin (the engine anchors them at
// run() time). Same (spec, seed) => byte-identical stream, pinned by tests/workload_test.cc.
class ArrivalSchedule {
 public:
  ArrivalSchedule(ArrivalSpec spec, uint64_t seed);

  Duration next();
  const ArrivalSpec& spec() const { return spec_; }

 private:
  // One exponential inter-arrival gap at `rate_rps`, in integer ns (floored at 1 ns so the
  // stream is strictly increasing).
  int64_t exp_gap_ns(double rate_rps);

  ArrivalSpec spec_;
  Splitmix64 rng_;
  int64_t wall_ns_ = 0;  // kPoisson / kDiurnal: last emitted offset
  int64_t busy_ns_ = 0;  // kOnOff: cumulative on-window time consumed
};

// One tenant of the open-loop harness.
struct TenantSpec {
  std::string name;  // metrics key component and span name: tenant.<name>.*
  ArrivalSpec arrivals;
  uint64_t seed = 1;

  // Nodes whose flows implicate this tenant: an ECN mark on a transfer touching any of them
  // (as source or destination) counts against the tenant. Leave empty when ECN backpressure
  // is off.
  std::vector<uint32_t> nodes;

  // ECN-driven client-side backpressure. On each mark (at most once per ecn_epoch) the
  // tenant's admission scale is cut to scale * (1 - ecn_cut), floored at ecn_min_scale; per
  // mark-free epoch it recovers by +ecn_recover up to 1. While scale < 1, arrivals are paced
  // at mean_rate * scale: excess arrivals wait behind the pacing gate (a deferral), and once
  // defer_limit of them are waiting, further arrivals are shed client-side without touching
  // the system.
  bool ecn_backpressure = false;
  double ecn_cut = 0.5;
  Duration ecn_epoch = Duration::micros(100);
  double ecn_recover = 0.05;
  double ecn_min_scale = 0.1;
  uint32_t defer_limit = 256;
};

// Per-tenant SLO accounting. Every offered arrival ends in exactly one of completed /
// failed / shed / shed_client, so offered == accounted() when a run finishes — the
// reconciliation invariant tests pin against Controller admission counters.
struct TenantSlo {
  uint64_t offered = 0;      // arrivals generated within the horizon
  uint64_t issued = 0;       // handed to the issue function (offered - shed_client)
  uint64_t completed = 0;    // issue function reported kOk
  uint64_t failed = 0;       // issue function reported an error other than kOverloaded
  uint64_t shed = 0;         // refused by Controller admission control (kOverloaded)
  uint64_t shed_client = 0;  // shed client-side by ECN backpressure (never issued)
  uint64_t deferrals = 0;    // arrivals delayed behind the ECN pacing gate
  uint64_t ecn_marks = 0;    // switch ECN marks attributed to this tenant

  // Completed-request latency, in us, measured from the scheduled arrival time (so ECN
  // pacing delay counts; an open-loop latency that ignored queueing-to-enter would hide
  // exactly the collapse this engine exists to expose).
  Samples latency_us;
  // Arrival-to-refusal latency of Controller sheds: the fail-fast bound.
  Samples shed_latency_us;

  double goodput_rps = 0.0;  // completed / horizon, filled in by run()

  uint64_t accounted() const { return completed + failed + shed + shed_client; }
  double p50() const { return latency_us.percentile(50.0); }
  double p99() const { return latency_us.percentile(99.0); }
  double p999() const { return latency_us.percentile(99.9); }
  double drop_rate() const {
    return offered == 0 ? 0.0
                        : static_cast<double>(shed + shed_client + failed) /
                              static_cast<double>(offered);
  }
};

// The open-loop harness. Usage:
//
//   OpenLoopEngine eng(&sys.loop(), Duration::millis(50));
//   size_t t = eng.add_tenant(spec, [&](OpenLoopEngine::DoneFn done) {
//     client.read(...).on_ready([done](Result<...>&& r) { done(to_status(r)); });
//   });
//   sys.net().set_ecn_listener([&](uint32_t s, uint32_t d) { eng.on_ecn_mark(s, d); });
//   eng.run();
//   const TenantSlo& slo = eng.slo(t);
//
// The issue function is called at each admitted arrival's simulated time and must invoke
// done exactly once (kOverloaded marks a Controller shed; anything else a failure). run()
// drives the loop until every tenant's schedule is past the horizon and every issued
// request has completed — it CHECK-fails if the loop drains with requests still in flight.
class OpenLoopEngine {
 public:
  using DoneFn = std::function<void(Status)>;
  using IssueFn = std::function<void(DoneFn)>;

  OpenLoopEngine(EventLoop* loop, Duration horizon);

  // Registers a tenant; returns its index. Call before run().
  size_t add_tenant(TenantSpec spec, IssueFn issue);

  // ECN mark on a (src, dst) transfer — wire to Network::set_ecn_listener.
  void on_ecn_mark(uint32_t src_node, uint32_t dst_node);

  void run();

  size_t num_tenants() const { return tenants_.size(); }
  const TenantSlo& slo(size_t tenant) const { return tenants_[tenant].slo; }
  const TenantSpec& spec(size_t tenant) const { return tenants_[tenant].spec; }
  Duration horizon() const { return horizon_; }

 private:
  struct Tenant {
    TenantSpec spec;
    ArrivalSchedule schedule;
    IssueFn issue;
    TenantSlo slo;
    NameId name_id = kInvalidNameId;  // span name (the tenant), interned once

    // ECN backpressure state.
    double scale = 1.0;   // current admission scale in (0, 1]
    Time next_admit;      // pacing gate: earliest time the next arrival may issue
    Time last_cut;        // when the scale was last cut (rate-limits cuts to one per epoch)
    Time last_signal;     // base of the mark-free-epoch recovery clock
    uint32_t deferred = 0;

    uint32_t outstanding = 0;
    bool done_generating = false;

    // tenant.<name>.latency_ns, the pushed histogram (integer nanoseconds); the counters
    // in `slo` are pulled as tenant.<name>.* by the engine's publisher.
    NameId latency_key = kInvalidNameId;

    Tenant(TenantSpec s, IssueFn fn)
        : spec(std::move(s)), schedule(spec.arrivals, spec.seed), issue(std::move(fn)) {}
  };

  void schedule_next_arrival(size_t i);
  void handle_arrival(size_t i, Time scheduled);
  void issue_request(size_t i, Time scheduled);
  void complete(size_t i, Time scheduled, uint64_t span_id, Status s);
  // Additive recovery: credits full mark-free epochs elapsed since last_signal.
  void recover(Tenant& t, Time now);
  Duration pacing_gap(const Tenant& t) const;

  EventLoop* loop_;
  Duration horizon_;
  Time start_;
  std::vector<Tenant> tenants_;
  uint64_t outstanding_total_ = 0;
  uint64_t deferred_total_ = 0;
  bool running_ = false;
  NameId actor_id_ = kInvalidNameId;  // "openloop", the span actor
  MetricsPublisher publisher_;        // last, so it goes first at destruction
};

}  // namespace fractos

#endif  // SRC_SIM_WORKLOAD_H_
