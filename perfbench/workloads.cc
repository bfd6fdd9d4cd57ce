// The three benchmark workloads. Each one builds a cluster on the legacy (unsharded)
// engine, runs a fixed amount of seeded work through a measured window, checks every
// result, and tears the cluster down, timing each phase on the host clock.
//
//   facever_fattree — closed loop, FractOS face-verify on fat_tree(64, 8): many small
//                     ObjectTables, the whole Controller -> fabric -> GPU chain.
//   capability_1m   — closed loop, one owner holding 10^6 live objects: invokes of depth-6
//                     chains mixed with derive -> delegate -> revoke churn.
//   openloop_lossy  — open loop, three tenants on fat_tree(3, 2) with a seeded lossy fault
//                     plan: the only workload where the RC and peer-op reliability layers run.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/apps/cloud_inference.h"
#include "src/apps/face_verify.h"
#include "src/sim/metrics.h"
#include "src/sim/rng.h"
#include "src/sim/span.h"
#include "src/sim/tax_report.h"
#include "src/sim/workload.h"

namespace fractos::perfbench {
namespace {

using DoneFn = std::function<void(Status)>;

// Host-clock laps over the set-up and teardown phases (setup.<phase>_s host fields).
class PhaseClock {
 public:
  explicit PhaseClock(Report& rep) : rep_(rep), last_(host_seconds()) {}
  void lap(const std::string& phase) {
    const double now = host_seconds();
    rep_.host("setup." + phase + "_s", now - last_);
    last_ = now;
  }

 private:
  Report& rep_;
  double last_;
};

// Whole-cluster counters read around the measured window.
struct Counters {
  TrafficCounters net;
  FaultCounters faults;
  ControllerStats ctrl;
  uint64_t xlate_hits = 0;
  uint64_t xlate_misses = 0;
  uint64_t steps = 0;

  static Counters read(System& sys) {
    Counters c;
    c.net = sys.net().counters();
    if (FaultInjector* fi = sys.fault_injector()) {
      c.faults = fi->counters();
    }
    for (Controller* ctl : sys.controllers()) {
      const ControllerStats& s = ctl->stats();
      c.ctrl.syscalls += s.syscalls;
      c.ctrl.invokes_forwarded += s.invokes_forwarded;
      c.ctrl.revocations += s.revocations;
      c.ctrl.peer_retries += s.peer_retries;
      c.ctrl.peer_op_timeouts += s.peer_op_timeouts;
      c.ctrl.peer_dedup_hits += s.peer_dedup_hits;
      c.ctrl.late_replies_ignored += s.late_replies_ignored;
      c.xlate_hits += ctl->translation_cache().hits();
      c.xlate_misses += ctl->translation_cache().misses();
    }
    c.steps = sys.loop().steps();
    return c;
  }
};

// The measured window: issues ops, times each one in simulated time from when it was due,
// keeps the success/failure accounting, and in the traced pass opens one root span per op
// and folds its tax breakdown afterwards.
class Window {
 public:
  struct Tenant {
    std::string name;
    double limit_us = 0;  // latency limit for the SLO count; 0 = none (closed loops)
    uint64_t attempted = 0;
    uint64_t ok = 0;
    uint64_t failed = 0;  // error status, including kOverloaded sheds
    uint64_t shed = 0;
    uint64_t wrong = 0;  // completed with a wrong result (content check failed)
    uint64_t over_limit = 0;
    Samples latency_us;
  };

  Window(System& sys, const RunOptions& opt) : sys_(sys), opt_(opt) {}

  size_t add_tenant(std::string name, double limit_us = 0) {
    Tenant& t = tenants_.emplace_back();
    t.name = std::move(name);
    t.limit_us = limit_us;
    return tenants_.size() - 1;
  }

  void begin() {
    if (opt_.trace) {
      tracer_ = std::make_unique<SpanTracer>();
      metrics_ = std::make_unique<MetricsRegistry>();
      sys_.loop().set_span_tracer(tracer_.get());
      sys_.loop().set_metrics(metrics_.get());
      op_name_ = intern_name("op");
      actor_ = intern_name("perfbench");
    }
    before_ = Counters::read(sys_);
    sim_start_ = sys_.loop().now();
    host_start_ = host_seconds();
  }

  // Starts one op of `tenant`, due at `due` (now, for closed loops). `start` must call the
  // DoneFn it is given exactly once; `wrong` results are reported through wrong_result().
  void issue(size_t tenant, Time due, const std::function<void(DoneFn)>& start) {
    Tenant& t = tenants_[tenant];
    ++t.attempted;
    ++in_flight_;
    const Time issued = sys_.loop().now();
    late_ns_ = std::max(late_ns_, (issued - due).ns());
    uint64_t root = 0;
    if (tracer_ != nullptr) {
      root = tracer_->start_trace(actor_, op_name_, issued);
    }
    DoneFn done = [this, tenant, due, issued, root](Status s) {
      complete(tenant, due, issued, root, s);
    };
    if (root != 0) {
      SpanScope scope(tracer_->context_of(root));
      start(std::move(done));
    } else {
      start(std::move(done));
    }
  }

  void wrong_result(size_t tenant) { ++tenants_[tenant].wrong; }

  // Runs the loop until every issued op resolved and `more_to_come()` is false. If the loop
  // drains first, the unresolved ops are counted (the run is then reported as failed).
  template <typename Pred>
  void drain(Pred&& more_to_come) {
    sys_.loop().run_until([&]() { return in_flight_ == 0 && !more_to_come(); });
    unresolved_ = in_flight_;
  }

  // Closes the window and writes every sim/host field of the window into `rep`.
  // The simulated window runs from begin() to the last op's completion unless `sim_seconds`
  // overrides it (open loops use their arrival horizon).
  void end(Report& rep, double sim_seconds = 0) {
    const double host_s = host_seconds() - host_start_;
    const Counters after = Counters::read(sys_);
    if (sim_seconds <= 0) {
      sim_seconds = (last_done_ - sim_start_).to_seconds();
    }
    if (tracer_ != nullptr) {
      sys_.loop().set_span_tracer(nullptr);
      sys_.loop().set_metrics(nullptr);
    }
    uint64_t attempted = 0, ok = 0, failed = 0, shed = 0, wrong = 0, over = 0;
    const Tenant* worst = nullptr;  // the tenant with the highest p99
    for (const Tenant& t : tenants_) {
      attempted += t.attempted;
      ok += t.ok;
      failed += t.failed;
      shed += t.shed;
      wrong += t.wrong;
      over += t.over_limit;
      if (!t.latency_us.empty() &&
          (worst == nullptr || t.latency_us.p99() > worst->latency_us.p99())) {
        worst = &t;
      }
      if (tenants_.size() > 1) {
        const std::string k = "tenant." + t.name + ".";
        rep.sim(k + "attempted", static_cast<double>(t.attempted));
        rep.sim(k + "ok", static_cast<double>(t.ok));
        rep.sim(k + "over_limit", static_cast<double>(t.over_limit));
        rep.sim(k + "p50_us", t.latency_us.empty() ? 0 : t.latency_us.median());
        rep.sim(k + "p99_us", t.latency_us.empty() ? 0 : t.latency_us.p99());
      }
    }
    const double per_op = ok == 0 ? 0 : 1.0 / static_cast<double>(ok);
    auto count = [&](const std::string& key, uint64_t v) {
      rep.sim(key, static_cast<double>(v));
    };
    auto count_per_op = [&](const std::string& key, uint64_t v) {
      rep.sim(key, static_cast<double>(v) * per_op);
    };
    count("attempted", attempted);
    count("ok", ok);
    count("failed", failed);
    count("wrong", wrong);
    count("unresolved", unresolved_);
    count("shed", shed);
    count("slo_miss", failed + wrong + unresolved_ + over);
    rep.sim("generator_late_us", static_cast<double>(late_ns_) / 1e3);
    count("latency_samples", worst == nullptr ? 0 : worst->latency_us.count());
    rep.sim("p50_us", worst == nullptr ? 0 : worst_p50());
    rep.sim("p99_us", worst == nullptr ? 0 : worst->latency_us.p99());
    rep.sim("window_s", sim_seconds);
    rep.sim("ops_per_s", static_cast<double>(ok) / sim_seconds);
    const TrafficCounters& n0 = before_.net;
    const TrafficCounters& n1 = after.net;
    count("events", after.steps - before_.steps);
    count_per_op("fabric_bytes_per_op", n1.total_cross_bytes() - n0.total_cross_bytes());
    count_per_op("cross_rack_bytes_per_op",
                 n1.total_cross_rack_bytes() - n0.total_cross_rack_bytes());
    count_per_op("control_msgs_per_op", n1.control_messages() - n0.control_messages());
    count_per_op("data_msgs_per_op", n1.data_messages() - n0.data_messages());
    rep.sim("max_port_queue_kb",
            static_cast<double>(sys_.net().topology().max_port_queue_bytes()) / 1024.0);
    count("rc_exhausted", n1.rc_exhausted - n0.rc_exhausted);
    count("faults_injected", after.faults.total_injected() - before_.faults.total_injected());
    count("rdma_retransmits", after.faults.rdma_retransmits - before_.faults.rdma_retransmits);
    const ControllerStats& c0 = before_.ctrl;
    const ControllerStats& c1 = after.ctrl;
    count_per_op("syscalls_per_op", c1.syscalls - c0.syscalls);
    count_per_op("invokes_forwarded_per_op", c1.invokes_forwarded - c0.invokes_forwarded);
    count_per_op("revocations_per_op", c1.revocations - c0.revocations);
    count("peer_retries", c1.peer_retries - c0.peer_retries);
    count("peer_dedup_hits", c1.peer_dedup_hits - c0.peer_dedup_hits);
    count("peer_op_timeouts", c1.peer_op_timeouts - c0.peer_op_timeouts);
    count("late_replies", c1.late_replies_ignored - c0.late_replies_ignored);
    count("xlate_hits", after.xlate_hits - before_.xlate_hits);
    count("xlate_misses", after.xlate_misses - before_.xlate_misses);
    uint64_t live = 0;
    for (Controller* ctl : sys_.controllers()) {
      live += ctl->table().live_count();
    }
    count("objects_live", live);

    rep.host("window_s", host_s);
    rep.host("ops_per_s", static_cast<double>(ok) / host_s);
    rep.host("ns_per_event",
             host_s * 1e9 / static_cast<double>(std::max<uint64_t>(1, after.steps - before_.steps)));
    if (tracer_ != nullptr) {
      fold(rep, per_op);
    }
  }

 private:
  struct Root {
    uint64_t id;
    int64_t latency_ns;
  };

  double worst_p50() const {
    double p50 = 0;
    for (const Tenant& t : tenants_) {
      if (!t.latency_us.empty()) {
        p50 = std::max(p50, t.latency_us.median());
      }
    }
    return p50;
  }

  void complete(size_t tenant, Time due, Time issued, uint64_t root, const Status& s) {
    Tenant& t = tenants_[tenant];
    --in_flight_;
    const Time now = sys_.loop().now();
    last_done_ = now;
    if (s.ok()) {
      ++t.ok;
      const Duration lat = now - due;
      t.latency_us.add(lat);
      if (t.limit_us > 0 && lat.to_us() > t.limit_us) {
        ++t.over_limit;
      }
    } else {
      ++t.failed;
      if (s.error() == ErrorCode::kOverloaded) {
        ++t.shed;
      }
    }
    if (root != 0) {
      if (s.ok()) {
        tracer_->end(root, now);
      } else {
        tracer_->end_error(root, now, error_code_name(s.error()));
      }
      roots_.push_back(Root{root, (now - issued).ns()});
    }
  }

  // Folds every op's span tree into tax buckets, which must sum exactly to the op's root
  // span. The root span covers the op's latency and can outlive it: a message the op's
  // code path sends as it completes (an RC ACK on a lossy fabric, a trailing local send)
  // inherits the op's trace context. That excess is reported as tax.tail_us.
  //
  // fold_tax scans the whole tracer for each trace, which is quadratic over a window of
  // 10^5 ops. So each op's spans are first copied, in creation order and with their tree
  // shape, into a tracer of their own, and folded there.
  void fold(Report& rep, double per_op) {
    std::unordered_map<uint64_t, std::vector<const Span*>> by_trace;
    for (const Span& s : tracer_->spans()) {
      by_trace[s.trace_id].push_back(&s);
    }
    TaxBreakdown total;
    int64_t tail_ns = 0;
    for (const Root& r : roots_) {
      const std::vector<const Span*>& spans = by_trace[r.id];
      FRACTOS_CHECK(!spans.empty() && spans.front()->span_id == r.id);
      const Span& root = *spans.front();
      SpanTracer one;
      std::unordered_map<uint64_t, uint64_t> ids;  // span id in tracer_ -> span id in `one`
      const uint64_t one_root = one.start_trace(root.actor_id, root.name_id, root.t_start);
      ids[root.span_id] = one_root;
      for (size_t i = 1; i < spans.size(); ++i) {
        const Span& s = *spans[i];
        SpanScope scope(one.context_of(ids.at(s.parent)));
        ids[s.span_id] =
            one.record(s.actor_id, s.kind, s.name_id, s.t_start, s.open ? root.t_end : s.t_end);
      }
      one.end(one_root, root.t_end);
      const TaxBreakdown b = fold_tax(one, one_root);
      FRACTOS_CHECK_MSG(b.sum_ns() == b.total_ns, "tax buckets must sum to the op's root span");
      FRACTOS_CHECK_MSG(b.total_ns >= r.latency_ns, "root span must cover the whole op");
      tail_ns += b.total_ns - r.latency_ns;
      total += b;
    }
    for (size_t i = 0; i < kNumTaxBuckets; ++i) {
      rep.sim(std::string("tax.") + tax_bucket_name(static_cast<TaxBucket>(i)) + "_us",
              static_cast<double>(total.ns[i]) / 1e3 * per_op);
    }
    rep.sim("tax.tail_us", static_cast<double>(tail_ns) / 1e3 * per_op);
    rep.sim("tax.ops", static_cast<double>(roots_.size()));
    rep.sim("spans_per_op", static_cast<double>(tracer_->spans().size()) * per_op);
    rep.sim("qp_retransmits", static_cast<double>(metrics_->value("qp.retransmits")));
    if (!opt_.chrome_trace.empty()) {
      FILE* f = std::fopen(opt_.chrome_trace.c_str(), "w");
      FRACTOS_CHECK_MSG(f != nullptr, "cannot open the Chrome trace file");
      const std::string text = chrome_trace_json(*tracer_);
      FRACTOS_CHECK_MSG(std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                            std::fclose(f) == 0,
                        "cannot write the Chrome trace file");
    }
  }

  System& sys_;
  const RunOptions& opt_;
  std::vector<Tenant> tenants_;
  std::unique_ptr<SpanTracer> tracer_;
  std::unique_ptr<MetricsRegistry> metrics_;
  NameId op_name_ = kInvalidNameId;
  NameId actor_ = kInvalidNameId;
  std::vector<Root> roots_;
  Counters before_;
  Time sim_start_;
  Time last_done_;
  double host_start_ = 0;
  uint64_t in_flight_ = 0;
  uint64_t unresolved_ = 0;
  int64_t late_ns_ = 0;
};

// `streams` independent callers; each issues its next op when the previous one resolves,
// until it has issued `per_stream` ops. issue_op(stream, index, done) starts one op.
void closed_loop(Window& w, System& sys, size_t tenant, int streams, int per_stream,
                 const std::function<void(int, int, DoneFn)>& issue_op) {
  std::vector<int> issued(static_cast<size_t>(streams), 0);
  std::function<void(int)> next = [&](int s) {
    const int i = issued[static_cast<size_t>(s)];
    if (i == per_stream) {
      return;
    }
    ++issued[static_cast<size_t>(s)];
    w.issue(tenant, sys.loop().now(), [&, s, i](DoneFn done) {
      issue_op(s, i, [&, s, done = std::move(done)](Status st) {
        done(st);
        next(s);
      });
    });
  };
  for (int s = 0; s < streams; ++s) {
    next(s);
  }
  w.drain([]() { return false; });
}

Status verdict_status(Window& w, size_t tenant, const Result<bool>& r) {
  if (!r.ok()) {
    return Status(r.error());
  }
  if (!r.value()) {
    w.wrong_result(tenant);
  }
  return ok_status();
}

FaceVerifyParams facever_params() {
  FaceVerifyParams p;
  p.image_bytes = 32 << 10;
  p.images_per_batch = 4;
  p.num_batches = 4;
  p.pool_slots = 2;
  p.per_image_compute = Duration::micros(120);
  return p;
}

}  // namespace

// --- facever_fattree --------------------------------------------------------------------------
//
// 64 four-node pods on fat_tree(64, 8), resource classes striped across the 4 racks (every
// frontend in rack 0, FS in rack 1, storage in rack 2, GPUs in rack 3), so each verify
// crosses the spines. 256 Controllers in the eager full mesh. Each pod keeps 2 verifies in
// flight until it has issued 40: 2560 verifies. The seed draws each verify's batch and
// whether its probe is tampered (then the correct verdict is a mismatch).

void run_facever_fattree(const RunOptions& opt, Report& rep) {
  constexpr uint32_t kPods = 64;
  constexpr uint32_t kSpines = 8;
  constexpr int kInflight = 2;
  constexpr int kPerStream = 20;  // 40 verifies per pod
  const FaceVerifyParams params = facever_params();

  PhaseClock clock(rep);
  SystemConfig cfg;
  cfg.topology = TopologySpec::fat_tree(kPods, kSpines);
  auto sys = std::make_unique<System>(cfg);
  for (const char* role : {"frontend", "fs", "storage", "gpu"}) {
    for (uint32_t p = 0; p < kPods; ++p) {
      sys->add_node(std::string(role) + std::to_string(p));
    }
  }
  std::vector<std::unique_ptr<FaceVerifyCluster>> clusters;
  for (uint32_t p = 0; p < kPods; ++p) {
    auto c = std::make_unique<FaceVerifyCluster>();
    c->frontend_node = p;
    c->fs_node = kPods + p;
    c->storage_node = 2 * kPods + p;
    c->gpu_node = 3 * kPods + p;
    c->nvme = std::make_unique<SimNvme>(&sys->loop());
    c->gpu = std::make_unique<SimGpu>(&sys->net(), c->gpu_node);
    clusters.push_back(std::move(c));
  }
  clock.lap("fabric");

  std::vector<std::unique_ptr<FaceVerifyFractos>> apps;
  for (uint32_t p = 0; p < kPods; ++p) {
    apps.push_back(
        std::make_unique<FaceVerifyFractos>(sys.get(), clusters[p].get(), Loc::kHost, params));
  }
  clock.lap("deploy");
  for (auto& app : apps) {
    app->ingest_database();
  }
  clock.lap("ingest");
  for (auto& app : apps) {
    FRACTOS_CHECK(sys->await_ok(app->verify(0)));
  }
  clock.lap("warmup");

  // Inputs, drawn before the window: (batch, tamper) per stream and op.
  constexpr int kStreams = static_cast<int>(kPods) * kInflight;
  struct Input {
    uint32_t batch;
    bool tamper;
  };
  std::vector<Input> inputs;
  Rng rng(opt.seed);
  for (int i = 0; i < kStreams * kPerStream; ++i) {
    const uint32_t batch = static_cast<uint32_t>(rng.next_below(params.num_batches));
    inputs.push_back(Input{batch, rng.next_below(8) == 0});
  }

  rep.host("setup_s", host_seconds());
  Window w(*sys, opt);
  const size_t tenant = w.add_tenant("facever");
  w.begin();
  closed_loop(w, *sys, tenant, kStreams, kPerStream, [&](int s, int i, DoneFn done) {
    const Input& in = inputs[static_cast<size_t>(s * kPerStream + i)];
    apps[static_cast<size_t>(s / kInflight)]
        ->verify(in.batch, in.tamper)
        .on_ready([&w, tenant, done = std::move(done)](Result<bool>&& r) {
          done(verdict_status(w, tenant, r));
        });
  });
  w.end(rep);

  const double t0 = host_seconds();
  apps.clear();
  clusters.clear();
  sys.reset();
  rep.host("setup.teardown_s", host_seconds() - t0);
}

// --- capability_1m ----------------------------------------------------------------------------
//
// bench_capability's production-scale hot-path configuration: an owner Controller holding
// 10^6 live objects, depth-6 request chains delegated to a client on a second node, the
// translation cache and 16-op peer batches on. 8 closed-loop client streams run 12,000 ops
// each. The seed draws every op: 7 in 8 invoke a chain (a read of the owner's table), 1 in 8
// is churn — diminish a memory capability at the owner (derive), pass the child along in an
// invoke (delegate), then revoke it (a write). An op completes when the provider has
// received its invoke (and, for churn, when the revoke returned).

void run_capability_1m(const RunOptions& opt, Report& rep) {
  constexpr size_t kLiveObjects = 1'000'000;
  constexpr int kChains = 64;
  constexpr int kDepth = 6;
  constexpr int kStreams = 8;
  constexpr int kPerStream = 12'000;
  constexpr uint32_t kTokenOffset = 8 * kDepth;  // past the chain layers' immediates

  PhaseClock clock(rep);
  SystemConfig cfg;
  cfg.charge_chain_traversal = true;
  cfg.translation_cache_entries = 1u << 16;
  cfg.peer_op_batch_max = 16;
  cfg.peer_op_batch_delay = Duration::micros(2);
  auto sys = std::make_unique<System>(cfg);
  const uint32_t n0 = sys->add_node("owner");
  const uint32_t n1 = sys->add_node("holder");
  clock.lap("fabric");

  Controller& c0 = sys->add_controller(n0, Loc::kHost);
  Controller& c1 = sys->add_controller(n1, Loc::kHost);
  Process& provider = sys->spawn("provider", n0, c0);
  Process& client = sys->spawn("client", n1, c1);
  // Delivery of op `token` at the provider completes it.
  std::vector<DoneFn> pending(kStreams);
  uint64_t delivered = 0;
  uint64_t misdelivered = 0;
  const CapId ep = sys->await_ok(provider.serve({}, [&](Process::Received r) {
    ++delivered;
    const std::optional<uint64_t> token = r.imm_u64(kTokenOffset);
    if (!token.has_value() || *token >= pending.size() || pending[*token] == nullptr) {
      ++misdelivered;
      return;
    }
    DoneFn done = std::move(pending[*token]);
    pending[*token] = nullptr;
    done(ok_status());
  }));
  std::vector<CapId> chains;
  for (int i = 0; i < kChains; ++i) {
    CapId cur = ep;
    for (int d = 1; d < kDepth; ++d) {
      cur = sys->await_ok(provider.request_derive(
          cur, Process::Args().imm_u64(8 * static_cast<uint32_t>(d), uint64_t(d))));
    }
    chains.push_back(sys->bootstrap_grant(provider, cur, client).value());
  }
  constexpr uint64_t kChurnBytes = 1 << 20;
  const CapId churn_base = sys->bootstrap_grant(
      provider,
      sys->await_ok(provider.memory_create(provider.alloc(kChurnBytes), kChurnBytes,
                                           Perms::kReadWrite)),
      client).value();
  clock.lap("deploy");

  ObjectTable& table = c0.table();
  size_t installed = 0;
  while (table.live_count() < kLiveObjects) {
    const MemoryDesc desc{n0, 0, installed * 64, 64};
    auto idx = table.create_memory(provider.pid(), desc, Perms::kRead);
    FRACTOS_CHECK(idx.ok());
    CapEntry entry;
    entry.ref = table.ref_of(idx.value());
    entry.kind = ObjectKind::kMemory;
    entry.perms = Perms::kRead;
    entry.mem = desc;
    FRACTOS_CHECK(c1.bootstrap_install(client.pid(), entry).ok());
    ++installed;
  }
  clock.lap("fill");

  // Warm-up: one invoke per chain fills the translation cache. Its token names no op, so
  // the provider counts it as misdelivered; the count restarts with the window.
  for (int i = 0; i < kChains; ++i) {
    const uint64_t before = delivered;
    FRACTOS_CHECK(sys->await(client.request_invoke(
                                 chains[static_cast<size_t>(i)],
                                 Process::Args().imm_u64(kTokenOffset, kStreams)))
                      .ok());
    sys->loop().run_until([&]() { return delivered > before; });
  }
  misdelivered = 0;
  clock.lap("warmup");

  struct Input {
    uint32_t chain;
    bool churn;
    uint64_t offset;  // churn: the diminished window inside churn_base
  };
  std::vector<Input> inputs;
  Rng rng(opt.seed);
  for (int i = 0; i < kStreams * kPerStream; ++i) {
    const uint32_t chain = static_cast<uint32_t>(rng.next_below(kChains));
    const bool churn = rng.next_below(8) == 0;
    inputs.push_back(Input{chain, churn, rng.next_below(kChurnBytes / 4096) * 4096});
  }

  // Invokes `target` carrying `token`: the provider's delivery completes pending[token]; a
  // refused invoke completes it with the error.
  auto invoke = [&](CapId target, Process::Args args, uint64_t token) {
    client.request_invoke(target, std::move(args)).on_ready([&pending, token](Status st) {
      if (!st.ok() && pending[token] != nullptr) {
        DoneFn done = std::move(pending[token]);
        pending[token] = nullptr;
        done(st);
      }
    });
  };

  rep.host("setup_s", host_seconds());
  Window w(*sys, opt);
  const size_t tenant = w.add_tenant("capability");
  w.begin();
  closed_loop(w, *sys, tenant, kStreams, kPerStream, [&](int s, int i, DoneFn done) {
    const Input& in = inputs[static_cast<size_t>(s * kPerStream + i)];
    const CapId target = chains[in.chain];
    const uint64_t token = static_cast<uint64_t>(s);
    if (!in.churn) {
      pending[token] = std::move(done);
      invoke(target, Process::Args().imm_u64(kTokenOffset, token), token);
      return;
    }
    // derive -> delegate -> revoke
    auto finish = std::make_shared<DoneFn>(std::move(done));
    client.memory_diminish(churn_base, in.offset, 4096, Perms::kRead)
        .on_ready([&, target, token, finish](Result<CapId>&& child) {
          if (!child.ok()) {
            (*finish)(Status(child.error()));
            return;
          }
          const CapId cid = child.value();
          pending[token] = [&, cid, finish](Status delivered_st) {
            if (!delivered_st.ok()) {
              (*finish)(delivered_st);
              return;
            }
            client.cap_revoke(cid).on_ready([finish](Status st) { (*finish)(st); });
          };
          invoke(target, Process::Args().imm_u64(kTokenOffset, token).cap(cid), token);
        });
  });
  // Let revocation cleanup broadcasts and acks finish off the critical path.
  sys->loop().run();
  w.end(rep);
  rep.sim("misdelivered", static_cast<double>(misdelivered));

  const double t0 = host_seconds();
  sys.reset();
  rep.host("setup.teardown_s", host_seconds() - t0);
}

// --- openloop_lossy ---------------------------------------------------------------------------
//
// bench_openloop's shared 12-node fat_tree(3, 2) at load 1.0 (below FractOS's 1.25x knee),
// 600 ms of simulated arrivals: facever Poisson, 64 KiB storage reads in 2 ms on/off bursts,
// inference diurnal. A seeded fault plan drops 0.5% and delays 1% of messages in both
// traffic classes (no link flaps: a flap can strand a facever request, a known liveness
// bug). Each request is timed from its due time. A tenant's latency limit is 4x its
// clean-fabric p99 at load 0.25 in BENCH_openloop.json (FractOS column: 1786.333,
// 568.578 and 3384.843 us), bench_openloop's knee rule.

namespace {

constexpr uint64_t kStorageFileBytes = 4ull << 20;
constexpr uint64_t kStorageIo = 64 << 10;
constexpr int kStorageBufs = 64;

struct StoragePod {
  std::unique_ptr<SimNvme> nvme;
  std::unique_ptr<BlockAdaptor> block;
  std::unique_ptr<FsService> fs;
  Process* client = nullptr;
  CapId create_ep = kInvalidCap;
  CapId open_ep = kInvalidCap;
  FsClient::OpenFile file;
  std::vector<CapId> bufs;

  StoragePod(System& sys, uint32_t cn, uint32_t fn, uint32_t sn) {
    Controller& cc = sys.add_controller(cn, Loc::kHost);
    Controller& cf = sys.add_controller(fn, Loc::kHost);
    Controller& cs = sys.add_controller(sn, Loc::kHost);
    nvme = std::make_unique<SimNvme>(&sys.loop());
    block = std::make_unique<BlockAdaptor>(&sys, sn, cs, nvme.get());
    fs = FsService::bootstrap(&sys, fn, cf, block->process(), block->mgmt_endpoint());
    client = &sys.spawn("st-client", cn, cc, kStorageBufs * kStorageIo + (2 << 20));
    create_ep = sys.bootstrap_grant(fs->process(), fs->create_endpoint(), *client).value();
    open_ep = sys.bootstrap_grant(fs->process(), fs->open_endpoint(), *client).value();
  }

  void ingest(System& sys) {
    FRACTOS_CHECK(
        sys.await(FsClient::create(*client, create_ep, "bench", kStorageFileBytes)).ok());
    file = sys.await_ok(FsClient::open(*client, open_ep, "bench", /*rw=*/false, /*dax=*/true));
    for (int i = 0; i < kStorageBufs; ++i) {
      bufs.push_back(sys.await_ok(
          client->memory_create(client->alloc(kStorageIo), kStorageIo, Perms::kReadWrite)));
    }
  }
};

}  // namespace

void run_openloop_lossy(const RunOptions& opt, Report& rep) {
  constexpr Duration kHorizon = Duration::millis(600);

  PhaseClock clock(rep);
  SystemConfig cfg;
  cfg.topology = TopologySpec::fat_tree(3, 2);
  FaultPlan plan;
  plan.seed = opt.seed;
  for (int c = 0; c < 2; ++c) {
    plan.drop_prob[c] = 0.005;
    plan.jitter_prob[c] = 0.01;
  }
  cfg.faults = plan;
  auto sys = std::make_unique<System>(cfg);
  // Node ids fix rack placement (3 per rack): facever's database leg and the storage relay
  // cross racks; CloudInference adds nodes 7..11 itself.
  for (const char* name : {"fv-frontend", "fv-gpu", "st-client", "fv-fs", "st-fs",
                           "st-storage", "fv-storage"}) {
    sys->add_node(name);
  }
  FaceVerifyCluster fv;
  fv.frontend_node = 0;
  fv.gpu_node = 1;
  fv.fs_node = 3;
  fv.storage_node = 6;
  fv.nvme = std::make_unique<SimNvme>(&sys->loop());
  fv.gpu = std::make_unique<SimGpu>(&sys->net(), fv.gpu_node);
  clock.lap("fabric");

  const FaceVerifyParams fv_params = facever_params();
  auto facever = std::make_unique<FaceVerifyFractos>(sys.get(), &fv, Loc::kHost, fv_params);
  auto storage = std::make_unique<StoragePod>(*sys, /*cn=*/2, /*fn=*/4, /*sn=*/5);
  CloudInferenceParams ci_params;
  ci_params.request_bytes = 256 << 10;
  ci_params.num_inputs = 4;
  ci_params.pool_slots = 2;
  ci_params.compute = Duration::micros(400);
  auto inference = std::make_unique<CloudInference>(sys.get(), Loc::kHost, ci_params);
  clock.lap("deploy");

  facever->ingest_database();
  storage->ingest(*sys);
  inference->ingest();
  clock.lap("ingest");

  FRACTOS_CHECK(sys->await_ok(facever->verify(0)));
  FRACTOS_CHECK(sys->await_status(FsClient::read(*storage->client, storage->file, 0, kStorageIo,
                                                 storage->bufs[0]))
                    .ok());
  FRACTOS_CHECK(sys->await_ok(inference->infer_distributed(0)));
  clock.lap("warmup");

  // Tenants: arrival process, latency limit. The arrival trace is fixed (bench_openloop's
  // tenant seeds): the seed varies what the faulty fabric does to it and which blocks the
  // storage tenant reads, not the offered load, whose randomness would swamp both.
  struct TenantDef {
    const char* name;
    ArrivalSpec arrivals;
    uint64_t arrival_seed;
    double limit_us;
  };
  const TenantDef defs[] = {
      {"facever", ArrivalSpec::poisson(1400.0), 101, 4 * 1786.333},
      {"storage", ArrivalSpec::on_off(2 * 3600.0, Duration::millis(2), Duration::millis(2)), 202,
       4 * 568.578},
      {"inference", ArrivalSpec::diurnal(650.0, 0.3, Duration::millis(30)), 303, 4 * 3384.843},
  };
  std::vector<ArrivalSchedule> schedules;
  for (const TenantDef& d : defs) {
    schedules.emplace_back(d.arrivals, d.arrival_seed);
  }
  Rng offsets(Splitmix64(opt.seed).next());
  uint32_t fv_round = 0;
  uint32_t ci_round = 0;
  uint32_t st_round = 0;

  rep.host("setup_s", host_seconds());
  Window w(*sys, opt);
  for (const TenantDef& d : defs) {
    w.add_tenant(d.name, d.limit_us);
  }
  auto start = [&](size_t tenant, DoneFn done) {
    switch (tenant) {
      case 0:
        facever->verify(fv_round++ % fv_params.num_batches)
            .on_ready([&w, done = std::move(done)](Result<bool>&& r) {
              done(verdict_status(w, 0, r));
            });
        break;
      case 1: {
        const uint64_t off =
            offsets.next_below((kStorageFileBytes - kStorageIo) / 4096 + 1) * 4096;
        const CapId buf = storage->bufs[st_round++ % storage->bufs.size()];
        FsClient::read(*storage->client, storage->file, off, kStorageIo, buf)
            .on_ready([done = std::move(done)](Status s) { done(std::move(s)); });
        break;
      }
      default:
        inference->infer_distributed(ci_round++ % ci_params.num_inputs)
            .on_ready([&w, done = std::move(done)](Result<bool>&& r) {
              done(verdict_status(w, 2, r));
            });
    }
  };

  w.begin();
  const Time origin = sys->loop().now();
  size_t generating = schedules.size();
  std::function<void(size_t)> arm = [&](size_t t) {
    const Duration offset = schedules[t].next();
    if (offset > kHorizon) {
      --generating;
      return;
    }
    const Time due = origin + offset;
    sys->loop().schedule_at(due, [&, t, due]() {
      w.issue(t, due, [&, t](DoneFn done) { start(t, std::move(done)); });
      arm(t);
    });
  };
  for (size_t t = 0; t < schedules.size(); ++t) {
    arm(t);
  }
  w.drain([&]() { return generating > 0; });
  w.end(rep, kHorizon.to_seconds());

  const double t0 = host_seconds();
  inference.reset();
  storage.reset();
  facever.reset();
  sys.reset();
  rep.host("setup.teardown_s", host_seconds() - t0);
}

}  // namespace fractos::perfbench
