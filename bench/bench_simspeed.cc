// Wall-clock engine speed: how many simulated events (and end-to-end requests) per real
// second the engine sustains. This is the one bench that measures the simulator itself, not
// the simulated system — the ROADMAP's "runs as fast as the hardware allows" applies to the
// reproduction too: chaos soaks and throughput sweeps scale with events/sec.
//
// Three soaks:
//   * timer    — pure scheduler churn: self-rescheduling actors with deterministic pseudo-
//                random delays spanning bucket-local, cross-bucket, and far-future horizons.
//   * facever  — the full face-verification pipeline (FS + GPU + controllers), 8 in flight.
//   * storage  — FractOS FS random reads through the block adaptor, payload-heavy.
//
// Every soak reports the final simulated clock and step count; those are engine-version
// invariants (same-seed runs must be bit-identical), so the JSON doubles as a determinism
// guard when comparing engines. After the soaks, an "objtable" ledger times ObjectTable
// insert and resolve in ns/op and records the heap bytes per object of a 50-object table; a
// "capspace" ledger times CapSpace install, get and purge at 10^6 entries and records the
// heap bytes per capability and per ObjectTable object; a "layers" ledger times one
// Switch::traverse and one Controller dispatch of a decoded envelope, and counts the heap
// blocks of one control frame from encode to decode; and a "host" member records the whole
// run's wall time and peak RSS. None of these is gated.
// Emits BENCH_simspeed.json (override: FRACTOS_BENCH_JSON).

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/face_verify.h"
#include "src/base/alloc_count.h"
#include "src/cap/cap_space.h"
#include "src/cap/object_table.h"
#include "src/fabric/switch.h"
#include "src/sim/rng.h"

namespace fractos {
namespace {

using bench::Table;
using bench::fmt;
using bench::wall_ms_since;

struct SoakResult {
  std::string name;
  uint64_t events = 0;       // engine steps consumed by the soak
  uint64_t requests = 0;     // end-to-end requests completed (0 for the timer soak)
  double wall_ms = 0.0;
  int64_t sim_now_ns = 0;    // engine-version invariant: must not change with the engine
  uint64_t sim_steps = 0;    // ditto

  double events_per_sec() const { return wall_ms > 0 ? events / (wall_ms / 1e3) : 0.0; }
  double requests_per_sec() const { return wall_ms > 0 ? requests / (wall_ms / 1e3) : 0.0; }
};

// Pure scheduler churn. Actors re-schedule themselves with delays drawn from a deterministic
// Rng: mostly sub-microsecond (same / neighboring wheel buckets), some tens of microseconds
// (cross-bucket), and an occasional millisecond hop (far-future heap on a wheel-based
// engine). A slice of callbacks carries a fat capture so both the inline and the overflow
// callback paths are exercised.
SoakResult timer_soak(uint64_t total_events) {
  EventLoop loop;
  Rng rng(42);
  uint64_t fired = 0;
  uint64_t checksum = 0;

  struct Actor {
    EventLoop* loop;
    Rng* rng;
    uint64_t* fired;
    uint64_t* checksum;
    uint64_t budget;
    void fire() {
      ++*fired;
      *checksum += *fired;
      if (budget-- == 0) {
        return;
      }
      const uint64_t draw = rng->next_u64();
      Duration delay;
      switch (draw & 0xF) {
        case 0:
          delay = Duration::nanos(static_cast<int64_t>(draw >> 4 & 0xFFFFF));  // up to ~1 ms
          break;
        case 1:
        case 2:
          delay = Duration::nanos(static_cast<int64_t>(draw >> 4 & 0xFFFF));  // up to ~65 us
          break;
        default:
          delay = Duration::nanos(static_cast<int64_t>(draw >> 4 & 0x3FF));  // up to ~1 us
      }
      if ((draw & 0x70) == 0) {
        // Fat capture: pushes the callback past any small-buffer optimization.
        uint64_t pad[12] = {draw, *fired};
        loop->schedule_after(delay, [this, pad]() {
          *checksum += pad[0] & 1;
          fire();
        });
      } else {
        loop->schedule_after(delay, [this]() { fire(); });
      }
    }
  };

  constexpr int kActors = 64;
  std::vector<Actor> actors;
  actors.reserve(kActors);
  for (int i = 0; i < kActors; ++i) {
    actors.push_back(Actor{&loop, &rng, &fired, &checksum, total_events / kActors});
    loop.schedule_after(Duration::nanos(i), [a = &actors.back()]() { a->fire(); });
  }

  const auto t0 = std::chrono::steady_clock::now();
  loop.run();
  SoakResult r;
  r.name = "timer";
  r.wall_ms = wall_ms_since(t0);
  r.events = loop.steps();
  r.sim_now_ns = loop.now().ns();
  r.sim_steps = loop.steps();
  FRACTOS_CHECK(checksum != 0);
  return r;
}

// Full face-verification pipeline: frontend -> FS(DAX) -> block adaptor -> GPU -> respond.
SoakResult facever_soak(int total_requests) {
  System sys;
  auto cluster = FaceVerifyCluster::build(&sys);
  FaceVerifyParams params;
  params.image_bytes = 64 << 10;
  params.images_per_batch = 8;
  params.num_batches = 8;
  params.pool_slots = 8;
  params.per_image_compute = Duration::micros(120);
  FaceVerifyFractos app(&sys, &cluster, Loc::kHost, params);
  app.ingest_database();
  sys.await_ok(app.verify(0));  // warm-up

  int issued = 0;
  int done = 0;
  std::function<void()> next = [&]() {
    if (issued == total_requests) {
      return;
    }
    const uint32_t batch = static_cast<uint32_t>(issued++ % 8);
    app.verify(batch).on_ready([&](Result<bool>&& r) {
      FRACTOS_CHECK(r.ok() && r.value());
      ++done;
      next();
    });
  };

  const uint64_t steps0 = sys.loop().steps();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 8; ++i) {
    next();
  }
  sys.loop().run_until([&]() { return done == total_requests; });
  SoakResult r;
  r.name = "facever";
  r.wall_ms = wall_ms_since(t0);
  r.events = sys.loop().steps() - steps0;
  r.requests = static_cast<uint64_t>(total_requests);
  r.sim_now_ns = sys.loop().now().ns();
  r.sim_steps = sys.loop().steps();
  return r;
}

// Payload-heavy storage path: FractOS FS random reads (256 KiB) through the block adaptor.
SoakResult storage_soak(int total_ios) {
  constexpr uint64_t kIo = 256 << 10;
  constexpr int kInflight = 4;
  constexpr uint64_t kFileBytes = 64ull << 20;

  System sys;
  const uint32_t cn = sys.add_node("client");
  const uint32_t fn = sys.add_node("fs");
  const uint32_t sn = sys.add_node("storage");
  Controller& cc = sys.add_controller(cn, Loc::kHost);
  Controller& cf = sys.add_controller(fn, Loc::kHost);
  Controller& cs = sys.add_controller(sn, Loc::kHost);
  (void)cc;
  auto nvme = std::make_unique<SimNvme>(&sys.loop());
  BlockAdaptor block(&sys, sn, cs, nvme.get());
  auto fs = FsService::bootstrap(&sys, fn, cf, block.process(), block.mgmt_endpoint());
  Process& client = sys.spawn("client", cn, cc, kInflight * kIo + (2 << 20));
  const CapId create_ep =
      sys.bootstrap_grant(fs->process(), fs->create_endpoint(), client).value();
  const CapId open_ep = sys.bootstrap_grant(fs->process(), fs->open_endpoint(), client).value();
  FRACTOS_CHECK(sys.await(FsClient::create(client, create_ep, "bench", kFileBytes)).ok());
  auto file = sys.await_ok(FsClient::open(client, open_ep, "bench", false, false));
  std::vector<CapId> bufs;
  for (int i = 0; i < kInflight; ++i) {
    bufs.push_back(
        sys.await_ok(client.memory_create(client.alloc(kIo), kIo, Perms::kReadWrite)));
  }

  Rng rng(7);
  int issued = 0;
  int done = 0;
  std::function<void()> next = [&]() {
    if (issued == total_ios) {
      return;
    }
    const int idx = issued++;
    const uint64_t slots = kFileBytes / kIo;
    const uint64_t off = rng.next_below(slots) * kIo;
    FsClient::read(client, file, off, kIo, bufs[static_cast<size_t>(idx % kInflight)])
        .on_ready([&](Status s) {
          FRACTOS_CHECK(s.ok());
          ++done;
          next();
        });
  };

  const uint64_t steps0 = sys.loop().steps();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kInflight; ++i) {
    next();
  }
  sys.loop().run_until([&]() { return done == total_ios; });
  SoakResult r;
  r.name = "storage";
  r.wall_ms = wall_ms_since(t0);
  r.events = sys.loop().steps() - steps0;
  r.requests = static_cast<uint64_t>(total_ios);
  r.sim_now_ns = sys.loop().now().ns();
  r.sim_steps = sys.loop().steps();
  return r;
}

// --- ObjectTable ledger -------------------------------------------------------------------
//
// The capability table at the sizes the simulator runs it: one small table per Controller
// (10 and 10^3 objects) and the 10^6-object owner of bench_capability. Inserts go into fresh
// tables with construction inside the timed region, so a table's first-use cost shows at the
// small sizes; the tables stay alive until timing ends, so teardown is excluded. The heap
// footprint of the small tables (the ~50 objects of each of facever_fattree's 256
// Controllers) is recorded per object, the tables themselves included.

struct ObjTableLedger {
  double insert_ns_n10 = 0;
  double insert_ns_n1k = 0;
  double insert_ns_n1m = 0;
  double resolve_ns_n1m = 0;
  double heap_bytes_per_object_n50 = 0;
};

double insert_ns_per_op(size_t objects, size_t tables,
                        std::vector<std::unique_ptr<ObjectTable>>& out) {
  out.clear();
  out.reserve(tables);
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t t = 0; t < tables; ++t) {
    out.push_back(std::make_unique<ObjectTable>(/*owner=*/1));
    for (size_t i = 0; i < objects; ++i) {
      FRACTOS_CHECK(
          out.back()->create_memory(1, MemoryDesc{0, 0, i * 64, 64}, Perms::kRead).ok());
    }
  }
  return wall_ms_since(t0) * 1e6 / static_cast<double>(objects * tables);
}

ObjTableLedger objtable_ledger() {
  ObjTableLedger l;
  std::vector<std::unique_ptr<ObjectTable>> tables;
  l.insert_ns_n10 = insert_ns_per_op(10, 1000, tables);
  l.insert_ns_n1k = insert_ns_per_op(1000, 100, tables);
  l.insert_ns_n1m = insert_ns_per_op(1'000'000, 1, tables);

  // Indices are assigned 1..n in a fresh table, so uniform picks need no index list.
  constexpr int kResolves = 1'000'000;
  const ObjectTable& big = *tables.front();
  Rng rng(11);
  uint64_t bytes = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kResolves; ++i) {
    const ObjectIndex idx = 1 + rng.next_below(big.live_count());
    bytes += big.resolve_memory(idx, big.reboot_count()).value().desc.size;
  }
  l.resolve_ns_n1m = wall_ms_since(t0) * 1e6 / kResolves;
  FRACTOS_CHECK(bytes == uint64_t{64} * kResolves);

  tables.clear();
  const size_t heap0 = heap_in_use_bytes();
  insert_ns_per_op(50, 256, tables);
  l.heap_bytes_per_object_n50 =
      static_cast<double>(heap_in_use_bytes() - heap0) / (50.0 * 256);
  return l;
}

struct CapSpaceLedger {
  double install_ns_n1m = 0;
  double get_ns_n1m = 0;
  double purge_ns_n1m = 0;
  double heap_bytes_per_cap = 0;
  double heap_bytes_per_object = 0;
};

// The capability layer at production scale: 10^6 capabilities on distinct objects in one
// space (the capability_1m holder), and 10^6 objects in one table.
CapSpaceLedger capspace_ledger() {
  constexpr uint32_t kN = 1'000'000;
  CapSpaceLedger l;
  {
    const size_t heap0 = heap_in_use_bytes();
    ObjectTable table(/*owner=*/1);
    for (uint32_t i = 0; i < kN; ++i) {
      FRACTOS_CHECK(table.create_memory(1, MemoryDesc{0, 0, i * 64ull, 64}, Perms::kRead).ok());
    }
    l.heap_bytes_per_object =
        static_cast<double>(heap_in_use_bytes() - heap0) / static_cast<double>(kN);
  }

  const size_t heap0 = heap_in_use_bytes();
  CapSpace space(kN);
  CapEntry entry;
  entry.ref = ObjectRef{1, 0, 1};
  entry.perms = Perms::kRead;
  auto t0 = std::chrono::steady_clock::now();
  for (uint32_t i = 0; i < kN; ++i) {
    entry.ref.index = i + 1;
    entry.mem = MemoryDesc{0, 0, i * 64ull, 64};
    FRACTOS_CHECK(space.install(entry).value() == i);
  }
  l.install_ns_n1m = wall_ms_since(t0) * 1e6 / kN;
  l.heap_bytes_per_cap =
      static_cast<double>(heap_in_use_bytes() - heap0) / static_cast<double>(kN);

  Rng rng(13);
  uint64_t bytes = 0;
  t0 = std::chrono::steady_clock::now();
  for (uint32_t i = 0; i < kN; ++i) {
    bytes += space.get(static_cast<CapId>(rng.next_below(kN))).value().mem.size;
  }
  l.get_ns_n1m = wall_ms_since(t0) * 1e6 / kN;
  FRACTOS_CHECK(bytes == uint64_t{64} * kN);

  // Revocation cleanup in 64-ref batches, in an order unrelated to install order.
  std::vector<ObjectRef> refs;
  refs.reserve(kN);
  for (uint32_t i = 0; i < kN; ++i) {
    refs.push_back(ObjectRef{1, i + 1, 1});
  }
  for (size_t i = refs.size() - 1; i > 0; --i) {
    std::swap(refs[i], refs[rng.next_below(i + 1)]);
  }
  size_t purged = 0;
  std::vector<ObjectRef> batch;
  t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < refs.size(); i += 64) {
    batch.assign(refs.begin() + static_cast<std::ptrdiff_t>(i),
                 refs.begin() + static_cast<std::ptrdiff_t>(std::min(i + 64, refs.size())));
    purged += space.purge_refs(batch);
  }
  l.purge_ns_n1m = wall_ms_since(t0) * 1e6 / kN;
  FRACTOS_CHECK(purged == kN && space.size() == 0);
  return l;
}

// --- Per-layer ledger -----------------------------------------------------------------------
//
// The layers perfbench's --trace probes do not isolate. This binary links the counting
// operator new (src/base/alloc_count.h), which forwards to malloc like the default one.

struct LayerLedger {
  double switch_traverse_ns = 0;
  double controller_dispatch_ns = 0;
  double allocs_per_control_frame = 0;
};

// The perfbench wire probe's frame: a RequestInvoke with one 8-byte immediate and two
// capability arguments.
Envelope probe_invoke() {
  RequestInvokeMsg m;
  m.cid = 42;
  m.imms.push_back(ImmExtent{48, std::vector<uint8_t>(8, 0x5a)});
  m.caps = {7, 9};
  return make_envelope(1234, std::move(m));
}

// One egress-port admission, on its own: 8 ports, a 1100-byte message every 100 ns, so the
// ports queue without ever pausing.
double switch_traverse_ns() {
  constexpr int kOps = 2'000'000;
  Switch sw(0, "tor", SwitchParams{});
  Time at;
  int64_t queued_ns = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    queued_ns += sw.traverse(static_cast<uint32_t>(i & 7), at, 1100).queued.ns();
    at = at + Duration::nanos(100);
  }
  const double ns = wall_ms_since(t0) * 1e6 / kOps;
  FRACTOS_CHECK(sw.port_stats(0).messages == kOps / 8 && queued_ns >= 0);
  return ns;
}

// The Controller's dispatch of one envelope, apart from any invoke: DeliverAck frames (9
// bytes, no reply) fed to the Controller side of a Process channel through the channel's
// raw-bytes entry, so no fabric leg is timed — only the decode, the cost model, the core's
// queue and the handler.
double controller_dispatch_ns() {
  constexpr int kBatches = 4000;
  constexpr int kBatch = 64;
  System sys;
  const uint32_t node = sys.add_node("n0");
  Controller& ctl = sys.add_controller(node, Loc::kHost);
  constexpr ProcessId kPid = 9999;
  Channel& chan = ctl.attach_process(kPid, node, /*heap_pool=*/0);
  const std::vector<uint8_t> ack = encode_envelope(make_envelope(1, DeliverAckMsg{}));
  const uint64_t syscalls0 = ctl.stats().syscalls;
  const auto t0 = std::chrono::steady_clock::now();
  for (int b = 0; b < kBatches; ++b) {
    for (int i = 0; i < kBatch; ++i) {
      chan.inject_raw_for_test(ack);
    }
    sys.loop().run();
  }
  const double ns = wall_ms_since(t0) * 1e6 / (kBatches * kBatch);
  FRACTOS_CHECK(ctl.stats().syscalls - syscalls0 == uint64_t{kBatches} * kBatch);
  return ns;
}

// Heap blocks per control frame, encode -> QueuePair send -> delivery -> decode, on a clean
// fabric once the event loop is warm.
double allocs_per_control_frame() {
  constexpr int kFrames = 10'000;
  EventLoop loop;
  Network net(&loop);
  net.add_node("a");
  net.add_node("b");
  Channel a(&net, Endpoint{0, Loc::kHost});
  Channel b(&net, Endpoint{1, Loc::kHost});
  Channel::connect(a, b);
  uint64_t decoded = 0;  // the handler runs only for a frame that decoded
  b.set_handler([&decoded](Envelope&&) { ++decoded; });
  const Envelope env = probe_invoke();
  auto frame = [&]() {
    a.send(Traffic::kControl, env);
    loop.run();
  };
  // Warm-up: one no-op event in each timer-wheel bucket (2048 of 128 ns; a bucket keeps its
  // capacity once it has held an event, as every bucket has in a long run), then frames.
  for (int64_t ns = 0; ns < 2 * 2048 * 128; ns += 64) {
    loop.schedule_after(Duration::nanos(ns), []() {});
  }
  loop.run();
  for (int i = 0; i < 64; ++i) {
    frame();
  }
  const uint64_t blocks = heap_allocations_during([&]() {
    for (int i = 0; i < kFrames; ++i) {
      frame();
    }
  });
  FRACTOS_CHECK(decoded == 64 + kFrames);
  return static_cast<double>(blocks) / kFrames;
}

LayerLedger layer_ledger() {
  LayerLedger l;
  l.switch_traverse_ns = switch_traverse_ns();
  l.controller_dispatch_ns = controller_dispatch_ns();
  l.allocs_per_control_frame = allocs_per_control_frame();
  return l;
}

void write_json(const std::vector<SoakResult>& soaks, const ObjTableLedger& objtable,
                const CapSpaceLedger& capspace, const LayerLedger& layers,
                const std::string& host) {
  char buf[512];
  std::string out;
  uint64_t total_events = 0;
  double total_ms = 0;
  out += "{\n  \"bench\": \"simspeed\",\n  \"soaks\": [\n";
  for (size_t i = 0; i < soaks.size(); ++i) {
    const SoakResult& s = soaks[i];
    total_events += s.events;
    total_ms += s.wall_ms;
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"events\": %" PRIu64 ", \"requests\": %" PRIu64
                  ", \"wall_ms\": %.3f, \"events_per_sec\": %.0f, \"requests_per_sec\": %.0f"
                  ", \"sim_now_ns\": %" PRId64 ", \"sim_steps\": %" PRIu64 "}%s\n",
                  s.name.c_str(), s.events, s.requests, s.wall_ms, s.events_per_sec(),
                  s.requests_per_sec(), s.sim_now_ns, s.sim_steps,
                  i + 1 < soaks.size() ? "," : "");
    out += buf;
  }
  const double aggregate = total_ms > 0 ? total_events / (total_ms / 1e3) : 0.0;
  std::snprintf(buf, sizeof(buf),
                "  ],\n  \"aggregate_events_per_sec\": %.0f,\n"
                "  \"objtable\": {\"insert_ns_n10\": %.1f, \"insert_ns_n1k\": %.1f, "
                "\"insert_ns_n1m\": %.1f, \"resolve_ns_n1m\": %.1f, "
                "\"heap_bytes_per_object_n50\": %.1f},\n",
                aggregate, objtable.insert_ns_n10, objtable.insert_ns_n1k,
                objtable.insert_ns_n1m, objtable.resolve_ns_n1m,
                objtable.heap_bytes_per_object_n50);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"capspace\": {\"install_ns_n1m\": %.1f, \"get_ns_n1m\": %.1f, "
                "\"purge_ns_n1m\": %.1f, \"heap_bytes_per_cap\": %.1f, "
                "\"heap_bytes_per_object\": %.1f},\n",
                capspace.install_ns_n1m, capspace.get_ns_n1m, capspace.purge_ns_n1m,
                capspace.heap_bytes_per_cap, capspace.heap_bytes_per_object);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"layers\": {\"switch_traverse_ns\": %.1f, "
                "\"controller_dispatch_ns\": %.1f, \"allocs_per_control_frame\": %.2f},\n",
                layers.switch_traverse_ns, layers.controller_dispatch_ns,
                layers.allocs_per_control_frame);
  out += buf;
  out += "  " + host + "\n}\n";
  bench::emit_bench_json("bench_simspeed", "BENCH_simspeed.json", out);
}

}  // namespace
}  // namespace fractos

int main() {
  using namespace fractos;
  const auto run_start = std::chrono::steady_clock::now();
  std::printf("Engine wall-clock speed: events/sec and requests/sec by soak\n");

  std::vector<SoakResult> soaks;
  soaks.push_back(timer_soak(2'000'000));
  soaks.push_back(facever_soak(256));
  soaks.push_back(storage_soak(192));

  Table t("simspeed — wall-clock engine throughput",
          {"soak", "events", "wall ms", "events/s", "requests/s", "sim steps", "sim ns"});
  for (const SoakResult& s : soaks) {
    t.row({s.name, std::to_string(s.events), fmt(s.wall_ms, 1), fmt(s.events_per_sec(), 0),
           fmt(s.requests_per_sec(), 0), std::to_string(s.sim_steps),
           std::to_string(s.sim_now_ns)});
  }
  t.print();

  const ObjTableLedger objtable = objtable_ledger();
  Table o("objtable — ObjectTable ns/op (fresh tables, construction included)",
          {"op", "objects per table", "ns/op"});
  o.row({"insert", "10", fmt(objtable.insert_ns_n10, 1)});
  o.row({"insert", "1000", fmt(objtable.insert_ns_n1k, 1)});
  o.row({"insert", "1000000", fmt(objtable.insert_ns_n1m, 1)});
  o.row({"resolve", "1000000", fmt(objtable.resolve_ns_n1m, 1)});
  o.print();
  std::printf("heap bytes per object, 256 tables of 50: %.1f\n",
              objtable.heap_bytes_per_object_n50);

  const CapSpaceLedger capspace = capspace_ledger();
  Table c("capspace — the capability layer at 10^6 entries",
          {"measure", "value"});
  c.row({"CapSpace install ns/op", fmt(capspace.install_ns_n1m, 1)});
  c.row({"CapSpace get ns/op", fmt(capspace.get_ns_n1m, 1)});
  c.row({"CapSpace purge_refs ns/entry", fmt(capspace.purge_ns_n1m, 1)});
  c.row({"heap bytes per capability", fmt(capspace.heap_bytes_per_cap, 1)});
  c.row({"heap bytes per ObjectTable object", fmt(capspace.heap_bytes_per_object, 1)});
  c.print();

  const LayerLedger layers = layer_ledger();
  Table l("layers — per-layer ledger", {"measure", "value"});
  l.row({"Switch::traverse ns/op", fmt(layers.switch_traverse_ns, 1)});
  l.row({"Controller dispatch ns/envelope", fmt(layers.controller_dispatch_ns, 1)});
  l.row({"heap blocks per control frame", fmt(layers.allocs_per_control_frame, 2)});
  l.print();

  write_json(soaks, objtable, capspace, layers, bench::host_json(run_start));
  return 0;
}
