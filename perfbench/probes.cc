// Per-layer host-time probes: fixed-size loops over one layer's public functions, timed on
// the host clock. Each probe reports the median over a few rounds of host ns per op (us for
// the coarse ones), so one slow round does not move it. They run only in the traced pass.

#include <algorithm>
#include <memory>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/apps/face_verify.h"
#include "src/sim/rng.h"
#include "src/wire/message.h"

namespace fractos::perfbench {
namespace {

constexpr int kRounds = 5;

// Median over `rounds` calls of round() / ops, in host nanoseconds per op. round() returns
// the host seconds it measured (so per-round set-up stays outside the timing).
template <typename Round>
double median_ns_per_op(int rounds, double ops, Round&& round) {
  std::vector<double> ns;
  for (int r = 0; r < rounds; ++r) {
    ns.push_back(round() * 1e9 / ops);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

template <typename Fn>
double timed(Fn&& fn) {
  const double t0 = host_seconds();
  fn();
  return host_seconds() - t0;
}

// sim: one schedule_after + its firing, delays spread over the near-future wheel.
double schedule_fire_ns() {
  constexpr int kEvents = 100'000;
  return median_ns_per_op(kRounds, kEvents, []() {
    EventLoop loop;
    uint64_t fired = 0;
    const double s = timed([&]() {
      for (int i = 0; i < kEvents; ++i) {
        loop.schedule_after(Duration::nanos((i * 7919) % 65536), [&fired]() { ++fired; });
      }
      loop.run();
    });
    FRACTOS_CHECK(fired == kEvents);
    return s;
  });
}

// futures: one link of an and_then chain, resolved through the whole chain.
double then_ns() {
  constexpr int kLinks = 1000;
  constexpr int kChains = 100;
  return median_ns_per_op(kRounds, kLinks * kChains, []() {
    return timed([]() {
      for (int c = 0; c < kChains; ++c) {
        Promise<Result<uint64_t>> p;
        Future<Result<uint64_t>> f = p.future();
        for (int i = 0; i < kLinks; ++i) {
          f = f.and_then([](uint64_t v) { return v + 1; });
        }
        p.set(Result<uint64_t>(uint64_t{0}));
        FRACTOS_CHECK(f.ready());
        Result<uint64_t> r = f.take();
        FRACTOS_CHECK(r.ok() && r.value() == kLinks);
      }
    });
  });
}

// wire: a RequestInvoke envelope with one 8-byte immediate and two capability arguments.
Envelope invoke_envelope() {
  RequestInvokeMsg m;
  m.cid = 42;
  m.imms.push_back(ImmExtent{48, std::vector<uint8_t>(8, 0x5a)});
  m.caps = {7, 9};
  return make_envelope(1234, std::move(m));
}

double encode_ns() {
  constexpr int kOps = 200'000;
  const Envelope env = invoke_envelope();
  return median_ns_per_op(kRounds, kOps, [&]() {
    size_t bytes = 0;
    const double s = timed([&]() {
      for (int i = 0; i < kOps; ++i) {
        bytes += encode_envelope(env).size();
      }
    });
    FRACTOS_CHECK(bytes > 0);
    return s;
  });
}

double decode_ns() {
  constexpr int kOps = 200'000;
  const std::vector<uint8_t> buf = encode_envelope(invoke_envelope());
  return median_ns_per_op(kRounds, kOps, [&]() {
    uint64_t seqs = 0;
    const double s = timed([&]() {
      for (int i = 0; i < kOps; ++i) {
        Result<Envelope> env = decode_envelope(buf);
        FRACTOS_CHECK(env.ok());
        seqs += env.value().seq;
      }
    });
    FRACTOS_CHECK(seqs == uint64_t{1234} * kOps);
    return s;
  });
}

// fabric: Network::send from rack 0 to rack 1 of a fat tree, delivery included.
double send_ns() {
  constexpr int kSends = 20'000;
  return median_ns_per_op(kRounds, kSends, []() {
    EventLoop loop;
    Network net(&loop, FabricParams{}, TopologySpec::fat_tree(2, 2));
    for (const char* name : {"n0", "n1", "n2", "n3"}) {
      net.add_node(name);
    }
    const Payload payload(std::vector<uint8_t>(256, 0xab));
    uint64_t delivered = 0;
    const double s = timed([&]() {
      for (int i = 0; i < kSends; ++i) {
        net.send(Endpoint{0, Loc::kHost}, Endpoint{2, Loc::kHost}, Traffic::kControl, payload,
                 [&delivered](Payload) { ++delivered; });
      }
      loop.run();
    });
    FRACTOS_CHECK(delivered == kSends);
    return s;
  });
}

// cap: filling fresh ObjectTables to `objects` each (construction included), per insert.
// Keeps the last filled table and its indices for the lookup probes.
struct FilledTable {
  std::unique_ptr<ObjectTable> table;
  std::vector<ObjectIndex> indices;
};

double insert_ns(size_t objects, int tables, int rounds, FilledTable* keep = nullptr) {
  return median_ns_per_op(rounds, static_cast<double>(objects) * tables, [&]() {
    std::vector<FilledTable> filled(static_cast<size_t>(tables));
    if (keep != nullptr) {
      for (FilledTable& ft : filled) {
        ft.indices.reserve(objects);
      }
    }
    const double s = timed([&]() {
      for (FilledTable& ft : filled) {
        ft.table = std::make_unique<ObjectTable>(1);
        for (size_t i = 0; i < objects; ++i) {
          auto idx = ft.table->create_memory(1, MemoryDesc{0, 0, i * 64, 64}, Perms::kRead);
          FRACTOS_CHECK(idx.ok());
          if (keep != nullptr) {
            ft.indices.push_back(idx.value());
          }
        }
      }
    });
    if (keep != nullptr) {
      *keep = std::move(filled.back());
    }
    return s;
  });
}

// cap: a new ObjectTable plus its first insert (the table's first-use cost), in us.
double table_new_us() {
  constexpr int kTables = 200;
  return median_ns_per_op(kRounds, kTables, []() {
           std::vector<std::unique_ptr<ObjectTable>> tables;
           tables.reserve(kTables);
           return timed([&]() {
             for (int i = 0; i < kTables; ++i) {
               tables.push_back(std::make_unique<ObjectTable>(1));
               FRACTOS_CHECK(
                   tables.back()->create_memory(1, MemoryDesc{0, 0, 0, 64}, Perms::kRead).ok());
             }
           });
         }) /
         1e3;
}

double resolve_ns(const FilledTable& ft, Rng& rng) {
  constexpr int kOps = 200'000;
  std::vector<ObjectIndex> picks;
  for (int i = 0; i < kOps; ++i) {
    picks.push_back(ft.indices[rng.next_below(ft.indices.size())]);
  }
  const uint32_t reboot = ft.table->reboot_count();
  return median_ns_per_op(kRounds, kOps, [&]() {
    uint64_t bytes = 0;
    const double s = timed([&]() {
      for (ObjectIndex idx : picks) {
        auto r = ft.table->resolve_memory(idx, reboot);
        FRACTOS_CHECK(r.ok());
        bytes += r.value().desc.size;
      }
    });
    FRACTOS_CHECK(bytes == uint64_t{64} * kOps);
    return s;
  });
}

// Revokes distinct random objects of the table (each revoke invalidates one leaf).
double revoke_ns(FilledTable& ft, Rng& rng) {
  constexpr size_t kOps = 10'000;
  std::vector<ObjectIndex>& idx = ft.indices;
  for (size_t i = 0; i < kRounds * kOps; ++i) {
    std::swap(idx[i], idx[i + rng.next_below(idx.size() - i)]);
  }
  const uint32_t reboot = ft.table->reboot_count();
  int round = 0;
  return median_ns_per_op(kRounds, kOps, [&]() {
    const size_t first = static_cast<size_t>(round++) * kOps;
    return timed([&]() {
      for (size_t i = first; i < first + kOps; ++i) {
        FRACTOS_CHECK(ft.table->revoke(idx[i], reboot).ok());
      }
    });
  });
}

// core: request_invoke round trip, client and provider on two Controllers, until delivery.
double null_invoke_ns() {
  constexpr int kInvokes = 5'000;
  System sys;
  const uint32_t n0 = sys.add_node("n0");
  const uint32_t n1 = sys.add_node("n1");
  Controller& c0 = sys.add_controller(n0, Loc::kHost);
  Controller& c1 = sys.add_controller(n1, Loc::kHost);
  Process& client = sys.spawn("client", n0, c0);
  Process& server = sys.spawn("server", n1, c1);
  uint64_t delivered = 0;
  const CapId ep = sys.await_ok(server.serve({}, [&delivered](Process::Received) {
    ++delivered;
  }));
  const CapId target = sys.bootstrap_grant(server, ep, client).value();
  return median_ns_per_op(kRounds, kInvokes, [&]() {
    return timed([&]() {
      for (int i = 0; i < kInvokes; ++i) {
        const uint64_t before = delivered;
        FRACTOS_CHECK(sys.await(client.request_invoke(target)).ok());
        FRACTOS_CHECK(sys.loop().run_until([&]() { return delivered > before; }));
      }
    });
  });
}

// apps: one 32 KiB synthetic database image, in us.
double face_image_us() {
  constexpr int kImages = 200;
  return median_ns_per_op(kRounds, kImages, []() {
           uint64_t sum = 0;
           const double s = timed([&]() {
             for (int i = 0; i < kImages; ++i) {
               const std::vector<uint8_t> img =
                   face_image(static_cast<uint32_t>(i % 16), static_cast<uint32_t>(i % 8),
                              32 << 10);
               sum += img.size() + img[static_cast<size_t>(i)];
             }
           });
           FRACTOS_CHECK(sum >= uint64_t{32 << 10} * kImages);
           return s;
         }) /
         1e3;
}

}  // namespace

void run_probes(uint64_t seed, Report& rep) {
  Rng rng(seed);
  rep.host("probe.sim.schedule_fire_ns", schedule_fire_ns());
  rep.host("probe.futures.then_ns", then_ns());
  rep.host("probe.wire.encode_ns", encode_ns());
  rep.host("probe.wire.decode_ns", decode_ns());
  rep.host("probe.fabric.send_ns", send_ns());
  rep.host("probe.cap.table_new_us", table_new_us());
  rep.host("probe.cap.insert_ns.n10", insert_ns(10, 2000, kRounds));
  rep.host("probe.cap.insert_ns.n1k", insert_ns(1000, 50, kRounds));
  FilledTable big;
  rep.host("probe.cap.insert_ns.n1m", insert_ns(1'000'000, 1, 3, &big));
  rep.host("probe.cap.resolve_ns.n1m", resolve_ns(big, rng));
  rep.host("probe.cap.revoke_ns.n1m", revoke_ns(big, rng));
  big = FilledTable{};
  rep.host("probe.core.null_invoke_ns", null_invoke_ns());
  rep.host("probe.apps.face_image_us", face_image_us());
}

}  // namespace fractos::perfbench
