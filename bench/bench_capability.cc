// Fig. 7: latency of capability delegation and revocation.
//
// Delegation: an RPC whose arguments include capabilities — each delegated capability costs
// (de)serialization at both Controllers (paper: ~2.4 us per capability on CPUs, ~3.8 us on
// sNICs, on top of the plain RPC).
//
// Revocation: N capabilities delegated to a remote Process are revoked. "Traditional"
// capabilities get one revocation-tree child each (individually revocable -> N revokes);
// FractOS-optimized capabilities share one object (one revoke kills all, constant time).
// Paper shape: traditional is linear in N, optimized flat.
//
// Production-scale mode: the same machinery at 10^6 live capabilities, A/B in one binary.
// Baseline charges depth-proportional translation (every invoke of a depth-6 delegation
// chain walks the chain at the owner) and sends every owner-bound peer op as its own
// frame; hot path adds the owner-side translation cache and 16-op peer batching. Emits
// BENCH_capability.json (override: FRACTOS_BENCH_JSON) for the CI exact-match gate, which
// compares "production_scale"; the top-level "host" member (whole-run wall time and peak
// RSS) is not gated.

#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "src/core/system.h"

namespace fractos {
namespace {

using bench::Table;
using bench::fmt_us;

double delegation_rpc_us(Loc ctrl_loc, int n_caps, int iters = 100,
                         bool cache_serialized = false) {
  SystemConfig cfg;
  cfg.cache_serialized_requests = cache_serialized;
  System sys(cfg);
  const uint32_t n0 = sys.add_node("n0");
  const uint32_t n1 = sys.add_node("n1");
  Controller& c0 = sys.add_controller(n0, ctrl_loc);
  Controller& c1 = sys.add_controller(n1, ctrl_loc);
  Process& client = sys.spawn("client", n0, c0);
  Process& server = sys.spawn("server", n1, c1);

  const CapId ep = sys.await_ok(server.serve({}, [&server](Process::Received r) {
    server.request_invoke(r.cap(r.num_caps() - 1));
  }));
  const CapId ep_client = sys.bootstrap_grant(server, ep, client).value();
  bool got_reply = false;
  const CapId reply = sys.await_ok(client.serve({}, [&got_reply](Process::Received) {
    got_reply = true;
  }));
  // The memory capabilities to delegate.
  std::vector<CapId> mems;
  for (int i = 0; i < n_caps; ++i) {
    mems.push_back(sys.await_ok(client.memory_create(client.alloc(4096), 4096, Perms::kRead)));
  }

  Summary s;
  for (int i = 0; i < iters; ++i) {
    got_reply = false;
    Process::Args args;
    for (CapId m : mems) {
      args.cap(m);
    }
    args.cap(reply);
    const Time start = sys.loop().now();
    FRACTOS_CHECK(sys.await(client.request_invoke(ep_client, std::move(args))).ok());
    sys.loop().run_until([&]() { return got_reply; });
    s.add(sys.loop().now() - start);
  }
  return s.mean();
}

// Revokes `n` delegated capabilities; `one_revtree_per_cap` selects the traditional scheme.
double revocation_us(Loc ctrl_loc, int n, bool one_revtree_per_cap) {
  System sys;
  const uint32_t n0 = sys.add_node("n0");
  const uint32_t n1 = sys.add_node("n1");
  Controller& c0 = sys.add_controller(n0, ctrl_loc);
  Controller& c1 = sys.add_controller(n1, ctrl_loc);
  Process& owner = sys.spawn("owner", n0, c0);
  Process& holder = sys.spawn("holder", n1, c1);

  // The shared base object all capabilities reference.
  const CapId base = sys.await_ok(owner.memory_create(owner.alloc(4096), 4096, Perms::kRead));
  std::vector<CapId> to_revoke;
  if (one_revtree_per_cap) {
    // Traditional: one individually revocable (revtree child) object per delegation.
    for (int i = 0; i < n; ++i) {
      const CapId child = sys.await_ok(owner.cap_create_revtree(base));
      FRACTOS_CHECK(sys.bootstrap_grant(owner, child, holder).ok());
      to_revoke.push_back(child);
    }
  } else {
    // Optimized: every delegatee points at ONE revtree child; one revoke kills all.
    const CapId child = sys.await_ok(owner.cap_create_revtree(base));
    for (int i = 0; i < n; ++i) {
      FRACTOS_CHECK(sys.bootstrap_grant(owner, child, holder).ok());
    }
    to_revoke.push_back(child);
  }

  const Time start = sys.loop().now();
  for (CapId cid : to_revoke) {
    FRACTOS_CHECK(sys.await(owner.cap_revoke(cid)).ok());
  }
  // Revocation is effective at this point; the cleanup broadcast/acks drain OFF the
  // critical path and are deliberately excluded from the measured latency.
  const double us = (sys.loop().now() - start).to_us();
  sys.loop().run();
  return us;
}

// --- production scale (10^6 live capabilities) ----------------------------------------------

struct ProdRun {
  size_t live_caps = 0;        // live objects at the owner after the fill
  size_t holder_caps = 0;      // installed entries in the remote holder's cap space
  double invoke_p50_us = 0;
  double invoke_p99_us = 0;
  double revoke_p50_us = 0;
  double revoke_p99_us = 0;
  uint64_t xlate_hits = 0;
  uint64_t xlate_misses = 0;
};

ProdRun production_scale(bool hot_path) {
  constexpr size_t kLiveCaps = 1'000'000;
  constexpr int kChains = 64;    // distinct delegation chains the client invokes
  constexpr int kDepth = 6;      // derivation layers per chain (root = 1)
  constexpr int kInvokes = 8000; // closed-loop invoke measurements (cold misses < 1%)
  constexpr int kRevokes = 1024; // open-loop remote revokes (batching shows here)

  SystemConfig cfg;
  // Both modes price translation by chain depth — that is the honest baseline; the hot
  // path then earns its keep by skipping the walk on cache hits and amortizing peer-op
  // framing in batches.
  cfg.charge_chain_traversal = true;
  if (hot_path) {
    cfg.translation_cache_entries = 1u << 16;
    cfg.peer_op_batch_max = 16;
    cfg.peer_op_batch_delay = Duration::micros(2);
  }
  System sys(cfg);
  const uint32_t n0 = sys.add_node("owner");
  const uint32_t n1 = sys.add_node("holder");
  Controller& c0 = sys.add_controller(n0, Loc::kHost);
  Controller& c1 = sys.add_controller(n1, Loc::kHost);
  Process& provider = sys.spawn("provider", n0, c0);
  Process& client = sys.spawn("client", n1, c1);

  uint64_t delivered = 0;
  const CapId ep = sys.await_ok(provider.serve({}, [&delivered](Process::Received) {
    ++delivered;
  }));

  // Deep delegation chains, derived at the owner (layer d writes its own disjoint
  // immediate extent, respecting the immutability rule).
  std::vector<CapId> chains;
  for (int i = 0; i < kChains; ++i) {
    CapId cur = ep;
    for (int d = 1; d < kDepth; ++d) {
      cur = sys.await_ok(provider.request_derive(
          cur, Process::Args().imm_u64(8 * static_cast<uint32_t>(d), uint64_t(d))));
    }
    chains.push_back(sys.bootstrap_grant(provider, cur, client).value());
  }

  // Revocation targets: revtree children of a shared base, delegated to the remote holder
  // (the holder's revoke is an owner-bound peer op — exactly what batching coalesces).
  const CapId base =
      sys.await_ok(provider.memory_create(provider.alloc(4096), 4096, Perms::kRead));
  std::vector<CapId> to_revoke;
  for (int i = 0; i < kRevokes; ++i) {
    const CapId child = sys.await_ok(provider.cap_create_revtree(base));
    to_revoke.push_back(sys.bootstrap_grant(provider, child, client).value());
  }

  // Production fill: bulk-register objects and install the holder's capabilities through
  // the trusted bootstrap interface (the syscall path would spend the whole bench budget
  // on setup messages). These are live table entries like any other — every measured
  // lookup, insert, and revoke below runs against a table holding ~10^6 objects.
  ObjectTable& table = c0.table();
  size_t installed = 0;
  while (table.live_count() < kLiveCaps) {
    auto idx = table.create_memory(provider.pid(),
                                   MemoryDesc{n0, 0, installed * 64, 64}, Perms::kRead);
    FRACTOS_CHECK(idx.ok());
    CapEntry entry;
    entry.ref = table.ref_of(idx.value());
    entry.kind = ObjectKind::kMemory;
    entry.perms = Perms::kRead;
    entry.mem = MemoryDesc{n0, 0, installed * 64, 64};
    FRACTOS_CHECK(c1.bootstrap_install(client.pid(), entry).ok());
    ++installed;
  }

  ProdRun out;
  out.live_caps = table.live_count();
  out.holder_caps = c1.cap_space_size(client.pid());

  // Invoke latency, closed loop: client -> owner (forwarded) -> provider delivery. The
  // baseline walks the depth-6 chain at the owner on every invoke; the hot path misses
  // once per chain and then hits.
  Samples invoke_lat;
  for (int i = 0; i < kInvokes; ++i) {
    const CapId target = chains[static_cast<size_t>(i) % chains.size()];
    const uint64_t before = delivered;
    const Time t0 = sys.loop().now();
    FRACTOS_CHECK(sys.await(client.request_invoke(target)).ok());
    sys.loop().run_until([&]() { return delivered > before; });
    invoke_lat.add(sys.loop().now() - t0);
  }

  // Revoke latency, open loop: all revokes issued at once; per-op completion spread shows
  // the per-frame syscall overhead the batch path amortizes.
  Samples revoke_lat;
  size_t revoked = 0;
  for (const CapId cid : to_revoke) {
    const Time issue = sys.loop().now();
    client.cap_revoke(cid).on_ready([&revoke_lat, &revoked, &sys, issue](Status&& s) {
      FRACTOS_CHECK(s.ok());
      ++revoked;
      revoke_lat.add(sys.loop().now() - issue);
    });
  }
  sys.loop().run_until([&]() { return revoked == to_revoke.size(); });
  sys.loop().run();

  out.invoke_p50_us = invoke_lat.median();
  out.invoke_p99_us = invoke_lat.p99();
  out.revoke_p50_us = revoke_lat.median();
  out.revoke_p99_us = revoke_lat.p99();
  out.xlate_hits = c0.translation_cache().hits();
  out.xlate_misses = c0.translation_cache().misses();
  return out;
}

void write_json(const ProdRun& baseline, const ProdRun& hotpath, const std::string& host) {
  char buf[1024];
  std::string out = "{\n  \"bench\": \"capability\",\n  \"production_scale\": {\n";
  std::snprintf(buf, sizeof(buf),
                "    \"live_caps\": %zu,\n    \"holder_caps\": %zu,\n", baseline.live_caps,
                baseline.holder_caps);
  out += buf;
  auto mode = [&](const char* key, const ProdRun& r, bool last) {
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": {\"invoke_p50_us\": %.3f, \"invoke_p99_us\": %.3f, "
                  "\"revoke_p50_us\": %.3f, \"revoke_p99_us\": %.3f, "
                  "\"xlate_hits\": %" PRIu64 ", \"xlate_misses\": %" PRIu64 "}%s\n",
                  key, r.invoke_p50_us, r.invoke_p99_us, r.revoke_p50_us, r.revoke_p99_us,
                  r.xlate_hits, r.xlate_misses, last ? "" : ",");
    out += buf;
  };
  mode("baseline", baseline, false);
  mode("hotpath", hotpath, true);
  out += "  },\n  " + host + "\n}\n";
  bench::emit_bench_json("bench_capability", "BENCH_capability.json", out);
}

}  // namespace
}  // namespace fractos

int main() {
  using namespace fractos;
  const auto run_start = std::chrono::steady_clock::now();
  std::printf("Fig. 7: capability delegation and revocation latency\n");
  std::printf("(paper: ~2.4us/3.8us per delegated capability on CPU/sNIC; revocation with one\n");
  std::printf(" revtree per cap grows linearly, the shared-revtree optimization stays flat)\n");

  Table d("Fig. 7a — RPC latency with capability delegation",
          {"caps delegated", "CPU", "sNIC", "per-cap CPU", "per-cap sNIC"});
  const double base_cpu = delegation_rpc_us(Loc::kHost, 0);
  const double base_snic = delegation_rpc_us(Loc::kSnic, 0);
  for (int n : {0, 1, 2, 4, 8}) {
    const double cpu = delegation_rpc_us(Loc::kHost, n);
    const double snic = delegation_rpc_us(Loc::kSnic, n);
    d.row({std::to_string(n), fmt_us(cpu), fmt_us(snic),
           n > 0 ? fmt_us((cpu - base_cpu) / n) : "-",
           n > 0 ? fmt_us((snic - base_snic) / n) : "-"});
  }
  d.print();

  Table r("Fig. 7b — revocation latency vs capabilities on the revocation tree (CPU)",
          {"caps", "1 revtree/cap (traditional)", "shared revtree (FractOS)"});
  for (int n : {1, 4, 16, 64, 256}) {
    r.row({std::to_string(n), fmt_us(revocation_us(Loc::kHost, n, true)),
           fmt_us(revocation_us(Loc::kHost, n, false))});
  }
  r.print();

  // Ablation: the paper's suggested serialized-Request cache (Section 6.1, "capability
  // delegation has an acceptable cost that could be reduced through additional
  // optimizations, e.g., by caching serialized Requests").
  Table c("Ablation — serialized-Request cache, repeat delegation of the same capabilities",
          {"caps delegated", "no cache", "with cache", "saved"});
  for (int n : {1, 4, 8}) {
    const double plain = delegation_rpc_us(Loc::kHost, n, 100, false);
    const double cached = delegation_rpc_us(Loc::kHost, n, 100, true);
    c.row({std::to_string(n), fmt_us(plain), fmt_us(cached), fmt_us(plain - cached)});
  }
  c.print();

  // Production scale: 10^6 live capabilities, invoke/revoke tail latency, A/B against the
  // capability hot path (translation cache + peer-op batching) in the same binary.
  const ProdRun baseline = production_scale(/*hot_path=*/false);
  const ProdRun hotpath = production_scale(/*hot_path=*/true);
  Table p("Production scale — 10^6 live capabilities, depth-6 delegation chains (CPU)",
          {"mode", "invoke p50", "invoke p99", "revoke p50", "revoke p99", "xlate hit/miss"});
  auto hitmiss = [](const ProdRun& r) {
    return std::to_string(r.xlate_hits) + "/" + std::to_string(r.xlate_misses);
  };
  p.row({"baseline (chain walk, single-op frames)", fmt_us(baseline.invoke_p50_us),
         fmt_us(baseline.invoke_p99_us), fmt_us(baseline.revoke_p50_us),
         fmt_us(baseline.revoke_p99_us), hitmiss(baseline)});
  p.row({"hot path (xlate cache + 16-op batches)", fmt_us(hotpath.invoke_p50_us),
         fmt_us(hotpath.invoke_p99_us), fmt_us(hotpath.revoke_p50_us),
         fmt_us(hotpath.revoke_p99_us), hitmiss(hotpath)});
  p.print();
  std::printf("  (%zu live objects at the owner, %zu caps installed at the holder)\n",
              baseline.live_caps, baseline.holder_caps);
  write_json(baseline, hotpath, bench::host_json(run_start));
  return 0;
}
