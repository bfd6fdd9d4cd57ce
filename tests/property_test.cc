// Property-based tests: randomized workloads checked against reference models.
//
//  * random Request-derivation trees: merged arguments at delivery always equal the
//    base-first concatenation along the derived path;
//  * random delegation/revocation interleavings: a capability is usable iff no object on its
//    derivation path has been revoked (checked against a reference set);
//  * random scatter/gather memory_copy plans: final buffer contents equal a reference
//    byte-array simulation;
//  * wire fuzz: randomly generated well-formed envelopes always round-trip bit-exactly;
//  * seeded mutation of those frames and of a snapshot blob: the decoders never crash, a
//    frame that decodes re-encodes to exactly its bytes, and a snapshot either restores a
//    table whose every object can be revoked and erased or leaves the table empty.

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <map>
#include <memory>

#include "src/core/system.h"
#include "src/sim/rng.h"
#include "src/wire/message.h"

namespace fractos {
namespace {

// --- random derivation trees -----------------------------------------------------------------

TEST(PropertyRequestTrees, MergedArgsEqualPathConcatenation) {
  Rng rng(1234);
  for (int trial = 0; trial < 15; ++trial) {
    System sys;
    const uint32_t n0 = sys.add_node("n0");
    const uint32_t n1 = sys.add_node("n1");
    Controller& c0 = sys.add_controller(n0, Loc::kHost);
    Controller& c1 = sys.add_controller(n1, Loc::kHost);
    Process& provider = sys.spawn("provider", n0, c0);
    Process& deriver = sys.spawn("deriver", n1, c1);

    std::optional<Process::Received> got;
    const CapId root = sys.await_ok(provider.serve({}, [&](Process::Received r) { got = r; }));
    const CapId root_at_deriver = sys.bootstrap_grant(provider, root, deriver).value();

    // Build a random tree of derived requests; each node adds one 8-byte immediate at a
    // fresh offset. Track (cid, expected imms along its path).
    struct NodeInfo {
      CapId cid;
      std::map<uint32_t, uint64_t> imms;  // offset -> value along the path
    };
    std::vector<NodeInfo> nodes{{root_at_deriver, {}}};
    uint32_t next_offset = 0;
    const int n_nodes = 2 + static_cast<int>(rng.next_below(8));
    for (int i = 0; i < n_nodes; ++i) {
      const NodeInfo& base = nodes[rng.next_below(nodes.size())];
      const uint32_t off = next_offset;
      next_offset += 8;
      const uint64_t val = rng.next_u64();
      NodeInfo child;
      child.imms = base.imms;
      child.imms[off] = val;
      child.cid = sys.await_ok(
          deriver.request_derive(base.cid, Process::Args{}.imm_u64(off, val)));
      nodes.push_back(child);
    }

    // Invoke a random derived node and check the delivery matches its path exactly.
    const NodeInfo& pick = nodes[1 + rng.next_below(nodes.size() - 1)];
    got.reset();
    ASSERT_TRUE(sys.await(deriver.request_invoke(pick.cid)).ok());
    ASSERT_TRUE(sys.loop().run_until([&]() { return got.has_value(); }));
    for (const auto& [off, val] : pick.imms) {
      EXPECT_EQ(got->imm_u64(off), val) << "trial " << trial << " offset " << off;
    }
    // No extra immediates beyond the path.
    uint64_t total = 0;
    for (const auto& e : got->imms) {
      total += e.bytes.size();
    }
    EXPECT_EQ(total, pick.imms.size() * 8);
  }
}

// --- delegation/revocation interleavings -------------------------------------------------------

TEST(PropertyRevocation, UsableIffPathLive) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    System sys;
    const uint32_t n0 = sys.add_node("n0");
    Controller& ctrl = sys.add_controller(n0, Loc::kHost);
    Process& p = sys.spawn("p", n0, ctrl);

    int deliveries = 0;
    const CapId root = sys.await_ok(p.serve({}, [&](Process::Received) { ++deliveries; }));

    struct Node {
      CapId cid;
      size_t parent;  // index into nodes (self for root)
      bool revoked_locally = false;
    };
    std::vector<Node> nodes{{root, 0}};
    auto path_live = [&](size_t i) {
      for (size_t cur = i;; cur = nodes[cur].parent) {
        if (nodes[cur].revoked_locally) {
          return false;
        }
        if (cur == 0) {
          return true;
        }
      }
    };

    for (int step = 0; step < 30; ++step) {
      const uint64_t action = rng.next_below(3);
      if (action == 0) {
        // Derive a revtree child of a random live node.
        const size_t base = rng.next_below(nodes.size());
        if (!path_live(base)) {
          continue;
        }
        auto child = sys.await(p.cap_create_revtree(nodes[base].cid));
        ASSERT_TRUE(child.ok());
        nodes.push_back(Node{child.value(), base});
      } else if (action == 1) {
        // Revoke a random live node (marks its whole subtree dead in the reference model).
        const size_t victim = rng.next_below(nodes.size());
        if (!path_live(victim) || victim == 0) {
          continue;
        }
        ASSERT_TRUE(sys.await(p.cap_revoke(nodes[victim].cid)).ok());
        nodes[victim].revoked_locally = true;
        sys.loop().run();
      } else {
        // Use a random node: must succeed iff its whole path to the root is live.
        const size_t probe = rng.next_below(nodes.size());
        const bool expect_ok = path_live(probe);
        const int before = deliveries;
        const bool invoked = sys.await(p.request_invoke(nodes[probe].cid)).ok();
        sys.loop().run();
        EXPECT_EQ(invoked, expect_ok) << "trial " << trial << " step " << step;
        EXPECT_EQ(deliveries > before, expect_ok);
      }
    }
  }
}

// --- translation-cache safety under the capability hot path ------------------------------------

// With the owner-side translation cache, depth-proportional miss pricing, and batched peer ops
// all enabled — and the cache kept tiny so FIFO eviction runs constantly — random interleavings
// of remote derivation, revocation, failure translation, and invocation must never honor a
// capability whose derivation path is dead, and the cache must stay coherent with the
// authoritative table after every step (translation_cache_audit re-resolves each cached entry).
TEST(PropertyTranslationCache, NoStaleCapabilityHonoredAcrossSeeds) {
  uint64_t total_lookups = 0;
  for (const uint64_t seed : {1ull, 2ull, 3ull, 5ull, 8ull, 13ull, 21ull, 34ull}) {
    Rng rng(seed);
    SystemConfig cfg;
    cfg.translation_cache_entries = 16;  // tiny on purpose: evictions interleave with revokes
    cfg.charge_chain_traversal = true;
    cfg.peer_op_batch_max = 4;
    System sys(cfg);
    const uint32_t n0 = sys.add_node("owner");
    const uint32_t n1 = sys.add_node("holder");
    Controller& c0 = sys.add_controller(n0, Loc::kHost);
    Controller& c1 = sys.add_controller(n1, Loc::kHost);
    Process& provider = sys.spawn("provider", n0, c0);
    Process& worker = sys.spawn("worker", n0, c0);
    Process& holder = sys.spawn("holder", n1, c1);

    int deliveries = 0;
    const CapId root =
        sys.await_ok(provider.serve({}, [&](Process::Received) { ++deliveries; }));
    const CapId root_h = sys.bootstrap_grant(provider, root, holder).value();
    const CapId root_w = sys.bootstrap_grant(provider, root, worker).value();

    struct Node {
      CapId cid;      // the holder's capability for this object
      size_t parent;  // index into nodes (self for root)
      bool revoked = false;
      bool worker_made = false;  // created by `worker`, dies with it via failure translation
    };
    std::vector<Node> nodes{{root_h, 0}};
    auto path_live = [&](size_t i) {
      for (size_t cur = i;; cur = nodes[cur].parent) {
        if (nodes[cur].revoked) {
          return false;
        }
        if (cur == 0) {
          return true;
        }
      }
    };

    uint32_t next_offset = 0;
    bool worker_failed = false;
    constexpr int kSteps = 60;
    for (int step = 0; step < kSteps; ++step) {
      const uint64_t action = rng.next_below(5);
      if (action == 0) {
        // Revtree child derived remotely by the holder (rides the batched peer-op path).
        const size_t base = rng.next_below(nodes.size());
        if (!path_live(base)) {
          continue;
        }
        auto child = sys.await(holder.cap_create_revtree(nodes[base].cid));
        ASSERT_TRUE(child.ok()) << "seed " << seed << " step " << step;
        nodes.push_back(Node{child.value(), base});
      } else if (action == 1) {
        // Refinement derived remotely by the holder; unique offsets keep paths overlap-free.
        const size_t base = rng.next_below(nodes.size());
        if (!path_live(base)) {
          continue;
        }
        const uint32_t off = next_offset;
        next_offset += 8;
        auto child = sys.await(
            holder.request_derive(nodes[base].cid, Process::Args{}.imm_u64(off, rng.next_u64())));
        ASSERT_TRUE(child.ok()) << "seed " << seed << " step " << step;
        nodes.push_back(Node{child.value(), base});
      } else if (action == 2 && !worker_failed) {
        // Owner-local revtree child created by the co-located worker and granted to the
        // holder; the whole group dies later when the worker crashes.
        auto child_w = sys.await(worker.cap_create_revtree(root_w));
        ASSERT_TRUE(child_w.ok()) << "seed " << seed << " step " << step;
        const CapId at_h = sys.bootstrap_grant(worker, child_w.value(), holder).value();
        nodes.push_back(Node{at_h, 0, false, true});
      } else if (action == 3) {
        // Revoke a random live non-root node (kills its whole subtree in the model).
        const size_t victim = rng.next_below(nodes.size());
        if (victim == 0 || !path_live(victim)) {
          continue;
        }
        ASSERT_TRUE(sys.await(holder.cap_revoke(nodes[victim].cid)).ok())
            << "seed " << seed << " step " << step;
        nodes[victim].revoked = true;
        sys.loop().run();
      } else {
        // Invoke probe: must deliver iff the node's whole path to the root is live. A
        // forwarded invoke's future completes at local accept, so the delivery counter —
        // not the future — is the oracle.
        const size_t probe = rng.next_below(nodes.size());
        const bool expect = path_live(probe);
        const int before = deliveries;
        holder.request_invoke(nodes[probe].cid);
        sys.loop().run();
        EXPECT_EQ(deliveries > before, expect) << "seed " << seed << " step " << step;
      }
      if (step == kSteps / 2) {
        // Failure translation mid-run: the worker's objects are revoked wholesale at the
        // owner, which must invalidate exactly the cached entries under them.
        sys.fail_process(worker);
        worker_failed = true;
        for (auto& n : nodes) {
          if (n.worker_made) {
            n.revoked = true;
          }
        }
        sys.loop().run();
      }
      ASSERT_TRUE(c0.translation_cache_audit().ok()) << "seed " << seed << " step " << step;
      ASSERT_TRUE(c1.translation_cache_audit().ok()) << "seed " << seed << " step " << step;
    }
    sys.loop().run();
    ASSERT_TRUE(c0.translation_cache_audit().ok()) << "seed " << seed;
    total_lookups += c0.translation_cache().hits() + c0.translation_cache().misses();
  }
  // The cache was actually on the hot path across the matrix, not bypassed.
  EXPECT_GT(total_lookups, 0u);
}

// --- scatter/gather copy plans -----------------------------------------------------------------

TEST(PropertyCopies, RandomCopyPlanMatchesReferenceModel) {
  Rng rng(4242);
  for (int trial = 0; trial < 8; ++trial) {
    constexpr uint64_t kBuf = 8192;
    System sys;
    const uint32_t n0 = sys.add_node("n0");
    const uint32_t n1 = sys.add_node("n1");
    Controller& c0 = sys.add_controller(n0, Loc::kHost);
    Controller& c1 = sys.add_controller(n1, Loc::kHost);
    Process& a = sys.spawn("a", n0, c0);
    Process& b = sys.spawn("b", n1, c1);

    // Reference model: two byte arrays.
    std::vector<uint8_t> ref_a(kBuf), ref_b(kBuf);
    for (auto& x : ref_a) {
      x = rng.next_byte();
    }
    for (auto& x : ref_b) {
      x = rng.next_byte();
    }
    const uint64_t addr_a = a.alloc(kBuf);
    const uint64_t addr_b = b.alloc(kBuf);
    a.write_mem(addr_a, ref_a);
    b.write_mem(addr_b, ref_b);
    const CapId ma = sys.await_ok(a.memory_create(addr_a, kBuf, Perms::kReadWrite));
    const CapId mb_at_b = sys.await_ok(b.memory_create(addr_b, kBuf, Perms::kReadWrite));
    const CapId mb = sys.bootstrap_grant(b, mb_at_b, a).value();

    for (int step = 0; step < 12; ++step) {
      const bool a_to_b = rng.next_bool();
      const uint64_t len = 1 + rng.next_below(2048);
      const uint64_t src_off = rng.next_below(kBuf - len + 1);
      const uint64_t dst_off = rng.next_below(kBuf - len + 1);
      const CapId src = a_to_b ? ma : mb;
      const CapId dst = a_to_b ? mb : ma;
      ASSERT_TRUE(sys.await(a.memory_copy(src, dst, len, src_off, dst_off)).ok());
      auto& rs = a_to_b ? ref_a : ref_b;
      auto& rd = a_to_b ? ref_b : ref_a;
      std::copy_n(rs.begin() + static_cast<ptrdiff_t>(src_off), len,
                  rd.begin() + static_cast<ptrdiff_t>(dst_off));
    }
    EXPECT_EQ(a.read_mem(addr_a, kBuf), ref_a) << "trial " << trial;
    EXPECT_EQ(b.read_mem(addr_b, kBuf), ref_b) << "trial " << trial;
  }
}

// --- wire fuzz: generated envelopes round-trip --------------------------------------------------

ObjectRef random_ref(Rng& rng) {
  return ObjectRef{static_cast<ControllerAddr>(rng.next_below(100)), rng.next_u64() % 10000,
                   static_cast<uint32_t>(rng.next_below(5))};
}

std::vector<ImmExtent> random_imms(Rng& rng) {
  std::vector<ImmExtent> imms;
  const uint64_t n = rng.next_below(4);
  uint32_t off = 0;
  for (uint64_t i = 0; i < n; ++i) {
    ImmExtent e;
    e.offset = off;
    e.bytes = std::vector<uint8_t>(rng.next_below(64));
    for (auto& b : e.bytes) {
      b = rng.next_byte();
    }
    off = e.end() + static_cast<uint32_t>(rng.next_below(16));
    imms.push_back(std::move(e));
  }
  return imms;
}

WireCap random_cap(Rng& rng) {
  WireCap c;
  c.ref = random_ref(rng);
  c.kind = rng.next_bool() ? ObjectKind::kMemory : ObjectKind::kRequest;
  c.perms = static_cast<Perms>(rng.next_below(4));
  c.mem = MemoryDesc{static_cast<uint32_t>(rng.next_below(8)),
                     static_cast<uint32_t>(rng.next_below(8)), rng.next_u64() % 100000,
                     1 + rng.next_u64() % 100000};
  c.tracked = rng.next_bool();
  return c;
}

RemoteDeriveMsg random_derive_msg(Rng& rng) {
  RemoteDeriveMsg m;
  m.op_id = rng.next_u64();
  m.base = random_ref(rng);
  m.op = static_cast<RemoteDeriveMsg::Op>(rng.next_below(4));
  m.requester = rng.next_u64() % 1000;
  m.imms = random_imms(rng);
  for (uint64_t i = 0; i < rng.next_below(3); ++i) {
    m.caps.push_back(random_cap(rng));
  }
  m.offset = rng.next_u64() % 100000;
  m.size = rng.next_u64() % 100000;
  m.drop_perms = static_cast<Perms>(rng.next_below(4));
  return m;
}

constexpr int kNumMsgTypes = static_cast<int>(MsgType::kReplSnapshot) + 1;

ErrorCode random_status(Rng& rng) {
  return rng.next_bool() ? ErrorCode::kOk : ErrorCode::kRevoked;
}

ReplicatedOp random_repl_op(Rng& rng) {
  ReplicatedOp op;
  op.kind = static_cast<ReplicatedOp::Kind>(rng.next_below(13));
  op.requester = rng.next_u64() % 1000;
  op.base = rng.next_u64() % 100000;
  op.result_index = rng.next_u64() % 100000;
  op.mem = MemoryDesc{static_cast<uint32_t>(rng.next_below(8)),
                      static_cast<uint32_t>(rng.next_below(8)), rng.next_u64() % 100000,
                      rng.next_u64() % 100000};
  op.perms = static_cast<Perms>(rng.next_below(4));
  op.offset = rng.next_u64() % 100000;
  op.size = rng.next_u64() % 100000;
  op.cid = static_cast<CapId>(rng.next_below(1000));
  op.callback_id = rng.next_u64();
  op.sub_controller = static_cast<ControllerAddr>(rng.next_below(100));
  op.sub_process = rng.next_u64() % 1000;
  op.imms = random_imms(rng);
  for (uint64_t i = 0; i < rng.next_below(3); ++i) {
    op.caps.push_back(random_cap(rng));
  }
  for (uint64_t i = 0; i < rng.next_below(4); ++i) {
    op.indices.push_back(rng.next_u64() % 100000);
  }
  return op;
}

// A well-formed envelope of `type` with every field drawn from `rng`.
Envelope random_envelope(Rng& rng, MsgType type) {
  const uint64_t seq = rng.next_u64();
  switch (type) {
    case MsgType::kNullOp:
      return make_envelope(seq, NullOpMsg{});
    case MsgType::kMemoryCreate: {
      MemoryCreateMsg m;
      m.pool = static_cast<uint32_t>(rng.next_below(8));
      m.addr = rng.next_u64() % 100000;
      m.size = rng.next_u64() % 100000;
      m.perms = static_cast<Perms>(rng.next_below(4));
      return make_envelope(seq, m);
    }
    case MsgType::kMemoryDiminish: {
      MemoryDiminishMsg m;
      m.cid = static_cast<CapId>(rng.next_below(1000));
      m.offset = rng.next_u64() % 100000;
      m.size = rng.next_u64() % 100000;
      m.drop_perms = static_cast<Perms>(rng.next_below(4));
      return make_envelope(seq, m);
    }
    case MsgType::kMemoryCopy: {
      MemoryCopyMsg m;
      m.src = static_cast<CapId>(rng.next_below(1000));
      m.dst = static_cast<CapId>(rng.next_below(1000));
      m.src_off = rng.next_u64() % 100000;
      m.dst_off = rng.next_u64() % 100000;
      m.length = rng.next_u64() % 100000;
      return make_envelope(seq, m);
    }
    case MsgType::kRequestCreate: {
      RequestCreateMsg m;
      m.has_base = rng.next_bool();
      m.base = static_cast<CapId>(rng.next_below(1000));
      m.imms = random_imms(rng);
      for (uint64_t i = 0; i < rng.next_below(5); ++i) {
        m.caps.push_back(static_cast<CapId>(rng.next_below(1000)));
      }
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kRequestInvoke: {
      RequestInvokeMsg m;
      m.cid = static_cast<CapId>(rng.next_below(1000));
      m.imms = random_imms(rng);
      for (uint64_t i = 0; i < rng.next_below(5); ++i) {
        m.caps.push_back(static_cast<CapId>(rng.next_below(1000)));
      }
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kCapCreateRevtree:
      return make_envelope(seq, CapCreateRevtreeMsg{static_cast<CapId>(rng.next_below(1000))});
    case MsgType::kCapRevoke:
      return make_envelope(seq, CapRevokeMsg{static_cast<CapId>(rng.next_below(1000))});
    case MsgType::kMonitorDelegate:
    case MsgType::kMonitorReceive: {
      MonitorMsg m;
      m.cid = static_cast<CapId>(rng.next_below(1000));
      m.callback_id = rng.next_u64();
      return make_envelope(seq, m, type == MsgType::kMonitorDelegate);
    }
    case MsgType::kSyscallReply: {
      SyscallReplyMsg m;
      m.call_seq = rng.next_u64();
      m.status = random_status(rng);
      m.cid = static_cast<CapId>(rng.next_below(1000));
      return make_envelope(seq, m);
    }
    case MsgType::kDeliverRequest: {
      DeliverRequestMsg m;
      m.endpoint_cid = static_cast<CapId>(rng.next_below(1000));
      m.imms = random_imms(rng);
      for (uint64_t i = 0; i < rng.next_below(4); ++i) {
        m.caps.push_back(DeliveredCap{static_cast<CapId>(rng.next_below(1000)),
                                      rng.next_bool() ? ObjectKind::kMemory
                                                      : ObjectKind::kRequest,
                                      static_cast<Perms>(rng.next_below(4)),
                                      rng.next_u64() % 100000});
      }
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kDeliverAck:
      return make_envelope(seq, DeliverAckMsg{});
    case MsgType::kMonitorCallback: {
      MonitorCallbackMsg m;
      m.callback_id = rng.next_u64();
      m.delegate_mode = rng.next_bool();
      return make_envelope(seq, m);
    }
    case MsgType::kRemoteInvoke: {
      RemoteInvokeMsg m;
      m.target = random_ref(rng);
      m.imms = random_imms(rng);
      for (uint64_t i = 0; i < rng.next_below(4); ++i) {
        m.caps.push_back(random_cap(rng));
      }
      m.origin = static_cast<ControllerAddr>(rng.next_below(100));
      m.invoke_id = rng.next_u64();
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kRemoteInvokeError: {
      RemoteInvokeErrorMsg m;
      m.invoke_id = rng.next_u64();
      m.status = random_status(rng);
      return make_envelope(seq, m);
    }
    case MsgType::kRemoteDerive:
      return make_envelope(seq, random_derive_msg(rng));
    case MsgType::kPeerReply: {
      PeerReplyMsg m;
      m.op_id = rng.next_u64();
      m.status = random_status(rng);
      m.result = random_cap(rng);
      return make_envelope(seq, m);
    }
    case MsgType::kRevokeBroadcast: {
      RevokeBroadcastMsg m;
      m.cleanup_id = rng.next_u64();
      for (uint64_t i = 0; i < rng.next_below(8); ++i) {
        m.revoked.push_back(random_ref(rng));
      }
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kRevokeAck:
      return make_envelope(seq, RevokeAckMsg{rng.next_u64()});
    case MsgType::kRegisterMonitor: {
      RegisterMonitorMsg m;
      m.target = random_ref(rng);
      m.delegate_mode = rng.next_bool();
      m.callback_id = rng.next_u64();
      m.subscriber_controller = static_cast<ControllerAddr>(rng.next_below(100));
      m.subscriber_process = rng.next_u64() % 1000;
      return make_envelope(seq, m);
    }
    case MsgType::kMonitorFired: {
      MonitorFiredMsg m;
      m.process = rng.next_u64() % 1000;
      m.callback_id = rng.next_u64();
      m.delegate_mode = rng.next_bool();
      return make_envelope(seq, m);
    }
    case MsgType::kRemoteDeriveBatch: {
      RemoteDeriveBatchMsg m;
      const uint64_t n = 1 + rng.next_below(6);
      for (uint64_t i = 0; i < n; ++i) {
        m.ops.push_back(random_derive_msg(rng));
      }
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kPeerReplyBatch: {
      PeerReplyBatchMsg m;
      const uint64_t n = 1 + rng.next_below(6);
      for (uint64_t i = 0; i < n; ++i) {
        PeerReplyMsg r;
        r.op_id = rng.next_u64();
        r.status = random_status(rng);
        r.result = random_cap(rng);
        m.replies.push_back(r);
      }
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kReplAppend: {
      ReplAppendMsg m;
      m.seat = static_cast<ControllerAddr>(rng.next_below(100));
      m.leader = static_cast<ControllerAddr>(rng.next_below(100));
      m.term = rng.next_u64() % 1000;
      m.prev_index = rng.next_u64() % 100000;
      m.prev_term = rng.next_u64() % 1000;
      m.commit_index = rng.next_u64() % 100000;
      for (uint64_t i = 0; i < rng.next_below(4); ++i) {
        ReplLogEntry entry;
        entry.index = rng.next_u64() % 100000;
        entry.term = rng.next_u64() % 1000;
        entry.op = random_repl_op(rng);
        m.entries.push_back(std::move(entry));
      }
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kReplAppendReply: {
      ReplAppendReplyMsg m;
      m.seat = static_cast<ControllerAddr>(rng.next_below(100));
      m.from = static_cast<ControllerAddr>(rng.next_below(100));
      m.term = rng.next_u64() % 1000;
      m.ok = rng.next_bool();
      m.match_index = rng.next_u64() % 100000;
      m.need_snapshot = rng.next_bool();
      return make_envelope(seq, m);
    }
    case MsgType::kReplVote: {
      ReplVoteMsg m;
      m.seat = static_cast<ControllerAddr>(rng.next_below(100));
      m.candidate = static_cast<ControllerAddr>(rng.next_below(100));
      m.term = rng.next_u64() % 1000;
      m.last_log_index = rng.next_u64() % 100000;
      m.last_log_term = rng.next_u64() % 1000;
      return make_envelope(seq, m);
    }
    case MsgType::kReplVoteReply: {
      ReplVoteReplyMsg m;
      m.seat = static_cast<ControllerAddr>(rng.next_below(100));
      m.from = static_cast<ControllerAddr>(rng.next_below(100));
      m.term = rng.next_u64() % 1000;
      m.granted = rng.next_bool();
      return make_envelope(seq, m);
    }
    case MsgType::kReplLeaderAnnounce: {
      ReplLeaderAnnounceMsg m;
      m.seat = static_cast<ControllerAddr>(rng.next_below(100));
      m.leader = static_cast<ControllerAddr>(rng.next_below(100));
      m.term = rng.next_u64() % 1000;
      return make_envelope(seq, m);
    }
    case MsgType::kReplSnapshot: {
      ReplSnapshotMsg m;
      m.seat = static_cast<ControllerAddr>(rng.next_below(100));
      m.leader = static_cast<ControllerAddr>(rng.next_below(100));
      m.term = rng.next_u64() % 1000;
      m.last_index = rng.next_u64() % 100000;
      m.last_term = rng.next_u64() % 1000;
      m.blob = std::vector<uint8_t>(rng.next_below(300));
      for (auto& b : m.blob) {
        b = rng.next_byte();
      }
      return make_envelope(seq, std::move(m));
    }
  }
  ADD_FAILURE() << "no generator for message type " << static_cast<int>(type);
  return make_envelope(seq, NullOpMsg{});
}

TEST(PropertyWire, GeneratedEnvelopesRoundTrip) {
  Rng rng(9090);
  for (int trial = 0; trial < 500; ++trial) {
    const Envelope env = random_envelope(rng, static_cast<MsgType>(rng.next_below(kNumMsgTypes)));
    auto decoded = decode_envelope(encode_envelope(env));
    ASSERT_TRUE(decoded.ok()) << "trial " << trial;
    EXPECT_EQ(decoded.value().type, env.type) << "trial " << trial;
    EXPECT_EQ(decoded.value().seq, env.seq);
    EXPECT_EQ(decoded.value().body, env.body) << "trial " << trial;
  }
}

// The frame bytes themselves are pinned: encoded size is what the fabric charges to the
// wire, so a codec change that moves any byte or any frame's length moves simulated results.
// The digest is FNV-1a over (length, bytes) of 20 generated envelopes of every MsgType; it
// was recorded before the codec's allocation-lean rewrite and must never move silently.
TEST(PropertyWire, FrameBytesArePinned) {
  constexpr uint64_t kGoldenDigest = 0x25ace17b8a0a05ceull;
  constexpr uint64_t kGoldenBytes = 51001;
  Rng rng(4242);
  uint64_t digest = 0xcbf29ce484222325ull;
  auto fold = [&digest](uint8_t b) {
    digest ^= b;
    digest *= 0x100000001b3ull;
  };
  uint64_t total_bytes = 0;
  for (int round = 0; round < 20; ++round) {
    for (int t = 0; t < kNumMsgTypes; ++t) {
      const std::vector<uint8_t> frame =
          encode_envelope(random_envelope(rng, static_cast<MsgType>(t)));
      for (size_t i = 0; i < sizeof(uint64_t); ++i) {
        fold(static_cast<uint8_t>(static_cast<uint64_t>(frame.size()) >> (8 * i)));
      }
      for (uint8_t b : frame) {
        fold(b);
      }
      total_bytes += frame.size();
    }
  }
  EXPECT_EQ(total_bytes, kGoldenBytes);
  EXPECT_EQ(digest, kGoldenDigest) << std::hex << "digest 0x" << digest;
}

// --- seeded mutation: hostile bytes never crash a decoder -------------------------------------

// One random mutation of `bytes`: a bit flip, a byte overwrite, a truncation, an inserted
// byte, or a forged u32 count or length prefix.
void mutate(Rng& rng, std::vector<uint8_t>& bytes) {
  const size_t n = bytes.size();
  switch (rng.next_below(5)) {
    case 0:
      if (n != 0) {
        bytes[rng.next_below(n)] ^= static_cast<uint8_t>(1u << rng.next_below(8));
      }
      break;
    case 1:
      if (n != 0) {
        bytes[rng.next_below(n)] = rng.next_byte();
      }
      break;
    case 2:
      bytes.resize(rng.next_below(n + 1));
      break;
    case 3:
      bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(rng.next_below(n + 1)),
                   rng.next_byte());
      break;
    default:
      if (n >= sizeof(uint32_t)) {
        constexpr uint32_t kForged[] = {0, 1, 2, 255, 0x10000, 0x7fffffff, 0xffffffff};
        const uint32_t v = kForged[rng.next_below(std::size(kForged))];
        std::memcpy(bytes.data() + rng.next_below(n - sizeof(v) + 1), &v, sizeof(v));
      }
      break;
  }
}

void mutate_some(Rng& rng, std::vector<uint8_t>& bytes) {
  for (uint64_t m = 1 + rng.next_below(3); m > 0; --m) {
    mutate(rng, bytes);
  }
}

TEST(PropertyMutation, MutatedFramesNeverCrashAndDecodeOnlyCanonically) {
  constexpr int kFrames = 100000;
  Rng rng(31337);
  int accepted = 0;
  for (int i = 0; i < kFrames; ++i) {
    std::vector<uint8_t> frame = encode_envelope(
        random_envelope(rng, static_cast<MsgType>(rng.next_below(kNumMsgTypes))));
    mutate_some(rng, frame);
    auto decoded = decode_envelope(frame);
    if (decoded.ok()) {
      ++accepted;
      ASSERT_EQ(encode_envelope(decoded.value()).to_vector(), frame) << "frame " << i;
    }
  }
  // Both outcomes occur, so both oracles ran.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kFrames);
}

constexpr ControllerAddr kSnapOwner = 3;

// A table with every kind of object and link a snapshot carries: memory roots, a diminished
// view, revtree children, a request root with args and a refinement, delegate and receive
// monitors with tracked children, a revoked subtree, and an orphan left by an erase.
ObjectTable rich_table() {
  ObjectTable t(kSnapOwner);
  const uint32_t gen = t.reboot_count();
  const ObjectIndex mem =
      t.create_memory(1, MemoryDesc{0, 1, 0, 1 << 16}, Perms::kReadWrite).value();
  const ObjectIndex view = t.derive_memory(2, mem, 64, 4096, Perms::kWrite).value();
  const ObjectIndex view_child = t.create_revtree_child(2, view).value();
  (void)t.create_revtree_child(2, view_child).value();
  RequestArgs args;
  args.imms = {ImmExtent{0, {1, 2, 3}}};
  WireCap cap;
  cap.ref = t.ref_of(mem);
  cap.mem = MemoryDesc{0, 1, 0, 1 << 16};
  cap.perms = Perms::kRead;
  args.caps = {cap};
  const ObjectIndex req = t.create_request_root(1, 7, args).value();
  RequestArgs refinement;
  refinement.imms = {ImmExtent{8, std::vector<uint8_t>(24, 0x5a)}};
  const ObjectIndex derived = t.derive_request_local(2, req, refinement).value();
  (void)t.create_revtree_child(3, derived).value();
  const ObjectIndex watched = t.create_memory(4, MemoryDesc{0, 2, 0, 512}, Perms::kRead).value();
  FRACTOS_CHECK(t.monitor_delegate(watched, gen, MonitorSub{5, 6, 7}).ok());
  (void)t.prepare_delegation(watched).value();
  (void)t.prepare_delegation(watched).value();
  FRACTOS_CHECK(t.monitor_receive(req, gen, MonitorSub{8, 9, 10}).ok());
  FRACTOS_CHECK(t.monitor_receive(req, gen, MonitorSub{11, 12, 13}).ok());
  FRACTOS_CHECK(t.revoke(view, gen).ok());
  FRACTOS_CHECK(t.erase_objects({view}) == 1);  // orphans view_child
  return t;
}

TEST(PropertyMutation, MutatedSnapshotsNeverCrashAndLeaveUsableTables) {
  const std::vector<uint8_t> blob = rich_table().serialize_snapshot();
  {
    ObjectTable t(kSnapOwner);
    ASSERT_TRUE(t.restore_snapshot(blob).ok());
  }
  constexpr int kBlobs = 20000;
  Rng rng(27182);
  int accepted = 0;
  for (int i = 0; i < kBlobs; ++i) {
    std::vector<uint8_t> bytes = blob;
    mutate_some(rng, bytes);
    ObjectTable t(kSnapOwner);
    if (!t.restore_snapshot(bytes).ok()) {
      ASSERT_EQ(t.total_count(), 0u) << "blob " << i;
      continue;
    }
    ++accepted;
    std::vector<ObjectIndex> indices;
    t.for_each_object([&indices](ObjectIndex idx, const auto&) { indices.push_back(idx); });
    ASSERT_EQ(indices.size(), t.total_count()) << "blob " << i;
    for (ObjectIndex idx : indices) {
      if (!t.is_invalidated(idx)) {
        ASSERT_TRUE(t.revoke(idx, t.reboot_count()).ok()) << "blob " << i << " object " << idx;
      }
    }
    ASSERT_EQ(t.live_count(), 0u) << "blob " << i;
    ASSERT_EQ(t.erase_objects(indices), indices.size()) << "blob " << i;
    ASSERT_EQ(t.total_count(), 0u) << "blob " << i;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kBlobs);
}

// --- determinism: identical runs produce identical simulated histories ------------------------

TEST(PropertyDeterminism, SameSeedSameHistory) {
  auto run = []() {
    System sys;
    const uint32_t n0 = sys.add_node("n0");
    const uint32_t n1 = sys.add_node("n1");
    Controller& c0 = sys.add_controller(n0, Loc::kHost);
    Controller& c1 = sys.add_controller(n1, Loc::kHost);
    Process& a = sys.spawn("a", n0, c0);
    Process& b = sys.spawn("b", n1, c1);
    uint64_t acc = 0;
    const CapId ep = sys.await_ok(b.serve({}, [&](Process::Received r) {
      acc = acc * 31 + r.imm_u64(0).value_or(0);
    }));
    const CapId ep_a = sys.bootstrap_grant(b, ep, a).value();
    for (uint64_t i = 0; i < 20; ++i) {
      a.request_invoke(ep_a, Process::Args{}.imm_u64(0, i));
    }
    sys.loop().run();
    return std::make_tuple(acc, sys.loop().now().ns(), sys.loop().steps(),
                           sys.net().counters().total_bytes());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace fractos
