// Capability-system unit tests: object table creation/derivation/resolution, revocation
// trees and recursive invalidation, stale-generation detection, monitor bookkeeping, and
// capability spaces.

#include <gtest/gtest.h>

#include <cstring>

#include "src/base/assert.h"
#include "src/base/heap_usage.h"
#include "src/cap/cap_space.h"
#include "src/cap/dense_index.h"
#include "src/cap/object_table.h"

namespace fractos {
namespace {

constexpr ProcessId kProc = 7;
constexpr ProcessId kOther = 8;

class ObjectTableTest : public ::testing::Test {
 protected:
  ObjectTableTest() : table_(/*owner=*/1) {}

  ObjectIndex make_memory(uint64_t size = 4096, Perms perms = Perms::kReadWrite) {
    return table_.create_memory(kProc, MemoryDesc{0, 0, 0, size}, perms).value();
  }

  ObjectTable table_;
};

TEST_F(ObjectTableTest, CreateAndResolveMemory) {
  const ObjectIndex idx = make_memory(8192, Perms::kRead);
  auto r = table_.resolve_memory(idx, table_.reboot_count());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().desc.size, 8192u);
  EXPECT_EQ(r.value().perms, Perms::kRead);
}

TEST_F(ObjectTableTest, ZeroSizedMemoryRejected) {
  EXPECT_EQ(table_.create_memory(kProc, MemoryDesc{0, 0, 0, 0}, Perms::kRead).error(),
            ErrorCode::kInvalidArgument);
}

TEST_F(ObjectTableTest, DiminishNarrowsExtentAndPerms) {
  const ObjectIndex base = make_memory(4096, Perms::kReadWrite);
  const ObjectIndex sub = table_.derive_memory(kProc, base, 1024, 512, Perms::kWrite).value();
  auto r = table_.resolve_memory(sub, table_.reboot_count());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().desc.addr, 1024u);
  EXPECT_EQ(r.value().desc.size, 512u);
  EXPECT_EQ(r.value().perms, Perms::kRead);
}

TEST_F(ObjectTableTest, DiminishOutOfRangeFails) {
  const ObjectIndex base = make_memory(4096);
  EXPECT_EQ(table_.derive_memory(kProc, base, 4000, 1000, Perms::kNone).error(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(table_.derive_memory(kProc, base, 0, 0, Perms::kNone).error(),
            ErrorCode::kOutOfRange);
}

TEST_F(ObjectTableTest, DiminishOfDiminishComposes) {
  const ObjectIndex base = make_memory(4096);
  const ObjectIndex a = table_.derive_memory(kProc, base, 1000, 2000, Perms::kNone).value();
  const ObjectIndex b = table_.derive_memory(kProc, a, 500, 100, Perms::kNone).value();
  auto r = table_.resolve_memory(b, table_.reboot_count());
  EXPECT_EQ(r.value().desc.addr, 1500u);
  EXPECT_EQ(r.value().desc.size, 100u);
}

TEST_F(ObjectTableTest, WrongKindRejected) {
  const ObjectIndex mem = make_memory();
  EXPECT_EQ(table_.resolve_request(mem, table_.reboot_count()).error(),
            ErrorCode::kWrongObjectKind);
  const ObjectIndex req = table_.create_request_root(kProc, 3, {}).value();
  EXPECT_EQ(table_.resolve_memory(req, table_.reboot_count()).error(),
            ErrorCode::kWrongObjectKind);
  EXPECT_EQ(table_.derive_memory(kProc, req, 0, 1, Perms::kNone).error(),
            ErrorCode::kWrongObjectKind);
}

TEST_F(ObjectTableTest, RequestRootResolvesWithArgs) {
  RequestArgs args;
  args.imms = {{0, {1, 2}}};
  const ObjectIndex idx = table_.create_request_root(kProc, 5, args).value();
  auto r = table_.resolve_request(idx, table_.reboot_count());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().provider, kProc);
  EXPECT_EQ(r.value().endpoint_cid, 5u);
  ASSERT_EQ(r.value().args.imms.size(), 1u);
  EXPECT_EQ(r.value().args.imms[0].bytes, (std::vector<uint8_t>{1, 2}));
}

TEST_F(ObjectTableTest, DerivedRequestMergesArgsBaseFirst) {
  RequestArgs base_args;
  base_args.imms = {{0, {0xaa}}};
  const ObjectIndex root = table_.create_request_root(kProc, 1, base_args).value();
  RequestArgs ref1;
  ref1.imms = {{8, {0xbb}}};
  const ObjectIndex d1 = table_.derive_request_local(kOther, root, ref1).value();
  RequestArgs ref2;
  ref2.imms = {{16, {0xcc}}};
  WireCap wc;
  wc.ref = ObjectRef{9, 9, 1};
  ref2.caps = {wc};
  const ObjectIndex d2 = table_.derive_request_local(kOther, d1, ref2).value();

  auto r = table_.resolve_request(d2, table_.reboot_count());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().provider, kProc);
  ASSERT_EQ(r.value().args.imms.size(), 3u);
  EXPECT_EQ(r.value().args.imms[0].offset, 0u);
  EXPECT_EQ(r.value().args.imms[1].offset, 8u);
  EXPECT_EQ(r.value().args.imms[2].offset, 16u);
  EXPECT_EQ(r.value().args.caps.size(), 1u);
}

TEST_F(ObjectTableTest, RefinementCannotOverwriteInitializedArgs) {
  RequestArgs base_args;
  base_args.imms = {{0, {1, 2, 3, 4}}};
  const ObjectIndex root = table_.create_request_root(kProc, 1, base_args).value();
  RequestArgs overlap;
  overlap.imms = {{2, {9}}};  // overlaps [0,4)
  EXPECT_EQ(table_.derive_request_local(kOther, root, overlap).error(),
            ErrorCode::kArgumentOverlap);
  RequestArgs ok;
  ok.imms = {{4, {9}}};  // adjacent is fine
  EXPECT_TRUE(table_.derive_request_local(kOther, root, ok).ok());
}

TEST_F(ObjectTableTest, SelfOverlappingRefinementRejected) {
  RequestArgs args;
  args.imms = {{0, {1, 2}}, {1, {3}}};
  EXPECT_EQ(table_.create_request_root(kProc, 1, args).error(), ErrorCode::kArgumentOverlap);
}

TEST_F(ObjectTableTest, RevokeInvalidatesObjectAndDescendants) {
  const ObjectIndex base = make_memory();
  const ObjectIndex child = table_.derive_memory(kProc, base, 0, 100, Perms::kNone).value();
  const ObjectIndex grandchild = table_.derive_memory(kProc, child, 0, 10, Perms::kNone).value();
  auto result = table_.revoke(base, table_.reboot_count());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().invalidated.size(), 3u);
  EXPECT_EQ(table_.resolve_memory(base, table_.reboot_count()).error(), ErrorCode::kRevoked);
  EXPECT_EQ(table_.resolve_memory(child, table_.reboot_count()).error(), ErrorCode::kRevoked);
  EXPECT_EQ(table_.resolve_memory(grandchild, table_.reboot_count()).error(),
            ErrorCode::kRevoked);
}

TEST_F(ObjectTableTest, RevokeChildLeavesParentLive) {
  const ObjectIndex base = make_memory();
  const ObjectIndex child = table_.create_revtree_child(kProc, base).value();
  auto result = table_.revoke(child, table_.reboot_count());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().invalidated.size(), 1u);
  EXPECT_TRUE(table_.resolve_memory(base, table_.reboot_count()).ok());
  EXPECT_EQ(table_.resolve_memory(child, table_.reboot_count()).error(), ErrorCode::kRevoked);
}

TEST_F(ObjectTableTest, RevtreeChildSharesPayload) {
  const ObjectIndex base = make_memory(4096, Perms::kRead);
  const ObjectIndex child = table_.create_revtree_child(kProc, base).value();
  auto r = table_.resolve_memory(child, table_.reboot_count());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().desc.size, 4096u);
  EXPECT_EQ(r.value().perms, Perms::kRead);
}

TEST_F(ObjectTableTest, RevtreeChildOfRequestResolvesThrough) {
  RequestArgs args;
  args.imms = {{0, {7}}};
  const ObjectIndex root = table_.create_request_root(kProc, 2, args).value();
  const ObjectIndex child = table_.create_revtree_child(kOther, root).value();
  auto r = table_.resolve_request(child, table_.reboot_count());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().provider, kProc);
  EXPECT_EQ(r.value().args.imms.size(), 1u);
}

TEST_F(ObjectTableTest, DoubleRevokeReportsRevoked) {
  const ObjectIndex base = make_memory();
  EXPECT_TRUE(table_.revoke(base, table_.reboot_count()).ok());
  EXPECT_EQ(table_.revoke(base, table_.reboot_count()).error(), ErrorCode::kRevoked);
}

TEST_F(ObjectTableTest, StaleGenerationDetected) {
  const ObjectIndex idx = make_memory();
  const uint32_t old_gen = table_.reboot_count();
  table_.reboot();
  EXPECT_EQ(table_.resolve_memory(idx, old_gen).error(), ErrorCode::kStaleCapability);
  EXPECT_EQ(table_.live_count(), 0u);
  // New objects under the new generation work.
  const ObjectIndex fresh = make_memory();
  EXPECT_TRUE(table_.resolve_memory(fresh, table_.reboot_count()).ok());
}

TEST_F(ObjectTableTest, UnknownIndexIsInvalidCapability) {
  EXPECT_EQ(table_.resolve_memory(999, table_.reboot_count()).error(),
            ErrorCode::kInvalidCapability);
}

TEST_F(ObjectTableTest, SweepReclaimsInvalidatedObjects) {
  const ObjectIndex a = make_memory();
  const ObjectIndex b = make_memory();
  auto revoked = table_.revoke(a, table_.reboot_count());
  ASSERT_TRUE(revoked.ok());
  EXPECT_EQ(table_.total_count(), 2u);
  EXPECT_EQ(table_.erase_objects(revoked.value().invalidated), 1u);
  EXPECT_EQ(table_.total_count(), 1u);
  EXPECT_TRUE(table_.resolve_memory(b, table_.reboot_count()).ok());
  EXPECT_EQ(table_.resolve_memory(a, table_.reboot_count()).error(),
            ErrorCode::kInvalidCapability);
}

TEST_F(ObjectTableTest, MonitorReceiveFiresOnRevoke) {
  const ObjectIndex idx = make_memory();
  const MonitorSub sub{2, kOther, 42};
  ASSERT_TRUE(table_.monitor_receive(idx, table_.reboot_count(), sub).ok());
  auto result = table_.revoke(idx, table_.reboot_count());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().fires.size(), 1u);
  EXPECT_FALSE(result.value().fires[0].delegate_mode);
  EXPECT_EQ(result.value().fires[0].sub.callback_id, 42u);
  EXPECT_EQ(result.value().fires[0].sub.process, kOther);
}

TEST_F(ObjectTableTest, MonitorReceiveFiresWhenAncestorRevoked) {
  const ObjectIndex base = make_memory();
  const ObjectIndex child = table_.create_revtree_child(kProc, base).value();
  ASSERT_TRUE(table_.monitor_receive(child, table_.reboot_count(), MonitorSub{2, kOther, 1}).ok());
  auto result = table_.revoke(base, table_.reboot_count());
  ASSERT_EQ(result.value().fires.size(), 1u);
}

TEST_F(ObjectTableTest, MonitorDelegateCountsChildren) {
  const ObjectIndex idx = make_memory();
  ASSERT_TRUE(table_.monitor_delegate(idx, table_.reboot_count(), MonitorSub{1, kProc, 9}).ok());
  // Two delegations create two tracked children.
  const ObjectIndex c1 = table_.prepare_delegation(idx).value();
  const ObjectIndex c2 = table_.prepare_delegation(idx).value();
  EXPECT_NE(c1, idx);
  EXPECT_NE(c2, idx);
  EXPECT_NE(c1, c2);
  auto r1 = table_.revoke(c1, table_.reboot_count());
  EXPECT_TRUE(r1.value().fires.empty());  // one child remains
  auto r2 = table_.revoke(c2, table_.reboot_count());
  ASSERT_EQ(r2.value().fires.size(), 1u);
  EXPECT_TRUE(r2.value().fires[0].delegate_mode);
  EXPECT_EQ(r2.value().fires[0].sub.callback_id, 9u);
}

TEST_F(ObjectTableTest, MonitorDelegateRequiresNoExistingChildren) {
  const ObjectIndex idx = make_memory();
  ASSERT_TRUE(table_.create_revtree_child(kProc, idx).ok());
  EXPECT_EQ(table_.monitor_delegate(idx, table_.reboot_count(), MonitorSub{1, kProc, 1}).error(),
            ErrorCode::kInvalidArgument);
}

TEST_F(ObjectTableTest, PrepareDelegationUnmonitoredIsIdentity) {
  const ObjectIndex idx = make_memory();
  EXPECT_EQ(table_.prepare_delegation(idx).value(), idx);
}

TEST_F(ObjectTableTest, RevokeAllOfCreator) {
  const ObjectIndex mine = make_memory();
  const ObjectIndex theirs =
      table_.create_memory(kOther, MemoryDesc{0, 0, 0, 64}, Perms::kRead).value();
  auto result = table_.revoke_all_of(kProc);
  EXPECT_EQ(result.invalidated.size(), 1u);
  EXPECT_EQ(table_.resolve_memory(mine, table_.reboot_count()).error(), ErrorCode::kRevoked);
  EXPECT_TRUE(table_.resolve_memory(theirs, table_.reboot_count()).ok());
}

TEST_F(ObjectTableTest, RevokeAllOfCreatorTakesDescendants) {
  // kProc's object has a child created by kOther: the child dies with the subtree.
  const ObjectIndex base = make_memory();
  const ObjectIndex child = table_.derive_memory(kOther, base, 0, 10, Perms::kNone).value();
  auto result = table_.revoke_all_of(kProc);
  EXPECT_EQ(result.invalidated.size(), 2u);
  EXPECT_EQ(table_.resolve_memory(child, table_.reboot_count()).error(), ErrorCode::kRevoked);
}

TEST_F(ObjectTableTest, ChainDepthCountsDerivationLayers) {
  const ObjectIndex root = table_.create_request_root(kProc, 1, {}).value();
  EXPECT_EQ(table_.chain_depth(root), 1u);
  RequestArgs ref;
  ref.imms = {{0, {0xaa}}};
  const ObjectIndex d1 = table_.derive_request_local(kOther, root, ref).value();
  const ObjectIndex d2 = table_.create_revtree_child(kOther, d1).value();
  EXPECT_EQ(table_.chain_depth(d1), 2u);
  EXPECT_EQ(table_.chain_depth(d2), 3u);
  EXPECT_EQ(table_.chain_depth(999999), 0u);
}

TEST_F(ObjectTableTest, IdenticalRefinementsShareOneInternedBlob) {
  RequestArgs base_args;
  base_args.imms = {{0, {0xaa}}};
  const ObjectIndex root = table_.create_request_root(kProc, 1, base_args).value();
  EXPECT_EQ(table_.interned_args_count(), 1u);

  // N siblings carrying the same refinement share one blob; a different refinement gets its
  // own; revtree children add no args at all.
  RequestArgs ref;
  ref.imms = {{8, {0xbb}}};
  std::vector<ObjectIndex> kids;
  for (int i = 0; i < 16; ++i) {
    kids.push_back(table_.derive_request_local(kOther, root, ref).value());
  }
  EXPECT_EQ(table_.interned_args_count(), 2u);
  RequestArgs other;
  other.imms = {{16, {0xcc}}};
  const ObjectIndex odd = table_.derive_request_local(kOther, kids[0], other).value();
  ASSERT_TRUE(table_.create_revtree_child(kOther, odd).ok());
  EXPECT_EQ(table_.interned_args_count(), 3u);

  // Blobs die with their last holding object, not before.
  for (size_t i = 0; i + 1 < kids.size(); ++i) {
    auto r = table_.revoke(kids[i + 1], table_.reboot_count());
    ASSERT_TRUE(r.ok());
    table_.erase_objects(r.value().invalidated);
  }
  EXPECT_EQ(table_.interned_args_count(), 3u);  // kids[0] still holds the shared blob
  auto last = table_.revoke(kids[0], table_.reboot_count());
  ASSERT_TRUE(last.ok());
  table_.erase_objects(last.value().invalidated);  // takes `odd` and its revtree child too
  EXPECT_EQ(table_.interned_args_count(), 1u);
}

TEST_F(ObjectTableTest, SlabSlotsAreRecycledAcrossChurn) {
  // Enough churn to cross slab boundaries in several shards: resolutions of survivors must
  // stay intact across erasures and re-inserts (slots never move; freed slots are reused),
  // and the live/total accounting must track exactly.
  constexpr int kN = 3000;
  std::vector<ObjectIndex> idx;
  idx.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    idx.push_back(
        table_.create_memory(kProc, MemoryDesc{0, 0, uint64_t(i) * 64, 64}, Perms::kRead)
            .value());
  }
  EXPECT_EQ(table_.live_count(), size_t(kN));
  EXPECT_EQ(table_.total_count(), size_t(kN));

  for (int i = 0; i < kN; i += 2) {
    auto r = table_.revoke(idx[i], table_.reboot_count());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(table_.erase_objects(r.value().invalidated), 1u);
  }
  EXPECT_EQ(table_.live_count(), size_t(kN / 2));
  EXPECT_EQ(table_.total_count(), size_t(kN / 2));

  // Refill into the recycled slots, then verify every survivor still resolves to its own
  // extent (a stale index or a moved slot would surface here).
  for (int i = 0; i < kN / 2; ++i) {
    ASSERT_TRUE(
        table_.create_memory(kOther, MemoryDesc{0, 0, 1u << 20, 64}, Perms::kRead).ok());
  }
  EXPECT_EQ(table_.live_count(), size_t(kN));
  for (int i = 1; i < kN; i += 2) {
    auto r = table_.resolve_memory(idx[i], table_.reboot_count());
    ASSERT_TRUE(r.ok()) << "survivor " << i;
    EXPECT_EQ(r.value().desc.addr, uint64_t(i) * 64);
  }
  // Erased indices stay dead even after their slots were reused.
  for (int i = 0; i < kN; i += 2) {
    EXPECT_FALSE(table_.resolve_memory(idx[i], table_.reboot_count()).ok());
  }
}

TEST_F(ObjectTableTest, SmallTableAllocatesSmallSlabs) {
  // Most tables are small (one per Controller). Each object lands in at most one fresh shard,
  // whose first slab holds kFirstSlabSlots slots — not a full kSlabSlots slab.
  EXPECT_EQ(table_.slot_capacity(), 0u);
  for (int i = 0; i < 10; ++i) {
    make_memory();
  }
  EXPECT_GT(table_.slot_capacity(), 0u);
  EXPECT_LE(table_.slot_capacity(), 10 * ObjectTable::kFirstSlabSlots);
}

TEST_F(ObjectTableTest, GeometricSlabsCrossEveryBoundary) {
  // Every shard grows through its 16..512-slot slabs, fills one 1024-slot slab and starts a
  // second: ~2340 objects per shard against the 2032 slots before that second slab.
  constexpr size_t kN = 150'000;
  constexpr size_t kGeometric = 16 + 32 + 64 + 128 + 256 + 512;
  std::vector<ObjectIndex> idx;
  idx.reserve(kN);
  for (size_t i = 0; i < kN; ++i) {
    idx.push_back(
        table_.create_memory(kProc, MemoryDesc{0, 0, i * 64, 64}, Perms::kRead).value());
  }
  EXPECT_EQ(table_.slot_capacity(),
            ObjectTable::kShardCount * (kGeometric + 2 * ObjectTable::kSlabSlots));

  for (size_t i = 0; i < kN; i += 2) {
    auto r = table_.revoke(idx[i], table_.reboot_count());
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(table_.erase_objects(r.value().invalidated), 1u);
  }
  for (size_t i = 0; i < kN / 2; ++i) {
    ASSERT_TRUE(
        table_.create_memory(kOther, MemoryDesc{0, 0, 1ull << 40, 64}, Perms::kRead).ok());
  }
  EXPECT_EQ(table_.live_count(), kN);
  for (size_t i = 0; i < kN; ++i) {
    auto r = table_.resolve_memory(idx[i], table_.reboot_count());
    if (i % 2 == 0) {
      EXPECT_FALSE(r.ok()) << "erased " << i;
    } else {
      ASSERT_TRUE(r.ok()) << "survivor " << i;
      EXPECT_EQ(r.value().desc.addr, i * 64);
    }
  }

  // The restore path (insert_with_index) crosses the same boundaries and must rebuild an
  // identical table.
  const std::vector<uint8_t> snap = table_.serialize_snapshot();
  ObjectTable restored(table_.owner());
  ASSERT_TRUE(restored.restore_snapshot(snap).ok());
  EXPECT_EQ(restored.digest(), table_.digest());
  EXPECT_EQ(restored.serialize_snapshot(), snap);
  auto r = restored.resolve_memory(idx[1], restored.reboot_count());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().desc.addr, 64u);
}

TEST(DenseIndexTest, LeafBoundariesAndRemint) {
  DenseIndex index;
  EXPECT_EQ(index.find(0), DenseIndex::kAbsent);
  for (uint64_t pos : {63, 64, 65, 4095, 4096}) {
    EXPECT_EQ(index.put(pos, static_cast<uint32_t>(pos * 10)), DenseIndex::kAbsent);
  }
  EXPECT_EQ(index.leaf_count(), 4u);  // leaves 0, 1, 63 and 64
  for (uint64_t pos : {63, 64, 65, 4095, 4096}) {
    EXPECT_EQ(index.find(pos), pos * 10) << pos;
  }
  for (uint64_t pos : {0, 62, 66, 127, 128, 4094, 4097}) {
    EXPECT_EQ(index.find(pos), DenseIndex::kAbsent) << pos;
  }
  // Groups never alias, and a put on a present key returns the value it replaces.
  EXPECT_EQ(index.find(64, /*group=*/1), DenseIndex::kAbsent);
  EXPECT_EQ(index.put(64, 7), 640u);
  EXPECT_EQ(index.leaf_count(), 4u);

  // Emptying leaf 1 frees it; erasing an absent key changes nothing.
  EXPECT_EQ(index.erase(64), 7u);
  EXPECT_EQ(index.erase(64), DenseIndex::kAbsent);
  EXPECT_EQ(index.leaf_count(), 4u);
  EXPECT_EQ(index.erase(65), 650u);
  EXPECT_EQ(index.leaf_count(), 3u);
  EXPECT_EQ(index.find(65), DenseIndex::kAbsent);  // the freed leaf was the cached one
  EXPECT_EQ(index.erase(100), DenseIndex::kAbsent);

  // Re-minting leaf 1 starts from an empty leaf.
  EXPECT_EQ(index.put(127, 1), DenseIndex::kAbsent);
  EXPECT_EQ(index.leaf_count(), 4u);
  for (uint64_t pos = 64; pos < 127; ++pos) {
    ASSERT_EQ(index.find(pos), DenseIndex::kAbsent) << pos;
  }
  EXPECT_EQ(index.find(127), 1u);
  EXPECT_EQ(index.find(63), 630u);

  // The extremes of the key space are ordinary keys.
  EXPECT_EQ(index.put(~uint64_t{0}, 3, ~uint64_t{0}), DenseIndex::kAbsent);
  EXPECT_EQ(index.find(~uint64_t{0}, ~uint64_t{0}), 3u);
  EXPECT_EQ(index.find(~uint64_t{0}), DenseIndex::kAbsent);

  DenseIndex moved = std::move(index);
  EXPECT_EQ(moved.find(4096), 40960u);
  EXPECT_EQ(moved.leaf_count(), 5u);
}

TEST_F(ObjectTableTest, ObjectsResolveAcrossLeafBoundariesAndAfterReboot) {
  // Indices 1..4100 fill leaves 0..64; leaf 1 (indices 64..127) is emptied and freed.
  std::vector<ObjectIndex> idx;
  for (uint64_t i = 1; i <= 4100; ++i) {
    idx.push_back(make_memory(i));
    ASSERT_EQ(idx.back(), i);
  }
  for (ObjectIndex i = 64; i < 128; ++i) {
    auto r = table_.revoke(i, table_.reboot_count());
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(table_.erase_objects(r.value().invalidated), 1u);
  }
  for (ObjectIndex i : {63, 128, 4095, 4096, 4097}) {
    auto r = table_.resolve_memory(i, table_.reboot_count());
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(r.value().desc.size, i);
  }
  for (ObjectIndex i : {64, 65, 127}) {
    EXPECT_EQ(table_.resolve_memory(i, table_.reboot_count()).error(),
              ErrorCode::kInvalidCapability)
        << i;
  }
  EXPECT_FALSE(table_.exists(0));
  EXPECT_FALSE(table_.exists(4101));
  EXPECT_FALSE(table_.exists(kInvalidObject));

  // The restore path re-mints leaf 0 and the freed leaf 1 stays absent.
  const std::vector<uint8_t> snap = table_.serialize_snapshot();
  ObjectTable restored(table_.owner());
  ASSERT_TRUE(restored.restore_snapshot(snap).ok());
  EXPECT_EQ(restored.digest(), table_.digest());
  EXPECT_EQ(restored.live_count(), 4100u - 64u);
  EXPECT_FALSE(restored.exists(64));
  EXPECT_TRUE(restored.exists(63));

  // After a reboot, index 1 is minted again and its old capability is stale.
  const uint32_t old_gen = table_.reboot_count();
  table_.reboot();
  EXPECT_FALSE(table_.exists(63));
  EXPECT_EQ(make_memory(77), 1u);
  EXPECT_EQ(table_.resolve_memory(1, old_gen).error(), ErrorCode::kStaleCapability);
  EXPECT_EQ(table_.resolve_memory(1, table_.reboot_count()).value().desc.size, 77u);
  EXPECT_FALSE(table_.exists(2));
}

// Snapshot blob layout (ObjectTable::serialize_snapshot): a 20-byte header (u32 owner,
// u32 reboot count, u64 next index, u32 object count), then each object starting with its u64
// index and u8 kind. All integers are little-endian.
constexpr size_t kSnapNextOffset = 8;
constexpr size_t kSnapCountOffset = 16;
constexpr size_t kSnapHeaderBytes = 20;

template <typename T>
void poke(std::vector<uint8_t>& blob, size_t offset, T v) {
  std::memcpy(blob.data() + offset, &v, sizeof(v));
}

// A blob of `indices.size()` copies of one plain memory object, each under its own index.
std::vector<uint8_t> snapshot_of_copies(const std::vector<ObjectIndex>& indices,
                                        ObjectIndex next) {
  ObjectTable one(/*owner=*/1);
  FRACTOS_CHECK(one.create_memory(kProc, MemoryDesc{0, 0, 0, 64}, Perms::kRead).ok());
  const std::vector<uint8_t> snap = one.serialize_snapshot();
  std::vector<uint8_t> blob(snap.begin(), snap.begin() + kSnapHeaderBytes);
  poke<uint64_t>(blob, kSnapNextOffset, next);
  poke<uint32_t>(blob, kSnapCountOffset, static_cast<uint32_t>(indices.size()));
  for (ObjectIndex idx : indices) {
    const size_t at = blob.size();
    blob.insert(blob.end(), snap.begin() + kSnapHeaderBytes, snap.end());
    poke<uint64_t>(blob, at, idx);
  }
  return blob;
}

TEST(ObjectTableSnapshot, HostileBlobsAreRejectedWithoutAborting) {
  ASSERT_TRUE(ObjectTable(1).restore_snapshot(snapshot_of_copies({1, 5}, 6)).ok());
  std::vector<uint8_t> bad_kind = snapshot_of_copies({1, 5}, 6);
  bad_kind[kSnapHeaderBytes + 8] = 2;  // neither kMemory nor kRequest
  // More objects than one shard can hold: restoring them all could run a shard out of slot
  // ids, which grow_slabs would CHECK-fail on.
  std::vector<uint8_t> too_many = snapshot_of_copies({1}, 6);
  static_assert(ObjectTable::kMaxShardSlots < 0xffffffffu);
  poke<uint32_t>(too_many, kSnapCountOffset,
                 static_cast<uint32_t>(ObjectTable::kMaxShardSlots + 1));
  const std::vector<std::vector<uint8_t>> hostile = {
      snapshot_of_copies({0}, 6),               // index 0 is never minted
      snapshot_of_copies({kInvalidObject}, 6),  // the slot free marker
      snapshot_of_copies({kInvalidObject}, kInvalidObject),
      snapshot_of_copies({6}, 6),     // at next_index
      snapshot_of_copies({1, 7}, 6),  // beyond it
      snapshot_of_copies({5, 5}, 6),  // duplicate
      snapshot_of_copies({1, 2, 3, 2}, 6),
      bad_kind,
      too_many,  // refused before any object is decoded
  };
  for (size_t i = 0; i < hostile.size(); ++i) {
    ObjectTable t(/*owner=*/1);
    ASSERT_TRUE(t.create_memory(kProc, MemoryDesc{0, 0, 0, 64}, Perms::kRead).ok());
    EXPECT_EQ(t.restore_snapshot(hostile[i]).error(), ErrorCode::kInvalidArgument) << i;
    // A rejected restore leaves an empty, usable table.
    EXPECT_EQ(t.total_count(), 0u) << i;
    EXPECT_EQ(t.live_count(), 0u) << i;
    EXPECT_FALSE(t.exists(1)) << i;
    EXPECT_EQ(t.invalidated_objects().size(), 0u) << i;
  }
}

int64_t heap_growth_since(size_t heap0) {
  return static_cast<int64_t>(heap_in_use_bytes()) - static_cast<int64_t>(heap0);
}

constexpr const char* kHeapNotCounted =
    "heap_in_use_bytes() does not see this build's allocations; memory bounds not checked";

TEST(ObjectTableSnapshot, SparseIndicesRestoreInBoundedMemory) {
  // 10^4 objects 2^20 apart: each sits alone in its leaf, the index's worst case.
  constexpr size_t kN = 10'000;
  std::vector<ObjectIndex> indices;
  for (size_t i = 1; i <= kN; ++i) {
    indices.push_back(ObjectIndex{i} << 20);
  }
  const std::vector<uint8_t> blob = snapshot_of_copies(indices, (ObjectIndex{kN} << 20) + 1);
  const size_t heap0 = heap_in_use_bytes();
  ObjectTable t(/*owner=*/1);
  ASSERT_TRUE(t.restore_snapshot(blob).ok());
  const int64_t restored = heap_growth_since(heap0);
  EXPECT_EQ(t.live_count(), kN);
  for (ObjectIndex idx : indices) {
    ASSERT_TRUE(t.resolve_memory(idx, t.reboot_count()).ok()) << idx;
    ASSERT_FALSE(t.exists(idx + 1)) << idx;
  }
  EXPECT_EQ(t.serialize_snapshot(), blob);
  if (!heap_in_use_is_counted()) {
    GTEST_SKIP() << kHeapNotCounted;
  }
  EXPECT_LE(restored, static_cast<int64_t>(512 * kN));
}

TEST(CheckImmOverlapTest, Cases) {
  const std::vector<ImmExtent> existing = {{0, {1, 2, 3, 4}}};
  EXPECT_TRUE(check_imm_overlap(existing, {{4, {5}}}).ok());
  EXPECT_EQ(check_imm_overlap(existing, {{3, {5}}}).error(), ErrorCode::kArgumentOverlap);
  EXPECT_EQ(check_imm_overlap(existing, {{0, {9, 9, 9, 9}}}).error(),
            ErrorCode::kArgumentOverlap);
  EXPECT_TRUE(check_imm_overlap({}, {{0, {1}}, {1, {2}}}).ok());
  EXPECT_EQ(check_imm_overlap({}, {{0, {1, 2}}, {1, {3}}}).error(),
            ErrorCode::kArgumentOverlap);
  EXPECT_TRUE(check_imm_overlap(existing, {}).ok());

  // Duplicate offsets: within one batch and against an existing extent.
  EXPECT_EQ(check_imm_overlap({}, {{0, {1}}, {0, {2}}}).error(), ErrorCode::kArgumentOverlap);
  EXPECT_EQ(check_imm_overlap(existing, {{0, {9}}}).error(), ErrorCode::kArgumentOverlap);

  // The sweep must not depend on the batch arriving sorted.
  EXPECT_TRUE(check_imm_overlap({}, {{8, {1}}, {0, {1, 2}}}).ok());
  EXPECT_EQ(check_imm_overlap({}, {{4, {1, 2, 3, 4, 5}}, {0, {1, 2, 3, 4, 5}}}).error(),
            ErrorCode::kArgumentOverlap);
  EXPECT_EQ(check_imm_overlap({{8, {1, 2}}}, {{12, {1}}, {6, {1, 2, 3}}}).error(),
            ErrorCode::kArgumentOverlap);

  // Zero-length extents overlap only when strictly inside another extent, never when they
  // merely touch its boundary or another empty extent at the same offset.
  EXPECT_EQ(check_imm_overlap(existing, {{2, {}}}).error(), ErrorCode::kArgumentOverlap);
  EXPECT_TRUE(check_imm_overlap(existing, {{0, {}}}).ok());
  EXPECT_TRUE(check_imm_overlap(existing, {{4, {}}}).ok());
  EXPECT_TRUE(check_imm_overlap({}, {{3, {}}, {3, {}}}).ok());
}

// FNV-1a over a byte string: a compact fingerprint of a serialized snapshot.
uint64_t fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Scripted table covering every field the snapshot and digest carry: memory and request
// objects, revtree children of both kinds, monitor_delegate with delegatee children,
// monitor_receive subscriptions, a revoke that fires them, and an erase. The golden values
// pin the encoded state, so a change to the table's storage layout cannot silently change
// replica digests or catch-up snapshots.
TEST(ObjectTableGolden, ScriptedTableDigestAndSnapshotArePinned) {
  ObjectTable t(/*owner=*/3, /*reboot_count=*/2);
  const uint32_t gen = t.reboot_count();
  const ObjectIndex m1 =
      t.create_memory(kProc, MemoryDesc{1, 2, 0x1000, 8192}, Perms::kReadWrite).value();
  const ObjectIndex m2 = t.derive_memory(kProc, m1, 1024, 2048, Perms::kWrite).value();
  ASSERT_TRUE(t.create_revtree_child(kOther, m1).ok());
  WireCap wc;
  wc.ref = ObjectRef{9, 77, 4};
  wc.kind = ObjectKind::kMemory;
  wc.perms = Perms::kRead;
  wc.mem = MemoryDesc{4, 0, 0x2000, 64};
  wc.tracked = true;
  const ObjectIndex r1 =
      t.create_request_root(kProc, kInvalidCap, RequestArgs{{{0, {1, 2, 3, 4}}}, {wc}}).value();
  ASSERT_TRUE(t.set_endpoint_cid(r1, 42).ok());
  const ObjectIndex r2 = t.derive_request_local(kOther, r1, RequestArgs{{{8, {9, 9}}}, {}}).value();
  const ObjectIndex r3 = t.create_revtree_child(kProc, r2).value();
  const ObjectIndex m4 =
      t.create_memory(kOther, MemoryDesc{2, 1, 0, 4096}, Perms::kRead).value();
  ASSERT_TRUE(t.monitor_delegate(m4, gen, MonitorSub{5, 55, 501}).ok());
  const ObjectIndex d1 = t.prepare_delegation(m4).value();
  const ObjectIndex d2 = t.prepare_delegation(m4).value();
  ASSERT_TRUE(t.monitor_receive(m2, gen, MonitorSub{6, 66, 601}).ok());
  ASSERT_TRUE(t.monitor_receive(m2, gen, MonitorSub{7, 77, 701}).ok());
  ASSERT_TRUE(t.monitor_receive(r3, gen, MonitorSub{8, 88, 801}).ok());
  ASSERT_TRUE(t.monitor_receive(d2, gen, MonitorSub{9, 99, 901}).ok());

  const uint64_t mid_digest = t.digest();
  const uint64_t mid_snapshot = fnv1a(t.serialize_snapshot());

  auto rd = t.revoke(d1, gen);
  ASSERT_TRUE(rd.ok());
  EXPECT_TRUE(rd.value().fires.empty());  // d2 still outstanding
  auto rm = t.revoke(m2, gen);
  ASSERT_TRUE(rm.ok());
  ASSERT_EQ(rm.value().fires.size(), 2u);
  EXPECT_EQ(rm.value().fires[0].sub.callback_id, 601u);
  EXPECT_EQ(rm.value().fires[1].sub.callback_id, 701u);
  EXPECT_EQ(t.erase_objects(rm.value().invalidated), 1u);
  auto rr = t.revoke(r2, gen);
  ASSERT_TRUE(rr.ok());
  ASSERT_EQ(rr.value().fires.size(), 1u);
  EXPECT_EQ(rr.value().fires[0].sub.callback_id, 801u);

  // Recorded before the hot/cold slot split; the layout must not move them.
  const std::vector<uint8_t> snap = t.serialize_snapshot();
  EXPECT_EQ(mid_digest, 15242609877831521016ull);
  EXPECT_EQ(mid_snapshot, 15470063156281637796ull);
  EXPECT_EQ(t.digest(), 8549598469441130911ull);
  EXPECT_EQ(fnv1a(snap), 5371060548242472518ull);
  EXPECT_EQ(snap.size(), 1145u);

  ObjectTable restored(/*owner=*/3);
  ASSERT_TRUE(restored.restore_snapshot(snap).ok());
  EXPECT_EQ(restored.digest(), t.digest());
  EXPECT_EQ(restored.serialize_snapshot(), snap);
}

// A parent of `children` derived Memory children, each with one grandchild; child `erased` is
// then revoked and erased with its grandchild, and one more child is appended. With
// `linked == false` the erased child is minted as a root instead: the same indices, counts
// and free slots, but a parent whose child list never held it. Returns the parent.
ObjectIndex build_siblings(ObjectTable& t, size_t children, size_t erased, bool linked) {
  const ObjectIndex parent =
      t.create_memory(kProc, MemoryDesc{0, 0, 0, 1 << 20}, Perms::kReadWrite).value();
  ObjectIndex gone = kInvalidObject;
  for (size_t i = 0; i < children; ++i) {
    const ObjectIndex c =
        linked || i != erased
            ? t.derive_memory(kProc, parent, i * 4096, 4096, Perms::kNone).value()
            : t.create_memory(kProc, MemoryDesc{0, 0, i * 4096, 4096}, Perms::kReadWrite)
                  .value();
    FRACTOS_CHECK(t.derive_memory(kOther, c, 0, 64, Perms::kWrite).ok());
    if (i == erased) {
      gone = c;
    }
  }
  auto r = t.revoke(gone, t.reboot_count());
  FRACTOS_CHECK(r.ok() && t.erase_objects(r.value().invalidated) == 2);
  FRACTOS_CHECK(t.derive_memory(kProc, parent, 0, 64, Perms::kRead).ok());
  return parent;
}

// Erasing the first, a middle, the last or the only child unlinks it from the sibling list
// (whose prev links wrap around from the first child to the last): the walk, the snapshot
// and the digest then equal those of a table whose list never held that child, before and
// after a revoke of the parent.
TEST(ObjectTableSiblings, ErasedChildLeavesTheListOfATableBuiltWithoutIt) {
  struct Case {
    size_t children;
    size_t erased;
  };
  for (const Case c : {Case{4, 0}, Case{4, 1}, Case{4, 2}, Case{4, 3}, Case{1, 0}}) {
    SCOPED_TRACE(testing::Message() << c.children << " children, erased " << c.erased);
    ObjectTable erased(/*owner=*/1);
    ObjectTable without(/*owner=*/1);
    const ObjectIndex parent = build_siblings(erased, c.children, c.erased, true);
    ASSERT_EQ(build_siblings(without, c.children, c.erased, false), parent);
    EXPECT_EQ(erased.digest(), without.digest());
    EXPECT_EQ(erased.serialize_snapshot(), without.serialize_snapshot());

    ObjectTable restored(/*owner=*/1);
    ASSERT_TRUE(restored.restore_snapshot(erased.serialize_snapshot()).ok());
    EXPECT_EQ(restored.digest(), erased.digest());
    EXPECT_EQ(restored.serialize_snapshot(), erased.serialize_snapshot());

    // Pre-order: the parent, each surviving child (index 2 + 2i) then its grandchild, and
    // the child appended after the erase.
    std::vector<ObjectIndex> walk = {parent};
    for (size_t i = 0; i < c.children; ++i) {
      if (i != c.erased) {
        walk.push_back(2 + 2 * i);
        walk.push_back(3 + 2 * i);
      }
    }
    walk.push_back(2 + 2 * c.children);
    for (ObjectTable* t : {&erased, &without, &restored}) {
      auto r = t->revoke(parent, t->reboot_count());
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value().invalidated, walk);
    }
    EXPECT_EQ(erased.digest(), without.digest());
    EXPECT_EQ(restored.digest(), erased.digest());
    EXPECT_EQ(erased.serialize_snapshot(), without.serialize_snapshot());
  }
}

// In a blob a first child's prev_sibling is unset (the slot's wrap-around link to the last
// child is not carried), and a restore refuses one that is set, to any value.
TEST(ObjectTableSnapshot, FirstChildWithPrevSiblingIsRefused) {
  ObjectTable t(/*owner=*/1);
  const ObjectIndex parent = t.create_memory(kProc, MemoryDesc{0, 0, 0, 4096}, Perms::kRead).value();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.derive_memory(kProc, parent, 0, 64, Perms::kNone).ok());
  }
  // Objects 1 (the parent) to 4 (its last child) have records of equal size, the first
  // child's prev_sibling 34 bytes into object 2's.
  const std::vector<uint8_t> good = t.serialize_snapshot();
  const size_t object_bytes = (good.size() - kSnapHeaderBytes) / 4;
  ASSERT_EQ(good.size(), kSnapHeaderBytes + 4 * object_bytes);
  const size_t first_prev = kSnapHeaderBytes + object_bytes + 34;
  ObjectIndex wire_prev = 0;
  std::memcpy(&wire_prev, good.data() + first_prev, sizeof(wire_prev));
  EXPECT_EQ(wire_prev, kInvalidObject);
  ASSERT_TRUE(ObjectTable(1).restore_snapshot(good).ok());
  for (const ObjectIndex bad : {ObjectIndex{4}, ObjectIndex{2}, ObjectIndex{3}, parent}) {
    std::vector<uint8_t> blob = good;
    poke<uint64_t>(blob, first_prev, bad);
    ObjectTable r(/*owner=*/1);
    EXPECT_EQ(r.restore_snapshot(blob).error(), ErrorCode::kInvalidArgument) << bad;
    EXPECT_EQ(r.total_count(), 0u) << bad;
  }
}

class CapSpaceTest : public ::testing::Test {
 protected:
  static CapEntry entry(ObjectIndex idx) {
    CapEntry e;
    e.ref = ObjectRef{1, idx, 1};
    e.kind = ObjectKind::kMemory;
    return e;
  }
};

TEST_F(CapSpaceTest, InstallGetRemove) {
  CapSpace space;
  const CapId a = space.install(entry(10)).value();
  const CapId b = space.install(entry(11)).value();
  EXPECT_NE(a, b);
  EXPECT_EQ(space.get(a).value().ref.index, 10u);
  EXPECT_EQ(space.get(b).value().ref.index, 11u);
  EXPECT_EQ(space.size(), 2u);
  EXPECT_TRUE(space.remove(a).ok());
  EXPECT_EQ(space.get(a).error(), ErrorCode::kInvalidCapability);
  EXPECT_EQ(space.size(), 1u);
}

TEST_F(CapSpaceTest, CidsAreNeverReused) {
  // A stale cid must never silently alias a newer capability (confused-deputy hazard).
  CapSpace space;
  const CapId a = space.install(entry(1)).value();
  EXPECT_TRUE(space.remove(a).ok());
  const CapId b = space.install(entry(2)).value();
  EXPECT_NE(a, b);
  EXPECT_EQ(space.get(a).error(), ErrorCode::kInvalidCapability);
  EXPECT_EQ(space.get(b).value().ref.index, 2u);
}

TEST_F(CapSpaceTest, QuotaEnforced) {
  CapSpace space(2);
  EXPECT_TRUE(space.install(entry(1)).ok());
  EXPECT_TRUE(space.install(entry(2)).ok());
  EXPECT_EQ(space.install(entry(3)).error(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(space.remove(0).ok());
  EXPECT_TRUE(space.install(entry(3)).ok());
}

TEST_F(CapSpaceTest, PurgeRefsDropsMatchingEntries) {
  CapSpace space;
  const CapId a = space.install(entry(10)).value();
  const CapId b = space.install(entry(11)).value();
  const CapId c = space.install(entry(10)).value();  // second cap to the same object
  EXPECT_EQ(space.purge_refs({ObjectRef{1, 10, 1}}), 2u);
  EXPECT_EQ(space.get(a).error(), ErrorCode::kInvalidCapability);
  EXPECT_EQ(space.get(c).error(), ErrorCode::kInvalidCapability);
  EXPECT_TRUE(space.get(b).ok());
}

TEST_F(CapSpaceTest, PurgeIgnoresDifferentGeneration) {
  CapSpace space;
  ASSERT_TRUE(space.install(entry(10)).ok());
  EXPECT_EQ(space.purge_refs({ObjectRef{1, 10, 2}}), 0u);
  EXPECT_EQ(space.size(), 1u);
}

TEST_F(CapSpaceTest, AllEntriesListsLive) {
  CapSpace space;
  ASSERT_TRUE(space.install(entry(1)).ok());
  const CapId b = space.install(entry(2)).value();
  ASSERT_TRUE(space.install(entry(3)).ok());
  ASSERT_TRUE(space.remove(b).ok());
  auto all = space.all_entries();
  EXPECT_EQ(all.size(), 2u);
}

TEST_F(CapSpaceTest, InvalidCidRejected) {
  CapSpace space;
  EXPECT_EQ(space.get(0).error(), ErrorCode::kInvalidCapability);
  EXPECT_EQ(space.remove(12345).error(), ErrorCode::kInvalidCapability);
}

TEST_F(CapSpaceTest, AllEntriesAreInAscendingCidOrder) {
  CapSpace space;
  std::vector<CapId> cids;
  for (ObjectIndex i = 0; i < CapSpace::kPageSlots + 100; ++i) {
    cids.push_back(space.install(entry(i)).value());
  }
  for (size_t i = 0; i < cids.size(); i += 3) {
    ASSERT_TRUE(space.remove(cids[i]).ok());
  }
  const std::vector<CapEntry> all = space.all_entries();
  ASSERT_EQ(all.size(), space.size());
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].ref.index, all[i].ref.index);  // entry(i) was installed as cid i
  }
}

TEST_F(CapSpaceTest, CidsAreNeverReusedAcrossRemovePurgeAndPageRelease) {
  CapSpace space;
  const uint32_t n = 2 * CapSpace::kPageSlots + 5;
  for (ObjectIndex i = 0; i < n; ++i) {
    ASSERT_EQ(space.install(entry(i)).value(), static_cast<CapId>(i));
  }
  EXPECT_EQ(space.resident_pages(), 3u);
  // Empty the first page through remove() and the second through purge_refs(): both full
  // pages are released; the partly filled tail page stays.
  std::vector<ObjectRef> second_page;
  for (CapId c = 0; c < CapSpace::kPageSlots; ++c) {
    ASSERT_TRUE(space.remove(c).ok());
    second_page.push_back(ObjectRef{1, CapSpace::kPageSlots + c, 1});
  }
  EXPECT_EQ(space.purge_refs(second_page), CapSpace::kPageSlots);
  EXPECT_EQ(space.resident_pages(), 1u);
  EXPECT_EQ(space.size(), 5u);
  for (CapId c = 0; c < 2 * CapSpace::kPageSlots; ++c) {
    ASSERT_EQ(space.get(c).error(), ErrorCode::kInvalidCapability) << c;
    ASSERT_EQ(space.remove(c).error(), ErrorCode::kInvalidCapability) << c;
  }
  // New installs continue the sequence instead of refilling released cids.
  const CapId next = space.install(entry(0)).value();
  EXPECT_EQ(next, n);
  EXPECT_EQ(space.get(next).value().ref.index, 0u);
  EXPECT_EQ(space.get(0).error(), ErrorCode::kInvalidCapability);
}

TEST_F(CapSpaceTest, InstallRemoveChurnOnOneRefKeepsTheChainExact) {
  // 10^4 install/remove cycles on one ref beside 1000 long-lived holders of it. The chain
  // links make each install and remove O(1), and the chain holds exactly the live holders.
  CapSpace space;
  std::vector<CapId> holders;
  for (int i = 0; i < 1000; ++i) {
    holders.push_back(space.install(entry(42)).value());
  }
  CapId last = holders.back();
  for (int i = 0; i < 10'000; ++i) {
    const CapId c = space.install(entry(42)).value();
    ASSERT_GT(c, last);
    last = c;
    ASSERT_TRUE(space.remove(c).ok());
  }
  // Removing from the middle, the head and the tail of the chain.
  ASSERT_TRUE(space.remove(holders[500]).ok());
  ASSERT_TRUE(space.remove(holders.back()).ok());
  ASSERT_TRUE(space.remove(holders.front()).ok());
  EXPECT_EQ(space.size(), 997u);
  EXPECT_EQ(space.get(holders[1]).value().ref.index, 42u);
  EXPECT_EQ(space.purge_refs({ObjectRef{1, 42, 1}}), 997u);
  EXPECT_EQ(space.size(), 0u);
  EXPECT_EQ(space.purge_refs({ObjectRef{1, 42, 1}}), 0u);
}

TEST_F(CapSpaceTest, PurgeRefsSeparatesRefsWhoseKeysCollide) {
  // The two refs would fold to the same 64-bit key under owner << 40 ^ reboot << 32 ^ index;
  // the chain index keys (owner, generation) apart from the index, so their chains stay
  // separate.
  const ObjectRef a{0, ObjectIndex{1} << 32, 0};
  const ObjectRef b{0, 0, 1};
  CapSpace space;
  std::vector<CapId> a_cids;
  std::vector<CapId> b_cids;
  for (int i = 0; i < 4; ++i) {
    CapEntry ea;
    ea.ref = a;
    a_cids.push_back(space.install(ea).value());
    CapEntry eb;
    eb.ref = b;
    b_cids.push_back(space.install(eb).value());
  }
  ASSERT_TRUE(space.remove(a_cids[1]).ok());
  EXPECT_EQ(space.purge_refs({a}), 3u);
  for (CapId c : a_cids) {
    EXPECT_EQ(space.get(c).error(), ErrorCode::kInvalidCapability);
  }
  for (CapId c : b_cids) {
    EXPECT_EQ(space.get(c).value().ref, b);
  }
  ASSERT_TRUE(space.remove(b_cids[0]).ok());
  EXPECT_EQ(space.purge_refs({b, a}), 3u);
  EXPECT_EQ(space.size(), 0u);
}

TEST_F(CapSpaceTest, QuotaExhaustionRecoversThroughPurge) {
  CapSpace space(3);
  ASSERT_TRUE(space.install(entry(1)).ok());
  ASSERT_TRUE(space.install(entry(1)).ok());
  ASSERT_TRUE(space.install(entry(2)).ok());
  EXPECT_EQ(space.install(entry(3)).error(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(space.size(), 3u);
  EXPECT_EQ(space.purge_refs({ObjectRef{1, 1, 1}}), 2u);
  EXPECT_EQ(space.install(entry(3)).value(), 3u);  // the refused install minted no cid
  EXPECT_TRUE(space.install(entry(4)).ok());
  EXPECT_EQ(space.install(entry(5)).error(), ErrorCode::kResourceExhausted);
}

TEST_F(CapSpaceTest, SparseAndExtremeRefsInstallAndPurgeInBoundedMemory) {
  // 10^4 refs that rarely share an index leaf: half spaced 2^20 apart, half packed just below
  // kInvalidObject (kInvalidObject itself included), spread over 21 owner/generation groups.
  constexpr uint32_t kN = 10'000;
  std::vector<ObjectRef> refs;
  for (uint32_t i = 0; i < kN; ++i) {
    const ObjectIndex index = i % 2 == 0 ? ObjectIndex{i + 1} << 20 : kInvalidObject - i / 2;
    refs.push_back(ObjectRef{i % 7, index, i % 3 == 0 ? ~0u : i % 3});
  }
  const std::vector<ObjectRef> reversed(refs.rbegin(), refs.rend());
  const size_t heap0 = heap_in_use_bytes();
  CapSpace space;
  for (uint32_t i = 0; i < kN; ++i) {
    CapEntry e;
    e.ref = refs[i];
    ASSERT_EQ(space.install(e).value(), i);
  }
  const int64_t installed = heap_growth_since(heap0);
  for (uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(space.get(i).value().ref, refs[i]) << i;
  }
  // A ref one generation off or on a neighbouring index purges nothing.
  const ObjectRef other_gen{0, ObjectIndex{1} << 20, 1};
  const ObjectRef other_index{0, (ObjectIndex{1} << 20) + 1, ~0u};
  EXPECT_EQ(space.purge_refs({other_gen, other_index}), 0u);
  EXPECT_EQ(space.purge_refs(reversed), kN);
  EXPECT_EQ(space.size(), 0u);
  for (uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(space.get(i).error(), ErrorCode::kInvalidCapability) << i;
  }
  const int64_t purged = heap_growth_since(heap0);
  if (!heap_in_use_is_counted()) {
    GTEST_SKIP() << kHeapNotCounted;
  }
  EXPECT_LE(installed, static_cast<int64_t>(512 * kN));
  // Every leaf is freed (they took ~300 B a ref). What remains is the partly minted last cid
  // page and the directory's bucket array, which keeps its size.
  EXPECT_LE(purged,
            static_cast<int64_t>(CapSpace::kPageSlots * CapSpace::slot_bytes() + 16 * kN));
}

// The capability layer's per-entry footprint at 10^6 live objects and caps (DESIGN.md §4g).
static_assert(ObjectTable::slot_bytes() <= 80, "ObjectTable hot slot grew");
static_assert(CapSpace::slot_bytes() <= 56, "CapSpace entry grew");

}  // namespace
}  // namespace fractos
