// Allocation budgets of the control path (DESIGN.md §4e, "Frame lifecycle"):
//
//  * encoding a control frame allocates one block, the frame itself;
//  * decoding allocates no block per immediate of up to SmallBytes::kInlineBytes bytes;
//  * a clean-fabric QueuePair send and delivery of a pre-built Payload allocates nothing;
//  * an NVMe read allocates one block, the Payload its bytes are copied into;
//  * checking a Request's immediates for overlap allocates nothing for up to 8 extents;
//  * refining a Request allocates no block per layer of the chain it extends.
//
// This binary links fractos_alloc_count, which replaces the global operator new/delete with
// counting forwarders (src/base/alloc_count.h), so the budgets count every C++ heap block.
// Under a sanitizer every functional check still runs; only the budgets are skipped.

#include <gtest/gtest.h>

#include <vector>

#include "src/base/alloc_count.h"
#include "src/cap/object_table.h"
#include "src/devices/nvme.h"
#include "src/fabric/queue_pair.h"
#include "src/wire/message.h"

namespace fractos {
namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

constexpr const char* kBudgetsSkipped =
    "a sanitizer runtime allocates around the code under test; budgets not checked";

// A RequestInvoke with these immediates and two capability arguments.
Envelope invoke_with(std::vector<ImmExtent> imms) {
  RequestInvokeMsg m;
  m.cid = 42;
  m.imms = std::move(imms);
  m.caps = {7, 9};
  return make_envelope(1234, std::move(m));
}

// The perfbench wire probe's frame: one 8-byte immediate.
Envelope probe_invoke() { return invoke_with({ImmExtent{48, std::vector<uint8_t>(8, 0x5a)}}); }

// Warm-up: one no-op event in each bucket of the event loop's timer wheel (2048 buckets of
// 128 ns; a bucket keeps its capacity once it has held an event, as every bucket has in any
// long run).
void warm_timer_wheel(EventLoop& loop) {
  for (int64_t ns = 0; ns < 2 * 2048 * 128; ns += 64) {
    loop.schedule_after(Duration::nanos(ns), []() {});
  }
  loop.run();
}

TEST(AllocBudget, EncodingAControlFrameAllocatesOneBlock) {
  const Envelope env = probe_invoke();
  const Payload first = encode_envelope(env);  // the first encode sizes the scratch buffer
  Payload frame;
  const uint64_t blocks = heap_allocations_during([&]() { frame = encode_envelope(env); });
  EXPECT_EQ(frame.to_vector(), first.to_vector());
  EXPECT_EQ(frame.size(), 1 + 8 + 4 + 4 + (4 + 4 + 8) + 4 + 2 * 4);
  if (kSanitized) {
    GTEST_SKIP() << kBudgetsSkipped;
  }
  EXPECT_LE(blocks, 1u);
}

TEST(AllocBudget, DecodingAllocatesNoBlockPerSmallImmediate) {
  // The probe frame, the same frame with eight small immediates (8 bytes each, and one of
  // exactly SmallBytes::kInlineBytes), and the probe frame with one immediate one byte too
  // long to stay inline.
  std::vector<ImmExtent> many;
  for (uint32_t i = 0; i < 7; ++i) {
    many.push_back(ImmExtent{8 * i, std::vector<uint8_t>(8, static_cast<uint8_t>(i))});
  }
  many.push_back(ImmExtent{56, std::vector<uint8_t>(SmallBytes::kInlineBytes, 0xee)});
  const Payload one_frame = encode_envelope(probe_invoke());
  const Payload many_frame = encode_envelope(invoke_with(many));
  const std::vector<uint8_t> long_bytes(SmallBytes::kInlineBytes + 1, 0x5a);
  const Payload long_frame = encode_envelope(invoke_with({ImmExtent{48, long_bytes}}));

  auto decode_counting = [](const Payload& frame, Result<Envelope>& out) {
    return heap_allocations_during([&]() { out = decode_envelope(frame.bytes()); });
  };
  Result<Envelope> one = ErrorCode::kInternal;
  Result<Envelope> lots = ErrorCode::kInternal;
  Result<Envelope> longer = ErrorCode::kInternal;
  const uint64_t one_blocks = decode_counting(one_frame, one);
  const uint64_t many_blocks = decode_counting(many_frame, lots);
  const uint64_t long_blocks = decode_counting(long_frame, longer);
  ASSERT_TRUE(one.ok() && lots.ok() && longer.ok());
  EXPECT_EQ(one.value().body, probe_invoke().body);
  EXPECT_EQ(lots.value().body, invoke_with(many).body);
  EXPECT_EQ(std::get<RequestInvokeMsg>(longer.value().body).imms[0].bytes.size(),
            SmallBytes::kInlineBytes + 1);
  if (kSanitized) {
    GTEST_SKIP() << kBudgetsSkipped;
  }
  EXPECT_LE(one_blocks, 2u);  // the imms vector and the caps vector
  EXPECT_EQ(many_blocks, one_blocks);
  EXPECT_EQ(long_blocks, one_blocks + 1);  // only a long immediate takes a block of its own
}

TEST(AllocBudget, CleanFabricQueuePairSendAndDeliveryAllocateNothing) {
  EventLoop loop;
  Network net(&loop);
  net.add_node("a");
  net.add_node("b");
  QueuePair a(&net, Endpoint{0, Loc::kHost});
  QueuePair b(&net, Endpoint{1, Loc::kHost});
  QueuePair::connect(a, b);
  uint64_t delivered = 0;
  uint64_t bytes = 0;
  b.set_receive_handler([&](Payload p) {
    ++delivered;
    bytes += p.size();
  });
  const Payload frame = encode_envelope(probe_invoke());
  auto send_and_deliver = [&]() {
    a.send(Traffic::kControl, frame);
    loop.run();
  };
  warm_timer_wheel(loop);
  constexpr int kWarmup = 8;  // then a few messages
  for (int i = 0; i < kWarmup; ++i) {
    send_and_deliver();
  }
  constexpr int kSends = 64;
  const uint64_t blocks = heap_allocations_during([&]() {
    for (int i = 0; i < kSends; ++i) {
      send_and_deliver();
    }
  });
  EXPECT_EQ(delivered, static_cast<uint64_t>(kWarmup + kSends));
  EXPECT_EQ(bytes, delivered * frame.size());
  EXPECT_EQ(a.dropped(), 0u);
  if (kSanitized) {
    GTEST_SKIP() << kBudgetsSkipped;
  }
  EXPECT_EQ(blocks, 0u);
}

TEST(AllocBudget, NvmeReadAllocatesOneBlockForItsBytes) {
  EventLoop loop;
  SimNvme nvme(&loop);
  // 64 KiB spanning 17 blocks, the last of them never written (it reads as zeros).
  constexpr uint64_t kOff = 1000;
  constexpr uint64_t kSize = 64 << 10;
  std::vector<uint8_t> written(kSize - 3000);
  for (size_t i = 0; i < written.size(); ++i) {
    written[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  nvme.poke(kOff, written);
  std::vector<uint8_t> expected = written;
  expected.resize(kSize, 0);
  Payload got;
  auto read_once = [&]() {
    nvme.read(kOff, kSize, [&](Result<Payload> r) { got = std::move(r).value(); });
    loop.run();
  };
  warm_timer_wheel(loop);
  read_once();
  got = Payload();
  const uint64_t blocks = heap_allocations_during(read_once);
  EXPECT_EQ(got.to_vector(), expected);
  EXPECT_EQ(nvme.peek(kOff, kSize), expected);
  if (kSanitized) {
    GTEST_SKIP() << kBudgetsSkipped;
  }
  EXPECT_EQ(blocks, 1u);
}

TEST(AllocBudget, ImmOverlapCheckOfAFewExtentsAllocatesNothing) {
  const std::vector<ImmExtent> existing = {{0, {1, 2, 3, 4}}, {8, {1}}, {12, {}}};
  const std::vector<ImmExtent> disjoint = {{4, {5}}, {16, {6, 7}}, {12, {}}};
  const std::vector<ImmExtent> overlapping = {{4, {5}}, {9, {6}}, {2, {}}};
  std::vector<ImmExtent> nine;  // one past the inline array: still checked, on the heap
  for (uint32_t i = 0; i < 9; ++i) {
    nine.push_back(ImmExtent{2 * i, std::vector<uint8_t>{1, 2}});
  }
  Status ok = ErrorCode::kInternal;
  Status overlap = ok_status();
  const uint64_t blocks = heap_allocations_during([&]() {
    ok = check_imm_overlap(existing, disjoint);
    overlap = check_imm_overlap(existing, overlapping);
  });
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(overlap.error(), ErrorCode::kArgumentOverlap);
  EXPECT_TRUE(check_imm_overlap({}, nine).ok());
  nine.push_back(ImmExtent{17, std::vector<uint8_t>{3}});
  EXPECT_EQ(check_imm_overlap({}, nine).error(), ErrorCode::kArgumentOverlap);
  if (kSanitized) {
    GTEST_SKIP() << kBudgetsSkipped;
  }
  EXPECT_EQ(blocks, 0u);
}

// Refining a Request checks the new immediates against where the chain's immediates lie,
// not against copies of their bytes. A refinement that overlaps the root's immediate is
// refused by that check before the table interns or inserts anything, so what it allocates
// is the check's walk over all six layers: nothing.
TEST(AllocBudget, RefiningADeepChainAllocatesNoBlockPerLayer) {
  ObjectTable table(/*owner=*/1);
  // Each layer holds one 64-byte immediate: past SmallBytes' inline bytes, so a copy of
  // one would take a block.
  auto layer = [](uint32_t offset) {
    RequestArgs args;
    args.imms = {ImmExtent{offset, std::vector<uint8_t>(64, 0x5a)}};
    return args;
  };
  ObjectIndex deep = table.create_request_root(/*provider=*/1, /*endpoint_cid=*/1, layer(0))
                         .value();
  for (uint32_t d = 1; d < 6; ++d) {
    deep = table.derive_request_local(/*creator=*/1, deep, layer(64 * d)).value();
  }
  RequestArgs overlapping = layer(8);
  Result<ObjectIndex> refused = ErrorCode::kInternal;
  const uint64_t blocks = heap_allocations_during([&]() {
    refused = table.derive_request_local(1, deep, std::move(overlapping));
  });
  EXPECT_EQ(refused.error(), ErrorCode::kArgumentOverlap);
  EXPECT_TRUE(table.derive_request_local(1, deep, layer(6 * 64)).ok());
  if (kSanitized) {
    GTEST_SKIP() << kBudgetsSkipped;
  }
  EXPECT_EQ(blocks, 0u);
}

}  // namespace
}  // namespace fractos
