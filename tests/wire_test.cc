// Wire-format tests: encoder/decoder primitives, envelope round trips for every message
// type, and robustness against truncated/corrupted buffers (the decoder must fail cleanly,
// never crash — it ingests bytes from untrusted Processes).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/sim/rng.h"
#include "src/wire/buffer.h"
#include "src/wire/message.h"

namespace fractos {
namespace {

TEST(BufferTest, ScalarRoundTrip) {
  Encoder e;
  e.put_u8(0xab);
  e.put_u16(0x1234);
  e.put_u32(0xdeadbeef);
  e.put_u64(0x0123456789abcdefULL);
  e.put_bool(true);
  Decoder d(e.data());
  EXPECT_EQ(d.get_u8(), 0xab);
  EXPECT_EQ(d.get_u16(), 0x1234);
  EXPECT_EQ(d.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(d.get_u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(d.get_bool());
  EXPECT_TRUE(d.done());
}

TEST(BufferTest, BytesAndStringRoundTrip) {
  Encoder e;
  e.put_bytes({1, 2, 3});
  e.put_string("fractos");
  e.put_bytes({});
  e.put(Payload{4, 5});
  Decoder d(e.data());
  std::vector<uint8_t> bytes;
  std::string str;
  std::vector<uint8_t> empty{9};
  Payload payload;
  d.get(bytes);
  d.get(str);
  d.get(empty);
  d.get(payload);
  EXPECT_EQ(bytes, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(str, "fractos");
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(payload.to_vector(), (std::vector<uint8_t>{4, 5}));
  EXPECT_TRUE(d.done());
}

TEST(BufferTest, TruncatedReadFailsCleanly) {
  Encoder e;
  e.put_u32(7);
  Decoder d(e.data());
  EXPECT_EQ(d.get_u64(), 0u);  // too short
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.get_u32(), 0u);  // stays failed
  EXPECT_FALSE(d.done());
}

TEST(BufferTest, BytesLengthBeyondBufferFails) {
  Encoder e;
  e.put_u32(1000);  // claims 1000 bytes, provides none
  Decoder d(e.data());
  EXPECT_TRUE(d.get_span().empty());
  EXPECT_FALSE(d.ok());
}

class EnvelopeRoundTrip : public ::testing::Test {
 protected:
  static void expect_round_trip(const Envelope& env) {
    const std::vector<uint8_t> bytes = encode_envelope(env);
    auto decoded = decode_envelope(bytes);
    ASSERT_TRUE(decoded.ok()) << msg_type_name(env.type);
    EXPECT_EQ(decoded.value().type, env.type);
    EXPECT_EQ(decoded.value().seq, env.seq);
    EXPECT_EQ(decoded.value().body, env.body) << msg_type_name(env.type);
  }
};

TEST_F(EnvelopeRoundTrip, NullOp) { expect_round_trip(make_envelope(1, NullOpMsg{})); }

TEST_F(EnvelopeRoundTrip, MemoryCreate) {
  expect_round_trip(make_envelope(2, MemoryCreateMsg{3, 0x1000, 4096, Perms::kReadWrite}));
}

TEST_F(EnvelopeRoundTrip, MemoryDiminish) {
  expect_round_trip(make_envelope(3, MemoryDiminishMsg{17, 64, 128, Perms::kWrite}));
}

TEST_F(EnvelopeRoundTrip, MemoryCopy) {
  expect_round_trip(make_envelope(4, MemoryCopyMsg{5, 9, 64, 128, 4096}));
}

TEST_F(EnvelopeRoundTrip, RequestCreateRootWithArgs) {
  RequestCreateMsg m;
  m.has_base = false;
  m.imms = {{0, {1, 2, 3}}, {16, {9}}};
  m.caps = {4, 5, 6};
  expect_round_trip(make_envelope(5, m));
}

TEST_F(EnvelopeRoundTrip, RequestCreateDerived) {
  RequestCreateMsg m;
  m.has_base = true;
  m.base = 77;
  expect_round_trip(make_envelope(6, m));
}

TEST_F(EnvelopeRoundTrip, RequestInvokeWithRefinement) {
  RequestInvokeMsg m;
  m.cid = 12;
  m.imms = {{8, {0xff, 0xee}}};
  m.caps = {1, 2};
  expect_round_trip(make_envelope(7, m));
}

TEST_F(EnvelopeRoundTrip, CapOps) {
  expect_round_trip(make_envelope(8, CapCreateRevtreeMsg{3}));
  expect_round_trip(make_envelope(9, CapRevokeMsg{4}));
}

TEST_F(EnvelopeRoundTrip, MonitorBothModes) {
  expect_round_trip(make_envelope(10, MonitorMsg{2, 999}, /*delegate_mode=*/true));
  expect_round_trip(make_envelope(11, MonitorMsg{2, 998}, /*delegate_mode=*/false));
}

TEST_F(EnvelopeRoundTrip, SyscallReply) {
  expect_round_trip(make_envelope(12, SyscallReplyMsg{55, ErrorCode::kRevoked, 33}));
}

TEST_F(EnvelopeRoundTrip, DeliverRequest) {
  DeliverRequestMsg m;
  m.endpoint_cid = 40;
  m.imms = {{0, {1}}, {32, {2, 3}}};
  m.caps = {{10, ObjectKind::kMemory, Perms::kRead, 4096}, {11, ObjectKind::kRequest, Perms::kNone, 0}};
  expect_round_trip(make_envelope(13, m));
}

TEST_F(EnvelopeRoundTrip, DeliverAck) { expect_round_trip(make_envelope(14, DeliverAckMsg{})); }

TEST_F(EnvelopeRoundTrip, MonitorCallback) {
  expect_round_trip(make_envelope(15, MonitorCallbackMsg{123, true}));
}

TEST_F(EnvelopeRoundTrip, RemoteInvoke) {
  RemoteInvokeMsg m;
  m.target = ObjectRef{2, 99, 1};
  m.imms = {{0, std::vector<uint8_t>(100, 0x5a)}};
  WireCap wc;
  wc.ref = ObjectRef{3, 7, 2};
  wc.kind = ObjectKind::kMemory;
  wc.perms = Perms::kRead;
  wc.mem = MemoryDesc{1, 2, 4096, 65536};
  wc.tracked = true;
  m.caps = {wc};
  m.origin = 1;
  m.invoke_id = 777;
  expect_round_trip(make_envelope(16, m));
}

TEST_F(EnvelopeRoundTrip, RemoteInvokeError) {
  expect_round_trip(make_envelope(17, RemoteInvokeErrorMsg{777, ErrorCode::kStaleCapability}));
}

TEST_F(EnvelopeRoundTrip, RemoteDeriveAllOps) {
  RemoteDeriveMsg m;
  m.op_id = 5;
  m.base = ObjectRef{1, 2, 3};
  m.requester = 42;
  m.op = RemoteDeriveMsg::Op::kRequestRefine;
  m.imms = {{4, {9, 9}}};
  WireCap wc;
  wc.ref = ObjectRef{2, 3, 4};
  m.caps = {wc};
  expect_round_trip(make_envelope(18, m));

  m.op = RemoteDeriveMsg::Op::kMemoryDiminish;
  m.offset = 128;
  m.size = 256;
  m.drop_perms = Perms::kWrite;
  expect_round_trip(make_envelope(19, m));

  m.op = RemoteDeriveMsg::Op::kRevtreeChild;
  expect_round_trip(make_envelope(20, m));

  m.op = RemoteDeriveMsg::Op::kRevoke;
  expect_round_trip(make_envelope(21, m));
}

TEST_F(EnvelopeRoundTrip, PeerReply) {
  PeerReplyMsg m;
  m.op_id = 9;
  m.status = ErrorCode::kOk;
  m.result.ref = ObjectRef{4, 5, 6};
  m.result.kind = ObjectKind::kMemory;
  m.result.perms = Perms::kReadWrite;
  m.result.mem = MemoryDesc{0, 1, 0, 100};
  expect_round_trip(make_envelope(22, m));
}

TEST_F(EnvelopeRoundTrip, RevokeBroadcast) {
  RevokeBroadcastMsg m;
  m.revoked = {ObjectRef{1, 2, 3}, ObjectRef{4, 5, 6}};
  expect_round_trip(make_envelope(23, m));
}

// A broadcast encodes its body once and restamps the seq per peer: every restamped frame
// must be byte-identical to encoding the envelope under that seq.
TEST(EnvelopeRestamp, WithSeqEqualsEncodingUnderThatSeq) {
  RevokeBroadcastMsg m;
  m.cleanup_id = 77;
  m.revoked = {ObjectRef{1, 2, 3}, ObjectRef{4, 5, 6}};
  const Payload body = encode_envelope(make_envelope(0, m));
  for (uint64_t seq : {uint64_t{1}, uint64_t{0x0102030405060708}, ~uint64_t{0}}) {
    const Payload restamped = with_seq(body, seq);
    EXPECT_EQ(restamped.to_vector(), encode_envelope(make_envelope(seq, m)).to_vector());
  }
  EXPECT_EQ(body.to_vector(), encode_envelope(make_envelope(0, m)).to_vector());  // untouched
}

TEST_F(EnvelopeRoundTrip, RegisterMonitorAndFired) {
  RegisterMonitorMsg rm;
  rm.target = ObjectRef{1, 10, 1};
  rm.delegate_mode = true;
  rm.callback_id = 66;
  rm.subscriber_controller = 3;
  rm.subscriber_process = 12;
  expect_round_trip(make_envelope(24, rm));
  expect_round_trip(make_envelope(25, MonitorFiredMsg{12, 66, false}));
}

TEST(EnvelopeRobustness, TruncationNeverCrashes) {
  RemoteInvokeMsg m;
  m.target = ObjectRef{2, 99, 1};
  m.imms = {{0, std::vector<uint8_t>(64, 1)}};
  WireCap wc;
  wc.ref = ObjectRef{3, 7, 2};
  m.caps = {wc, wc};
  const std::vector<uint8_t> full = encode_envelope(make_envelope(99, m));
  for (size_t len = 0; len < full.size(); ++len) {
    std::vector<uint8_t> cut(full.begin(), full.begin() + static_cast<ptrdiff_t>(len));
    auto decoded = decode_envelope(cut);
    EXPECT_FALSE(decoded.ok()) << "truncation at " << len << " decoded successfully";
  }
}

TEST(EnvelopeRobustness, RandomBytesNeverCrash) {
  Rng rng(2024);
  int decoded_ok = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk(rng.next_below(200));
    for (auto& b : junk) {
      b = rng.next_byte();
    }
    auto decoded = decode_envelope(junk);
    if (decoded.ok()) {
      ++decoded_ok;  // allowed, but must not crash
    }
  }
  SUCCEED() << decoded_ok << " random buffers decoded";
}

TEST(EnvelopeRobustness, CorruptedTypeByteRejected) {
  Envelope env = make_envelope(1, NullOpMsg{});
  std::vector<uint8_t> bytes = encode_envelope(env);
  bytes[0] = 0xee;  // invalid MsgType
  EXPECT_FALSE(decode_envelope(bytes).ok());
}

// Decoding is strict: a byte past an enum's last value, or a bool other than 0 or 1, fails
// the decode (so every frame that decodes re-encodes to the same bytes). `lo` and `hi` differ
// only in the one-byte field under test, whose highest valid value is `last`.
template <typename M>
void expect_strict_byte(const M& lo, const M& hi, uint8_t last) {
  const std::vector<uint8_t> a = encode_envelope(make_envelope(1, lo));
  std::vector<uint8_t> frame = encode_envelope(make_envelope(1, hi));
  ASSERT_EQ(a.size(), frame.size());
  const size_t at = static_cast<size_t>(
      std::mismatch(a.begin(), a.end(), frame.begin()).first - a.begin());
  ASSERT_LT(at, a.size());
  frame[at] = last;
  auto decoded = decode_envelope(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(encode_envelope(decoded.value()).to_vector(), frame);
  for (uint8_t bad : {static_cast<uint8_t>(last + 1), uint8_t{0xff}}) {
    frame[at] = bad;
    EXPECT_EQ(decode_envelope(frame).error(), ErrorCode::kInvalidArgument) << int{bad};
  }
}

TEST(StrictDecode, PermsPastReadWriteRejected) {
  expect_strict_byte(MemoryCreateMsg{1, 2, 3, Perms::kNone},
                     MemoryCreateMsg{1, 2, 3, Perms::kReadWrite}, 3);
}

TEST(StrictDecode, ObjectKindPastRequestRejected) {
  DeliverRequestMsg lo;
  lo.caps = {{10, ObjectKind::kMemory, Perms::kRead, 4096}};
  DeliverRequestMsg hi = lo;
  hi.caps[0].kind = ObjectKind::kRequest;
  expect_strict_byte(lo, hi, 1);
}

TEST(StrictDecode, ErrorCodePastLastRejected) {
  expect_strict_byte(SyscallReplyMsg{5, ErrorCode::kOk, 1},
                     SyscallReplyMsg{5, ErrorCode::kOverloaded, 1},
                     static_cast<uint8_t>(ErrorCode::kOverloaded));
}

TEST(StrictDecode, RemoteDeriveOpPastRevokeRejected) {
  RemoteDeriveMsg lo;
  lo.base = ObjectRef{1, 2, 3};
  lo.op = RemoteDeriveMsg::Op::kRequestRefine;
  RemoteDeriveMsg hi = lo;
  hi.op = RemoteDeriveMsg::Op::kRevoke;
  expect_strict_byte(lo, hi, 3);
}

TEST(StrictDecode, ReplicatedOpKindPastEraseObjectsRejected) {
  ReplAppendMsg lo;
  lo.entries.emplace_back();
  ReplAppendMsg hi = lo;
  hi.entries[0].op.kind = ReplicatedOp::Kind::kEraseObjects;
  expect_strict_byte(lo, hi, static_cast<uint8_t>(ReplicatedOp::Kind::kEraseObjects));
}

TEST(StrictDecode, BoolOtherThanZeroOrOneRejected) {
  expect_strict_byte(MonitorCallbackMsg{7, false}, MonitorCallbackMsg{7, true}, 1);
  const std::vector<uint8_t> two = {2};
  Decoder d(two);
  d.get_bool();
  EXPECT_FALSE(d.ok());
}

TEST(ImmBytesTest, SumsExtents) {
  std::vector<ImmExtent> imms = {{0, {1, 2}}, {10, {3, 4, 5}}};
  EXPECT_EQ(imm_bytes(imms), 5u);
  EXPECT_EQ(imm_bytes({}), 0u);
}

}  // namespace
}  // namespace fractos
