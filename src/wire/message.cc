#include "src/wire/message.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <type_traits>
#include <utility>

#include "src/base/assert.h"

namespace fractos {

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kNullOp: return "NullOp";
    case MsgType::kMemoryCreate: return "MemoryCreate";
    case MsgType::kMemoryDiminish: return "MemoryDiminish";
    case MsgType::kMemoryCopy: return "MemoryCopy";
    case MsgType::kRequestCreate: return "RequestCreate";
    case MsgType::kRequestInvoke: return "RequestInvoke";
    case MsgType::kCapCreateRevtree: return "CapCreateRevtree";
    case MsgType::kCapRevoke: return "CapRevoke";
    case MsgType::kMonitorDelegate: return "MonitorDelegate";
    case MsgType::kMonitorReceive: return "MonitorReceive";
    case MsgType::kSyscallReply: return "SyscallReply";
    case MsgType::kDeliverRequest: return "DeliverRequest";
    case MsgType::kDeliverAck: return "DeliverAck";
    case MsgType::kMonitorCallback: return "MonitorCallback";
    case MsgType::kRemoteInvoke: return "RemoteInvoke";
    case MsgType::kRemoteInvokeError: return "RemoteInvokeError";
    case MsgType::kRemoteDerive: return "RemoteDerive";
    case MsgType::kPeerReply: return "PeerReply";
    case MsgType::kRevokeBroadcast: return "RevokeBroadcast";
    case MsgType::kRevokeAck: return "RevokeAck";
    case MsgType::kRegisterMonitor: return "RegisterMonitor";
    case MsgType::kMonitorFired: return "MonitorFired";
    case MsgType::kRemoteDeriveBatch: return "RemoteDeriveBatch";
    case MsgType::kPeerReplyBatch: return "PeerReplyBatch";
    case MsgType::kReplAppend: return "ReplAppend";
    case MsgType::kReplAppendReply: return "ReplAppendReply";
    case MsgType::kReplVote: return "ReplVote";
    case MsgType::kReplVoteReply: return "ReplVoteReply";
    case MsgType::kReplLeaderAnnounce: return "ReplLeaderAnnounce";
    case MsgType::kReplSnapshot: return "ReplSnapshot";
  }
  return "unknown";
}

NameId msg_type_span_name(MsgType t) {
  static NameId cache[256] = {};
  NameId& id = cache[static_cast<uint8_t>(t)];
  if (id == kInvalidNameId) {
    id = intern_name(msg_type_name(t));
  }
  return id;
}

namespace {

// The envelope header: type, then seq.
constexpr size_t kSeqOffset = 1;
// A scratch encoder that grew past this is dropped after use, so one snapshot-sized frame
// does not pin its buffer for the rest of the run.
constexpr size_t kScratchKeepBytes = 64 * 1024;

constexpr size_t kMsgTypeCount = static_cast<size_t>(enum_last(MsgType{})) + 1;

using BodyDecoder = void (*)(Decoder&, MsgBody&);

template <typename M>
void decode_body(Decoder& d, MsgBody& body) {
  d.get(body.emplace<M>());
}

// Body type index in MsgBody -> decoder of that body type.
constexpr auto kBodyDecoders = []<size_t... I>(std::index_sequence<I...>) {
  return std::array<BodyDecoder, sizeof...(I)>{
      &decode_body<std::variant_alternative_t<I, MsgBody>>...};
}(std::make_index_sequence<std::variant_size_v<MsgBody>>());

// Type byte -> index of its body type in MsgBody: each body type under its kType, and
// MonitorMsg, the one body type without a kType, under both monitor types.
constexpr auto kBodyIndex = []<size_t... I>(std::index_sequence<I...>) {
  std::array<size_t, kMsgTypeCount> table{};
  table.fill(std::variant_npos);
  auto add = [&table]<size_t J>(std::integral_constant<size_t, J>) {
    using M = std::variant_alternative_t<J, MsgBody>;
    if constexpr (requires { M::kType; }) {
      table[static_cast<size_t>(M::kType)] = J;
    } else {
      static_assert(std::is_same_v<M, MonitorMsg>);
      table[static_cast<size_t>(MsgType::kMonitorDelegate)] = J;
      table[static_cast<size_t>(MsgType::kMonitorReceive)] = J;
    }
  };
  (add(std::integral_constant<size_t, I>{}), ...);
  return table;
}(std::make_index_sequence<std::variant_size_v<MsgBody>>());
static_assert(std::ranges::none_of(kBodyIndex, [](size_t i) { return i == std::variant_npos; }),
              "every MsgType needs a body type");

}  // namespace

Payload encode_envelope(const Envelope& env) {
  // Every frame is encoded into one reused scratch buffer, then copied once into its own
  // exact-size block: after warm-up the block is the frame's only allocation.
  static Encoder scratch;
  scratch.clear();
  scratch.put(env.type);
  scratch.put(env.seq);
  std::visit([](const auto& body) { scratch.put(body); }, env.body);
  Payload frame = Payload::copy_of(scratch.data().data(), scratch.size());
  if (scratch.capacity() > kScratchKeepBytes) {
    scratch = Encoder();
  }
  return frame;
}

Payload with_seq(const Payload& frame, uint64_t seq) {
  FRACTOS_CHECK(frame.size() >= kSeqOffset + sizeof(seq));
  return Payload::build(frame.size(), [&](uint8_t* out) {
    std::memcpy(out, frame.data(), frame.size());
    for (size_t i = 0; i < sizeof(seq); ++i) {
      out[kSeqOffset + i] = static_cast<uint8_t>(seq >> (8 * i));  // little-endian, as put_u64
    }
  });
}

Result<Envelope> decode_envelope(std::span<const uint8_t> buf) {
  Decoder d(buf);
  Envelope env;
  d.get(env.type);
  d.get(env.seq);
  if (!d.ok()) {
    return ErrorCode::kInvalidArgument;
  }
  kBodyDecoders[kBodyIndex[static_cast<size_t>(env.type)]](d, env.body);
  if (!d.done()) {
    return ErrorCode::kInvalidArgument;
  }
  return env;
}

Envelope make_envelope(uint64_t seq, MonitorMsg m, bool delegate_mode) {
  return Envelope{delegate_mode ? MsgType::kMonitorDelegate : MsgType::kMonitorReceive, seq,
                  MsgBody(m)};
}

uint64_t imm_bytes(const std::vector<ImmExtent>& imms) {
  uint64_t total = 0;
  for (const auto& imm : imms) {
    total += imm.bytes.size();
  }
  return total;
}

}  // namespace fractos
