#include "src/wire/message.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/base/assert.h"

namespace fractos {

namespace {

// Reserves room for `n` decoded elements, but never more than the rest of the buffer can
// hold at `min_bytes` of wire per element: a forged count cannot make the decoder reserve
// more than the frame could carry.
template <typename T>
void reserve_decoded(std::vector<T>& v, uint32_t n, const Decoder& d, size_t min_bytes) {
  v.reserve(std::min<size_t>(n, d.remaining() / min_bytes));
}

// Wire sizes of the fixed-size elements, for reserve_decoded.
constexpr size_t kRefBytes = 4 + 8 + 4;
constexpr size_t kWireCapBytes = kRefBytes + 1 + 1 + (4 + 4 + 8 + 8) + 1;
constexpr size_t kImmMinBytes = 4 + 4;  // offset + length prefix, no bytes

}  // namespace

// The shared field codecs are public (declared in message.h): the ObjectTable snapshot
// encoding reuses them so a field has exactly one wire format.
void encode_ref(Encoder& e, const ObjectRef& ref) {
  e.put_u32(ref.owner);
  e.put_u64(ref.index);
  e.put_u32(ref.reboot_count);
}

ObjectRef decode_ref(Decoder& d) {
  ObjectRef ref;
  ref.owner = d.get_u32();
  ref.index = d.get_u64();
  ref.reboot_count = d.get_u32();
  return ref;
}

void encode_mem_desc(Encoder& e, const MemoryDesc& m) {
  e.put_u32(m.node);
  e.put_u32(m.pool);
  e.put_u64(m.addr);
  e.put_u64(m.size);
}

MemoryDesc decode_mem_desc(Decoder& d) {
  MemoryDesc m;
  m.node = d.get_u32();
  m.pool = d.get_u32();
  m.addr = d.get_u64();
  m.size = d.get_u64();
  return m;
}

void encode_imms(Encoder& e, const std::vector<ImmExtent>& imms) {
  e.put_u32(static_cast<uint32_t>(imms.size()));
  for (const auto& imm : imms) {
    e.put_u32(imm.offset);
    e.put_bytes(imm.bytes);
  }
}

std::vector<ImmExtent> decode_imms(Decoder& d) {
  const uint32_t n = d.get_u32();
  std::vector<ImmExtent> imms;
  reserve_decoded(imms, n, d, kImmMinBytes);
  for (uint32_t i = 0; i < n && d.ok(); ++i) {
    ImmExtent& imm = imms.emplace_back();
    imm.offset = d.get_u32();
    imm.bytes = d.get_span();
  }
  return imms;
}

void encode_wire_cap(Encoder& e, const WireCap& c) {
  encode_ref(e, c.ref);
  e.put_u8(static_cast<uint8_t>(c.kind));
  e.put_u8(static_cast<uint8_t>(c.perms));
  encode_mem_desc(e, c.mem);
  e.put_bool(c.tracked);
}

WireCap decode_wire_cap(Decoder& d) {
  WireCap c;
  c.ref = decode_ref(d);
  c.kind = static_cast<ObjectKind>(d.get_u8());
  c.perms = static_cast<Perms>(d.get_u8());
  c.mem = decode_mem_desc(d);
  c.tracked = d.get_bool();
  return c;
}

void encode_repl_op(Encoder& e, const ReplicatedOp& op) {
  e.put_u8(static_cast<uint8_t>(op.kind));
  e.put_u64(op.requester);
  e.put_u64(op.base);
  e.put_u64(op.result_index);
  encode_mem_desc(e, op.mem);
  e.put_u8(static_cast<uint8_t>(op.perms));
  e.put_u64(op.offset);
  e.put_u64(op.size);
  e.put_u32(op.cid);
  e.put_u64(op.callback_id);
  e.put_u32(op.sub_controller);
  e.put_u64(op.sub_process);
  encode_imms(e, op.imms);
  e.put_u32(static_cast<uint32_t>(op.caps.size()));
  for (const auto& c : op.caps) {
    encode_wire_cap(e, c);
  }
  e.put_u32(static_cast<uint32_t>(op.indices.size()));
  for (uint64_t idx : op.indices) {
    e.put_u64(idx);
  }
}

ReplicatedOp decode_repl_op(Decoder& d) {
  ReplicatedOp op;
  op.kind = static_cast<ReplicatedOp::Kind>(d.get_u8());
  op.requester = d.get_u64();
  op.base = d.get_u64();
  op.result_index = d.get_u64();
  op.mem = decode_mem_desc(d);
  op.perms = static_cast<Perms>(d.get_u8());
  op.offset = d.get_u64();
  op.size = d.get_u64();
  op.cid = d.get_u32();
  op.callback_id = d.get_u64();
  op.sub_controller = d.get_u32();
  op.sub_process = d.get_u64();
  op.imms = decode_imms(d);
  const uint32_t ncaps = d.get_u32();
  reserve_decoded(op.caps, ncaps, d, kWireCapBytes);
  for (uint32_t i = 0; i < ncaps && d.ok(); ++i) {
    op.caps.push_back(decode_wire_cap(d));
  }
  const uint32_t nidx = d.get_u32();
  reserve_decoded(op.indices, nidx, d, 8);
  for (uint32_t i = 0; i < nidx && d.ok(); ++i) {
    op.indices.push_back(d.get_u64());
  }
  return op;
}

namespace {

void encode_repl_entry(Encoder& e, const ReplLogEntry& entry) {
  e.put_u64(entry.index);
  e.put_u64(entry.term);
  encode_repl_op(e, entry.op);
}

ReplLogEntry decode_repl_entry(Decoder& d) {
  ReplLogEntry entry;
  entry.index = d.get_u64();
  entry.term = d.get_u64();
  entry.op = decode_repl_op(d);
  return entry;
}

// RemoteDerive/PeerReply bodies are shared between the single-op frames and the batch frames,
// so the batch encoding is byte-for-byte N copies of the single-op body plus a count.
void encode_remote_derive(Encoder& e, const RemoteDeriveMsg& m) {
  e.put_u64(m.op_id);
  encode_ref(e, m.base);
  e.put_u8(static_cast<uint8_t>(m.op));
  e.put_u64(m.requester);
  encode_imms(e, m.imms);
  e.put_u32(static_cast<uint32_t>(m.caps.size()));
  for (const auto& c : m.caps) {
    encode_wire_cap(e, c);
  }
  e.put_u64(m.offset);
  e.put_u64(m.size);
  e.put_u8(static_cast<uint8_t>(m.drop_perms));
}

RemoteDeriveMsg decode_remote_derive(Decoder& d) {
  RemoteDeriveMsg m;
  m.op_id = d.get_u64();
  m.base = decode_ref(d);
  m.op = static_cast<RemoteDeriveMsg::Op>(d.get_u8());
  m.requester = d.get_u64();
  m.imms = decode_imms(d);
  const uint32_t n = d.get_u32();
  reserve_decoded(m.caps, n, d, kWireCapBytes);
  for (uint32_t i = 0; i < n && d.ok(); ++i) {
    m.caps.push_back(decode_wire_cap(d));
  }
  m.offset = d.get_u64();
  m.size = d.get_u64();
  m.drop_perms = static_cast<Perms>(d.get_u8());
  return m;
}

void encode_peer_reply(Encoder& e, const PeerReplyMsg& m) {
  e.put_u64(m.op_id);
  e.put_u8(static_cast<uint8_t>(m.status));
  encode_wire_cap(e, m.result);
}

PeerReplyMsg decode_peer_reply(Decoder& d) {
  PeerReplyMsg m;
  m.op_id = d.get_u64();
  m.status = static_cast<ErrorCode>(d.get_u8());
  m.result = decode_wire_cap(d);
  return m;
}

struct BodyEncoder {
  Encoder& e;

  void operator()(const NullOpMsg&) {}
  void operator()(const MemoryCreateMsg& m) {
    e.put_u32(m.pool);
    e.put_u64(m.addr);
    e.put_u64(m.size);
    e.put_u8(static_cast<uint8_t>(m.perms));
  }
  void operator()(const MemoryDiminishMsg& m) {
    e.put_u32(m.cid);
    e.put_u64(m.offset);
    e.put_u64(m.size);
    e.put_u8(static_cast<uint8_t>(m.drop_perms));
  }
  void operator()(const MemoryCopyMsg& m) {
    e.put_u32(m.src);
    e.put_u32(m.dst);
    e.put_u64(m.src_off);
    e.put_u64(m.dst_off);
    e.put_u64(m.length);
  }
  void operator()(const RequestCreateMsg& m) {
    e.put_bool(m.has_base);
    e.put_u32(m.base);
    encode_imms(e, m.imms);
    e.put_u32(static_cast<uint32_t>(m.caps.size()));
    for (CapId cid : m.caps) {
      e.put_u32(cid);
    }
  }
  void operator()(const RequestInvokeMsg& m) {
    e.put_u32(m.cid);
    encode_imms(e, m.imms);
    e.put_u32(static_cast<uint32_t>(m.caps.size()));
    for (CapId cid : m.caps) {
      e.put_u32(cid);
    }
  }
  void operator()(const CapCreateRevtreeMsg& m) { e.put_u32(m.cid); }
  void operator()(const CapRevokeMsg& m) { e.put_u32(m.cid); }
  void operator()(const MonitorMsg& m) {
    e.put_u32(m.cid);
    e.put_u64(m.callback_id);
  }
  void operator()(const SyscallReplyMsg& m) {
    e.put_u64(m.call_seq);
    e.put_u8(static_cast<uint8_t>(m.status));
    e.put_u32(m.cid);
  }
  void operator()(const DeliverRequestMsg& m) {
    e.put_u32(m.endpoint_cid);
    encode_imms(e, m.imms);
    e.put_u32(static_cast<uint32_t>(m.caps.size()));
    for (const auto& c : m.caps) {
      e.put_u32(c.cid);
      e.put_u8(static_cast<uint8_t>(c.kind));
      e.put_u8(static_cast<uint8_t>(c.perms));
      e.put_u64(c.mem_size);
    }
  }
  void operator()(const MonitorCallbackMsg& m) {
    e.put_u64(m.callback_id);
    e.put_bool(m.delegate_mode);
  }
  void operator()(const DeliverAckMsg&) {}
  void operator()(const RemoteDeriveMsg& m) { encode_remote_derive(e, m); }
  void operator()(const PeerReplyMsg& m) { encode_peer_reply(e, m); }
  void operator()(const RemoteDeriveBatchMsg& m) {
    e.put_u32(static_cast<uint32_t>(m.ops.size()));
    for (const auto& op : m.ops) {
      encode_remote_derive(e, op);
    }
  }
  void operator()(const PeerReplyBatchMsg& m) {
    e.put_u32(static_cast<uint32_t>(m.replies.size()));
    for (const auto& r : m.replies) {
      encode_peer_reply(e, r);
    }
  }
  void operator()(const RemoteInvokeMsg& m) {
    encode_ref(e, m.target);
    encode_imms(e, m.imms);
    e.put_u32(static_cast<uint32_t>(m.caps.size()));
    for (const auto& c : m.caps) {
      encode_wire_cap(e, c);
    }
    e.put_u32(m.origin);
    e.put_u64(m.invoke_id);
  }
  void operator()(const RemoteInvokeErrorMsg& m) {
    e.put_u64(m.invoke_id);
    e.put_u8(static_cast<uint8_t>(m.status));
  }
  void operator()(const RevokeBroadcastMsg& m) {
    e.put_u64(m.cleanup_id);
    e.put_u32(static_cast<uint32_t>(m.revoked.size()));
    for (const auto& ref : m.revoked) {
      encode_ref(e, ref);
    }
  }
  void operator()(const RevokeAckMsg& m) { e.put_u64(m.cleanup_id); }
  void operator()(const RegisterMonitorMsg& m) {
    encode_ref(e, m.target);
    e.put_bool(m.delegate_mode);
    e.put_u64(m.callback_id);
    e.put_u32(m.subscriber_controller);
    e.put_u64(m.subscriber_process);
  }
  void operator()(const MonitorFiredMsg& m) {
    e.put_u64(m.process);
    e.put_u64(m.callback_id);
    e.put_bool(m.delegate_mode);
  }
  void operator()(const ReplAppendMsg& m) {
    e.put_u32(m.seat);
    e.put_u32(m.leader);
    e.put_u64(m.term);
    e.put_u64(m.prev_index);
    e.put_u64(m.prev_term);
    e.put_u64(m.commit_index);
    e.put_u32(static_cast<uint32_t>(m.entries.size()));
    for (const auto& entry : m.entries) {
      encode_repl_entry(e, entry);
    }
  }
  void operator()(const ReplAppendReplyMsg& m) {
    e.put_u32(m.seat);
    e.put_u32(m.from);
    e.put_u64(m.term);
    e.put_bool(m.ok);
    e.put_u64(m.match_index);
    e.put_bool(m.need_snapshot);
  }
  void operator()(const ReplVoteMsg& m) {
    e.put_u32(m.seat);
    e.put_u32(m.candidate);
    e.put_u64(m.term);
    e.put_u64(m.last_log_index);
    e.put_u64(m.last_log_term);
  }
  void operator()(const ReplVoteReplyMsg& m) {
    e.put_u32(m.seat);
    e.put_u32(m.from);
    e.put_u64(m.term);
    e.put_bool(m.granted);
  }
  void operator()(const ReplLeaderAnnounceMsg& m) {
    e.put_u32(m.seat);
    e.put_u32(m.leader);
    e.put_u64(m.term);
  }
  void operator()(const ReplSnapshotMsg& m) {
    e.put_u32(m.seat);
    e.put_u32(m.leader);
    e.put_u64(m.term);
    e.put_u64(m.last_index);
    e.put_u64(m.last_term);
    e.put_bytes(m.blob);
  }
};

}  // namespace

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
}  // namespace

Payload encode_envelope(const Envelope& env) {
  // Every frame is encoded into one reused scratch buffer, then copied once into its own
  // exact-size block: after warm-up the block is the frame's only allocation.
  static Encoder scratch;
  scratch.clear();
  scratch.put_u8(static_cast<uint8_t>(env.type));
  scratch.put_u64(env.seq);
  std::visit(BodyEncoder{scratch}, env.body);
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
  env.type = static_cast<MsgType>(d.get_u8());
  env.seq = d.get_u64();
  switch (env.type) {
    case MsgType::kNullOp:
      env.body = NullOpMsg{};
      break;
    case MsgType::kMemoryCreate: {
      MemoryCreateMsg m;
      m.pool = d.get_u32();
      m.addr = d.get_u64();
      m.size = d.get_u64();
      m.perms = static_cast<Perms>(d.get_u8());
      env.body = m;
      break;
    }
    case MsgType::kMemoryDiminish: {
      MemoryDiminishMsg m;
      m.cid = d.get_u32();
      m.offset = d.get_u64();
      m.size = d.get_u64();
      m.drop_perms = static_cast<Perms>(d.get_u8());
      env.body = m;
      break;
    }
    case MsgType::kMemoryCopy: {
      MemoryCopyMsg m;
      m.src = d.get_u32();
      m.dst = d.get_u32();
      m.src_off = d.get_u64();
      m.dst_off = d.get_u64();
      m.length = d.get_u64();
      env.body = m;
      break;
    }
    case MsgType::kRequestCreate: {
      RequestCreateMsg m;
      m.has_base = d.get_bool();
      m.base = d.get_u32();
      m.imms = decode_imms(d);
      const uint32_t n = d.get_u32();
      reserve_decoded(m.caps, n, d, sizeof(CapId));
      for (uint32_t i = 0; i < n && d.ok(); ++i) {
        m.caps.push_back(d.get_u32());
      }
      env.body = std::move(m);
      break;
    }
    case MsgType::kRequestInvoke: {
      RequestInvokeMsg m;
      m.cid = d.get_u32();
      m.imms = decode_imms(d);
      const uint32_t n = d.get_u32();
      reserve_decoded(m.caps, n, d, sizeof(CapId));
      for (uint32_t i = 0; i < n && d.ok(); ++i) {
        m.caps.push_back(d.get_u32());
      }
      env.body = std::move(m);
      break;
    }
    case MsgType::kCapCreateRevtree: {
      CapCreateRevtreeMsg m;
      m.cid = d.get_u32();
      env.body = m;
      break;
    }
    case MsgType::kCapRevoke: {
      CapRevokeMsg m;
      m.cid = d.get_u32();
      env.body = m;
      break;
    }
    case MsgType::kMonitorDelegate:
    case MsgType::kMonitorReceive: {
      MonitorMsg m;
      m.cid = d.get_u32();
      m.callback_id = d.get_u64();
      env.body = m;
      break;
    }
    case MsgType::kSyscallReply: {
      SyscallReplyMsg m;
      m.call_seq = d.get_u64();
      m.status = static_cast<ErrorCode>(d.get_u8());
      m.cid = d.get_u32();
      env.body = m;
      break;
    }
    case MsgType::kDeliverRequest: {
      DeliverRequestMsg m;
      m.endpoint_cid = d.get_u32();
      m.imms = decode_imms(d);
      const uint32_t n = d.get_u32();
      reserve_decoded(m.caps, n, d, 4 + 1 + 1 + 8);
      for (uint32_t i = 0; i < n && d.ok(); ++i) {
        DeliveredCap c;
        c.cid = d.get_u32();
        c.kind = static_cast<ObjectKind>(d.get_u8());
        c.perms = static_cast<Perms>(d.get_u8());
        c.mem_size = d.get_u64();
        m.caps.push_back(c);
      }
      env.body = std::move(m);
      break;
    }
    case MsgType::kMonitorCallback: {
      MonitorCallbackMsg m;
      m.callback_id = d.get_u64();
      m.delegate_mode = d.get_bool();
      env.body = m;
      break;
    }
    case MsgType::kDeliverAck:
      env.body = DeliverAckMsg{};
      break;
    case MsgType::kRemoteDerive: {
      env.body = decode_remote_derive(d);
      break;
    }
    case MsgType::kPeerReply: {
      env.body = decode_peer_reply(d);
      break;
    }
    case MsgType::kRemoteDeriveBatch: {
      RemoteDeriveBatchMsg m;
      const uint32_t n = d.get_u32();
      for (uint32_t i = 0; i < n && d.ok(); ++i) {
        m.ops.push_back(decode_remote_derive(d));
      }
      env.body = std::move(m);
      break;
    }
    case MsgType::kPeerReplyBatch: {
      PeerReplyBatchMsg m;
      const uint32_t n = d.get_u32();
      for (uint32_t i = 0; i < n && d.ok(); ++i) {
        m.replies.push_back(decode_peer_reply(d));
      }
      env.body = std::move(m);
      break;
    }
    case MsgType::kRemoteInvoke: {
      RemoteInvokeMsg m;
      m.target = decode_ref(d);
      m.imms = decode_imms(d);
      const uint32_t n = d.get_u32();
      reserve_decoded(m.caps, n, d, kWireCapBytes);
      for (uint32_t i = 0; i < n && d.ok(); ++i) {
        m.caps.push_back(decode_wire_cap(d));
      }
      m.origin = d.get_u32();
      m.invoke_id = d.get_u64();
      env.body = std::move(m);
      break;
    }
    case MsgType::kRemoteInvokeError: {
      RemoteInvokeErrorMsg m;
      m.invoke_id = d.get_u64();
      m.status = static_cast<ErrorCode>(d.get_u8());
      env.body = m;
      break;
    }
    case MsgType::kRevokeBroadcast: {
      RevokeBroadcastMsg m;
      m.cleanup_id = d.get_u64();
      const uint32_t n = d.get_u32();
      reserve_decoded(m.revoked, n, d, kRefBytes);
      for (uint32_t i = 0; i < n && d.ok(); ++i) {
        m.revoked.push_back(decode_ref(d));
      }
      env.body = std::move(m);
      break;
    }
    case MsgType::kRevokeAck: {
      RevokeAckMsg m;
      m.cleanup_id = d.get_u64();
      env.body = m;
      break;
    }
    case MsgType::kRegisterMonitor: {
      RegisterMonitorMsg m;
      m.target = decode_ref(d);
      m.delegate_mode = d.get_bool();
      m.callback_id = d.get_u64();
      m.subscriber_controller = d.get_u32();
      m.subscriber_process = d.get_u64();
      env.body = m;
      break;
    }
    case MsgType::kMonitorFired: {
      MonitorFiredMsg m;
      m.process = d.get_u64();
      m.callback_id = d.get_u64();
      m.delegate_mode = d.get_bool();
      env.body = m;
      break;
    }
    case MsgType::kReplAppend: {
      ReplAppendMsg m;
      m.seat = d.get_u32();
      m.leader = d.get_u32();
      m.term = d.get_u64();
      m.prev_index = d.get_u64();
      m.prev_term = d.get_u64();
      m.commit_index = d.get_u64();
      const uint32_t n = d.get_u32();
      for (uint32_t i = 0; i < n && d.ok(); ++i) {
        m.entries.push_back(decode_repl_entry(d));
      }
      env.body = std::move(m);
      break;
    }
    case MsgType::kReplAppendReply: {
      ReplAppendReplyMsg m;
      m.seat = d.get_u32();
      m.from = d.get_u32();
      m.term = d.get_u64();
      m.ok = d.get_bool();
      m.match_index = d.get_u64();
      m.need_snapshot = d.get_bool();
      env.body = m;
      break;
    }
    case MsgType::kReplVote: {
      ReplVoteMsg m;
      m.seat = d.get_u32();
      m.candidate = d.get_u32();
      m.term = d.get_u64();
      m.last_log_index = d.get_u64();
      m.last_log_term = d.get_u64();
      env.body = m;
      break;
    }
    case MsgType::kReplVoteReply: {
      ReplVoteReplyMsg m;
      m.seat = d.get_u32();
      m.from = d.get_u32();
      m.term = d.get_u64();
      m.granted = d.get_bool();
      env.body = m;
      break;
    }
    case MsgType::kReplLeaderAnnounce: {
      ReplLeaderAnnounceMsg m;
      m.seat = d.get_u32();
      m.leader = d.get_u32();
      m.term = d.get_u64();
      env.body = m;
      break;
    }
    case MsgType::kReplSnapshot: {
      ReplSnapshotMsg m;
      m.seat = d.get_u32();
      m.leader = d.get_u32();
      m.term = d.get_u64();
      m.last_index = d.get_u64();
      m.last_term = d.get_u64();
      m.blob = d.get_bytes();
      env.body = std::move(m);
      break;
    }
    default:
      return ErrorCode::kInvalidArgument;
  }
  if (!d.done()) {
    return ErrorCode::kInvalidArgument;
  }
  return env;
}

namespace {
Envelope envelope_of(uint64_t seq, MsgType type, MsgBody body) {
  Envelope env;
  env.seq = seq;
  env.type = type;
  env.body = std::move(body);
  return env;
}
}  // namespace

Envelope make_envelope(uint64_t seq, NullOpMsg m) {
  return envelope_of(seq, MsgType::kNullOp, std::move(m));
}
Envelope make_envelope(uint64_t seq, MemoryCreateMsg m) {
  return envelope_of(seq, MsgType::kMemoryCreate, std::move(m));
}
Envelope make_envelope(uint64_t seq, MemoryDiminishMsg m) {
  return envelope_of(seq, MsgType::kMemoryDiminish, std::move(m));
}
Envelope make_envelope(uint64_t seq, MemoryCopyMsg m) {
  return envelope_of(seq, MsgType::kMemoryCopy, std::move(m));
}
Envelope make_envelope(uint64_t seq, RequestCreateMsg m) {
  return envelope_of(seq, MsgType::kRequestCreate, std::move(m));
}
Envelope make_envelope(uint64_t seq, RequestInvokeMsg m) {
  return envelope_of(seq, MsgType::kRequestInvoke, std::move(m));
}
Envelope make_envelope(uint64_t seq, CapCreateRevtreeMsg m) {
  return envelope_of(seq, MsgType::kCapCreateRevtree, std::move(m));
}
Envelope make_envelope(uint64_t seq, CapRevokeMsg m) {
  return envelope_of(seq, MsgType::kCapRevoke, std::move(m));
}
Envelope make_envelope(uint64_t seq, MonitorMsg m, bool delegate_mode) {
  return envelope_of(seq, delegate_mode ? MsgType::kMonitorDelegate : MsgType::kMonitorReceive,
                     std::move(m));
}
Envelope make_envelope(uint64_t seq, SyscallReplyMsg m) {
  return envelope_of(seq, MsgType::kSyscallReply, std::move(m));
}
Envelope make_envelope(uint64_t seq, DeliverRequestMsg m) {
  return envelope_of(seq, MsgType::kDeliverRequest, std::move(m));
}
Envelope make_envelope(uint64_t seq, DeliverAckMsg m) {
  return envelope_of(seq, MsgType::kDeliverAck, std::move(m));
}
Envelope make_envelope(uint64_t seq, MonitorCallbackMsg m) {
  return envelope_of(seq, MsgType::kMonitorCallback, std::move(m));
}
Envelope make_envelope(uint64_t seq, RemoteInvokeMsg m) {
  return envelope_of(seq, MsgType::kRemoteInvoke, std::move(m));
}
Envelope make_envelope(uint64_t seq, RemoteInvokeErrorMsg m) {
  return envelope_of(seq, MsgType::kRemoteInvokeError, std::move(m));
}
Envelope make_envelope(uint64_t seq, RemoteDeriveMsg m) {
  return envelope_of(seq, MsgType::kRemoteDerive, std::move(m));
}
Envelope make_envelope(uint64_t seq, PeerReplyMsg m) {
  return envelope_of(seq, MsgType::kPeerReply, std::move(m));
}
Envelope make_envelope(uint64_t seq, RevokeBroadcastMsg m) {
  return envelope_of(seq, MsgType::kRevokeBroadcast, std::move(m));
}
Envelope make_envelope(uint64_t seq, RevokeAckMsg m) {
  return envelope_of(seq, MsgType::kRevokeAck, std::move(m));
}
Envelope make_envelope(uint64_t seq, RegisterMonitorMsg m) {
  return envelope_of(seq, MsgType::kRegisterMonitor, std::move(m));
}
Envelope make_envelope(uint64_t seq, MonitorFiredMsg m) {
  return envelope_of(seq, MsgType::kMonitorFired, std::move(m));
}
Envelope make_envelope(uint64_t seq, RemoteDeriveBatchMsg m) {
  return envelope_of(seq, MsgType::kRemoteDeriveBatch, std::move(m));
}
Envelope make_envelope(uint64_t seq, PeerReplyBatchMsg m) {
  return envelope_of(seq, MsgType::kPeerReplyBatch, std::move(m));
}
Envelope make_envelope(uint64_t seq, ReplAppendMsg m) {
  return envelope_of(seq, MsgType::kReplAppend, std::move(m));
}
Envelope make_envelope(uint64_t seq, ReplAppendReplyMsg m) {
  return envelope_of(seq, MsgType::kReplAppendReply, std::move(m));
}
Envelope make_envelope(uint64_t seq, ReplVoteMsg m) {
  return envelope_of(seq, MsgType::kReplVote, std::move(m));
}
Envelope make_envelope(uint64_t seq, ReplVoteReplyMsg m) {
  return envelope_of(seq, MsgType::kReplVoteReply, std::move(m));
}
Envelope make_envelope(uint64_t seq, ReplLeaderAnnounceMsg m) {
  return envelope_of(seq, MsgType::kReplLeaderAnnounce, std::move(m));
}
Envelope make_envelope(uint64_t seq, ReplSnapshotMsg m) {
  return envelope_of(seq, MsgType::kReplSnapshot, std::move(m));
}

uint64_t imm_bytes(const std::vector<ImmExtent>& imms) {
  uint64_t total = 0;
  for (const auto& imm : imms) {
    total += imm.bytes.size();
  }
  return total;
}

}  // namespace fractos
