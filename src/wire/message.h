// FractOS protocol messages.
//
// Three message planes share one envelope format:
//   1. Process -> Controller syscalls (Table 1 of the paper) and their replies. Syscalls are
//      "fully asynchronous and posted into a message-passing channel"; the seq field matches
//      replies to calls.
//   2. Controller -> Process deliveries: received Requests (the request_receive descriptor)
//      and monitor callbacks.
//   3. Controller <-> Controller: forwarded Request invocations (with capability delegation
//      piggybacked), revocation broadcasts (the prototype's cleanup algorithm), and monitor
//      subscriptions/firings.
//
// Every message is encoded with src/wire/buffer.h before entering a channel; the encoded size
// is the number of bytes charged to the simulated network. Each struct below declares its
// layout once, as its FRACTOS_WIRE_FIELDS list in wire order; a body type also names its
// MsgType as kType.

#ifndef SRC_WIRE_MESSAGE_H_
#define SRC_WIRE_MESSAGE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/base/result.h"
#include "src/cap/types.h"
#include "src/sim/intern.h"
#include "src/wire/buffer.h"
#include "src/wire/payload.h"
#include "src/wire/small_bytes.h"

namespace fractos {

enum class MsgType : uint8_t {
  // Plane 1: syscalls.
  kNullOp = 0,
  kMemoryCreate,
  kMemoryDiminish,
  kMemoryCopy,
  kRequestCreate,
  kRequestInvoke,
  kCapCreateRevtree,
  kCapRevoke,
  kMonitorDelegate,
  kMonitorReceive,
  kSyscallReply,
  // Plane 2: controller -> process (and kDeliverAck back).
  kDeliverRequest,
  kDeliverAck,
  kMonitorCallback,
  // Plane 3: controller <-> controller.
  kRemoteInvoke,
  kRemoteInvokeError,
  kRemoteDerive,
  kPeerReply,
  kRevokeBroadcast,
  kRevokeAck,
  kRegisterMonitor,
  kMonitorFired,
  // Appended (wire compatibility): batched owner-bound capability ops.
  kRemoteDeriveBatch,
  kPeerReplyBatch,
  // Appended: controller-metadata replication (leader lease + quorum log, DESIGN.md §4h).
  kReplAppend,
  kReplAppendReply,
  kReplVote,
  kReplVoteReply,
  kReplLeaderAnnounce,
  kReplSnapshot,
};
// The highest value a decoder accepts for the enum (src/wire/buffer.h).
constexpr MsgType enum_last(MsgType) { return MsgType::kReplSnapshot; }

const char* msg_type_name(MsgType t);

// msg_type_name, pre-interned and cached per type — span sites that label a span with the
// message type pay an array index instead of building a string key.
NameId msg_type_span_name(MsgType t);

// An immediate-argument extent of a Request: bytes at a fixed offset in the argument buffer
// (Table 1: "(offset, size, addr)" triples; the addr'ed bytes are captured at create time).
// Extents of up to SmallBytes::kInlineBytes bytes live inside the object, so decoding,
// merging and copying them allocates nothing per extent.
struct ImmExtent {
  uint32_t offset = 0;
  SmallBytes bytes;

  uint32_t end() const { return offset + static_cast<uint32_t>(bytes.size()); }
  FRACTOS_WIRE_FIELDS(offset, bytes)
  bool operator==(const ImmExtent&) const = default;
};

// A capability traveling between Controllers (inside kRemoteInvoke). Memory capabilities
// carry their location descriptor — the rkey analogue — so third-party transfers need no
// extra resolution round trip.
struct WireCap {
  ObjectRef ref;
  ObjectKind kind = ObjectKind::kMemory;
  Perms perms = Perms::kNone;
  MemoryDesc mem;  // meaningful iff kind == kMemory
  // True when the owner created a per-delegation revocation-tree child for this capability
  // (monitor_delegate interception, Section 3.6). A holder's Controller revokes tracked
  // entries at the owner when the holder fails, which is what decrements the owner's
  // outstanding-delegation counter.
  bool tracked = false;

  FRACTOS_WIRE_FIELDS(ref, kind, perms, mem, tracked)
  bool operator==(const WireCap&) const = default;
};

// --- Plane 1: syscall payloads ------------------------------------------------------------

struct NullOpMsg {
  static constexpr MsgType kType = MsgType::kNullOp;
  FRACTOS_WIRE_FIELDS()
  bool operator==(const NullOpMsg&) const = default;
};

struct MemoryCreateMsg {
  static constexpr MsgType kType = MsgType::kMemoryCreate;
  uint32_t pool = 0;
  uint64_t addr = 0;
  uint64_t size = 0;
  Perms perms = Perms::kReadWrite;
  FRACTOS_WIRE_FIELDS(pool, addr, size, perms)
  bool operator==(const MemoryCreateMsg&) const = default;
};

struct MemoryDiminishMsg {
  static constexpr MsgType kType = MsgType::kMemoryDiminish;
  CapId cid = kInvalidCap;
  uint64_t offset = 0;
  uint64_t size = 0;
  Perms drop_perms = Perms::kNone;
  FRACTOS_WIRE_FIELDS(cid, offset, size, drop_perms)
  bool operator==(const MemoryDiminishMsg&) const = default;
};

// memory_copy with optional sub-range addressing: `length == 0` means "whole overlap"
// (min of the two views). Offsets let services reuse one staging-window capability across
// operations instead of deriving a fresh Memory object per I/O.
struct MemoryCopyMsg {
  static constexpr MsgType kType = MsgType::kMemoryCopy;
  CapId src = kInvalidCap;
  CapId dst = kInvalidCap;
  uint64_t src_off = 0;
  uint64_t dst_off = 0;
  uint64_t length = 0;
  FRACTOS_WIRE_FIELDS(src, dst, src_off, dst_off, length)
  bool operator==(const MemoryCopyMsg&) const = default;
};

struct RequestCreateMsg {
  static constexpr MsgType kType = MsgType::kRequestCreate;
  bool has_base = false;   // false: new root Request with the caller as provider
  CapId base = kInvalidCap;
  std::vector<ImmExtent> imms;
  std::vector<CapId> caps;
  FRACTOS_WIRE_FIELDS(has_base, base, imms, caps)
  bool operator==(const RequestCreateMsg&) const = default;
};

// request_invoke, optionally carrying a final (ephemeral) refinement layer. Invoke-time
// arguments are what make a client-supplied-argument RPC a single message: the args ride the
// invoke instead of requiring a request_create round trip to the owner first. (The persistent
// form of refinement is RequestCreateMsg with a base.)
struct RequestInvokeMsg {
  static constexpr MsgType kType = MsgType::kRequestInvoke;
  CapId cid = kInvalidCap;
  std::vector<ImmExtent> imms;
  std::vector<CapId> caps;
  FRACTOS_WIRE_FIELDS(cid, imms, caps)
  bool operator==(const RequestInvokeMsg&) const = default;
};

struct CapCreateRevtreeMsg {
  static constexpr MsgType kType = MsgType::kCapCreateRevtree;
  CapId cid = kInvalidCap;
  FRACTOS_WIRE_FIELDS(cid)
  bool operator==(const CapCreateRevtreeMsg&) const = default;
};

struct CapRevokeMsg {
  static constexpr MsgType kType = MsgType::kCapRevoke;
  CapId cid = kInvalidCap;
  FRACTOS_WIRE_FIELDS(cid)
  bool operator==(const CapRevokeMsg&) const = default;
};

struct MonitorMsg {  // kMonitorDelegate / kMonitorReceive
  CapId cid = kInvalidCap;
  uint64_t callback_id = 0;
  FRACTOS_WIRE_FIELDS(cid, callback_id)
  bool operator==(const MonitorMsg&) const = default;
};

struct SyscallReplyMsg {
  static constexpr MsgType kType = MsgType::kSyscallReply;
  uint64_t call_seq = 0;  // seq of the syscall being answered
  ErrorCode status = ErrorCode::kOk;
  CapId cid = kInvalidCap;  // result capability, when the syscall produces one
  FRACTOS_WIRE_FIELDS(call_seq, status, cid)
  bool operator==(const SyscallReplyMsg&) const = default;
};

// --- Plane 2: controller -> process payloads ----------------------------------------------

// A capability installed into the receiver's space as part of a Request delivery.
struct DeliveredCap {
  CapId cid = kInvalidCap;
  ObjectKind kind = ObjectKind::kMemory;
  Perms perms = Perms::kNone;
  uint64_t mem_size = 0;  // extent size for Memory capabilities (0 for Requests)
  FRACTOS_WIRE_FIELDS(cid, kind, perms, mem_size)
  bool operator==(const DeliveredCap&) const = default;
};

// The request_receive descriptor of Table 1: immediates + capabilities.
struct DeliverRequestMsg {
  static constexpr MsgType kType = MsgType::kDeliverRequest;
  CapId endpoint_cid = kInvalidCap;  // the provider's own cid for the invoked root Request
  std::vector<ImmExtent> imms;
  std::vector<DeliveredCap> caps;
  FRACTOS_WIRE_FIELDS(endpoint_cid, imms, caps)
  bool operator==(const DeliverRequestMsg&) const = default;
};

struct MonitorCallbackMsg {  // monitor_delegate_cb / monitor_receive_cb
  static constexpr MsgType kType = MsgType::kMonitorCallback;
  uint64_t callback_id = 0;
  bool delegate_mode = false;  // true: monitor_delegate_cb, false: monitor_receive_cb
  FRACTOS_WIRE_FIELDS(callback_id, delegate_mode)
  bool operator==(const MonitorCallbackMsg&) const = default;
};

// Flow control: the Process runtime acknowledges a handled delivery; the Controller admits at
// most `congestion_window` unacknowledged deliveries per Process ("FractOS implements
// congestion control by limiting the number of outstanding FractOS responses in a Process",
// Section 4). Always node-local or PCIe traffic, never cross-node.
struct DeliverAckMsg {
  static constexpr MsgType kType = MsgType::kDeliverAck;
  FRACTOS_WIRE_FIELDS()
  bool operator==(const DeliverAckMsg&) const = default;
};

// --- Plane 3: controller <-> controller payloads ------------------------------------------

struct RemoteInvokeMsg {
  static constexpr MsgType kType = MsgType::kRemoteInvoke;
  ObjectRef target;  // the (base) Request object at the destination Controller
  std::vector<ImmExtent> imms;
  std::vector<WireCap> caps;
  ControllerAddr origin = kInvalidController;
  uint64_t invoke_id = 0;  // lets the origin match kRemoteInvokeError notifications
  FRACTOS_WIRE_FIELDS(target, imms, caps, origin, invoke_id)
  bool operator==(const RemoteInvokeMsg&) const = default;
};

struct RemoteInvokeErrorMsg {
  static constexpr MsgType kType = MsgType::kRemoteInvokeError;
  uint64_t invoke_id = 0;
  ErrorCode status = ErrorCode::kInternal;
  FRACTOS_WIRE_FIELDS(invoke_id, status)
  bool operator==(const RemoteInvokeErrorMsg&) const = default;
};

// Derivation at the owner ("Creating or revoking capabilities requires a single message to
// the owning Controller", Section 3.5): one message derives a Request refinement, a Memory
// diminish, or a revocation-tree child, and kPeerReply returns the new object.
struct RemoteDeriveMsg {
  static constexpr MsgType kType = MsgType::kRemoteDerive;
  enum class Op : uint8_t {
    kRequestRefine = 0,
    kMemoryDiminish = 1,
    kRevtreeChild = 2,
    kRevoke = 3,
  };
  uint64_t op_id = 0;
  ObjectRef base;
  Op op = Op::kRequestRefine;
  ProcessId requester = kInvalidProcess;  // creator recorded on the derived object
  // kRequestRefine:
  std::vector<ImmExtent> imms;
  std::vector<WireCap> caps;
  // kMemoryDiminish:
  uint64_t offset = 0;
  uint64_t size = 0;
  Perms drop_perms = Perms::kNone;
  FRACTOS_WIRE_FIELDS(op_id, base, op, requester, imms, caps, offset, size, drop_perms)
  bool operator==(const RemoteDeriveMsg&) const = default;
};
constexpr RemoteDeriveMsg::Op enum_last(RemoteDeriveMsg::Op) {
  return RemoteDeriveMsg::Op::kRevoke;
}

// Generic controller-to-controller reply (RemoteDerive, RegisterMonitor).
struct PeerReplyMsg {
  static constexpr MsgType kType = MsgType::kPeerReply;
  uint64_t op_id = 0;
  ErrorCode status = ErrorCode::kOk;
  WireCap result;  // the derived object, when status == kOk and the op yields one
  FRACTOS_WIRE_FIELDS(op_id, status, result)
  bool operator==(const PeerReplyMsg&) const = default;
};

// N owner-bound capability ops (grant/refine/diminish/revoke) in one wire message. Each inner
// op keeps its own idempotent op_id, so receiver-side dedup and the sender's per-op promise
// bookkeeping are identical to the unbatched path; only the framing (and the per-message
// syscall overhead at the receiver) is amortized. Answered by one kPeerReplyBatch carrying
// the per-op replies in op order.
struct RemoteDeriveBatchMsg {
  static constexpr MsgType kType = MsgType::kRemoteDeriveBatch;
  std::vector<RemoteDeriveMsg> ops;
  FRACTOS_WIRE_FIELDS(ops)
  bool operator==(const RemoteDeriveBatchMsg&) const = default;
};

struct PeerReplyBatchMsg {
  static constexpr MsgType kType = MsgType::kPeerReplyBatch;
  std::vector<PeerReplyMsg> replies;
  FRACTOS_WIRE_FIELDS(replies)
  bool operator==(const PeerReplyBatchMsg&) const = default;
};

// Cleanup step of revocation (Section 3.5): the owner broadcasts invalidated objects; all
// Controllers purge capability-space entries referencing them and acknowledge. Once every
// peer has acknowledged, the owner erases the invalidated stubs from its table ("eventually
// cleaned up after ensuring no other Controllers have capabilities referencing it"). Outside
// the critical path; neither security nor performance critical.
struct RevokeBroadcastMsg {
  static constexpr MsgType kType = MsgType::kRevokeBroadcast;
  uint64_t cleanup_id = 0;
  std::vector<ObjectRef> revoked;
  FRACTOS_WIRE_FIELDS(cleanup_id, revoked)
  bool operator==(const RevokeBroadcastMsg&) const = default;
};

struct RevokeAckMsg {
  static constexpr MsgType kType = MsgType::kRevokeAck;
  uint64_t cleanup_id = 0;
  FRACTOS_WIRE_FIELDS(cleanup_id)
  bool operator==(const RevokeAckMsg&) const = default;
};

struct RegisterMonitorMsg {
  static constexpr MsgType kType = MsgType::kRegisterMonitor;
  ObjectRef target;
  bool delegate_mode = false;
  uint64_t callback_id = 0;
  ControllerAddr subscriber_controller = kInvalidController;
  ProcessId subscriber_process = kInvalidProcess;
  FRACTOS_WIRE_FIELDS(target, delegate_mode, callback_id, subscriber_controller,
                      subscriber_process)
  bool operator==(const RegisterMonitorMsg&) const = default;
};

struct MonitorFiredMsg {
  static constexpr MsgType kType = MsgType::kMonitorFired;
  ProcessId process = kInvalidProcess;
  uint64_t callback_id = 0;
  bool delegate_mode = false;
  FRACTOS_WIRE_FIELDS(process, callback_id, delegate_mode)
  bool operator==(const MonitorFiredMsg&) const = default;
};

// --- Replication plane (controller <-> controller, DESIGN.md §4h) --------------------------

// One capability-metadata mutation, exactly as the seat's ObjectTable executes it. The
// replicated log is a sequence of these; the leader applies each through ObjectTable::apply
// before logging it, and followers replay committed entries through the same function, which
// re-derives the same object indices (insert() assigns them sequentially), so replicas
// converge structurally — `result_index` lets the follower audit that its apply produced the
// index the leader observed.
struct ReplicatedOp {
  enum class Kind : uint8_t {
    kNoop = 0,          // leader-change barrier entry; mutates nothing
    kCreateMemory,      // requester, mem, perms
    kDeriveMemory,      // requester, base, offset, size, perms (= drop_perms)
    kCreateRequestRoot, // requester (provider), cid (endpoint), imms+caps (initial args)
    kSetEndpointCid,    // base (idx), cid
    kDeriveRequest,     // requester, base, imms+caps (refinement)
    kRevtreeChild,      // requester, base
    kPrepareDelegation, // base (idx); creates a tracked child iff monitor_delegate'd
    kMonitorDelegate,   // base, callback_id, sub_controller, sub_process
    kMonitorReceive,    // base, callback_id, sub_controller, sub_process
    kRevoke,            // base (idx)
    kRevokeAllOf,       // requester (the failed process)
    kEraseObjects,      // indices
  };
  Kind kind = Kind::kNoop;
  ProcessId requester = kInvalidProcess;
  uint64_t base = 0;
  uint64_t result_index = 0;  // index the leader's own apply produced (0 when none)
  MemoryDesc mem;
  Perms perms = Perms::kNone;
  uint64_t offset = 0;
  uint64_t size = 0;
  CapId cid = kInvalidCap;
  uint64_t callback_id = 0;
  ControllerAddr sub_controller = kInvalidController;
  ProcessId sub_process = kInvalidProcess;
  std::vector<ImmExtent> imms;
  std::vector<WireCap> caps;
  std::vector<uint64_t> indices;
  FRACTOS_WIRE_FIELDS(kind, requester, base, result_index, mem, perms, offset, size, cid,
                      callback_id, sub_controller, sub_process, imms, caps, indices)
  bool operator==(const ReplicatedOp&) const = default;
};
constexpr ReplicatedOp::Kind enum_last(ReplicatedOp::Kind) {
  return ReplicatedOp::Kind::kEraseObjects;
}

struct ReplLogEntry {
  uint64_t index = 0;
  uint64_t term = 0;
  ReplicatedOp op;
  FRACTOS_WIRE_FIELDS(index, term, op)
  bool operator==(const ReplLogEntry&) const = default;
};

// Log replication + lease heartbeat (an empty entries vector is the heartbeat). `seat` names
// the replication group: the controller whose metadata this log replicates.
struct ReplAppendMsg {
  static constexpr MsgType kType = MsgType::kReplAppend;
  ControllerAddr seat = kInvalidController;
  ControllerAddr leader = kInvalidController;
  uint64_t term = 0;
  uint64_t prev_index = 0;
  uint64_t prev_term = 0;
  uint64_t commit_index = 0;
  std::vector<ReplLogEntry> entries;
  FRACTOS_WIRE_FIELDS(seat, leader, term, prev_index, prev_term, commit_index, entries)
  bool operator==(const ReplAppendMsg&) const = default;
};

struct ReplAppendReplyMsg {
  static constexpr MsgType kType = MsgType::kReplAppendReply;
  ControllerAddr seat = kInvalidController;
  ControllerAddr from = kInvalidController;
  uint64_t term = 0;
  bool ok = false;
  uint64_t match_index = 0;   // ok: highest index replicated; nack: follower log end (hint)
  bool need_snapshot = false; // follower is behind the compacted prefix or tainted
  FRACTOS_WIRE_FIELDS(seat, from, term, ok, match_index, need_snapshot)
  bool operator==(const ReplAppendReplyMsg&) const = default;
};

struct ReplVoteMsg {
  static constexpr MsgType kType = MsgType::kReplVote;
  ControllerAddr seat = kInvalidController;
  ControllerAddr candidate = kInvalidController;
  uint64_t term = 0;
  uint64_t last_log_index = 0;
  uint64_t last_log_term = 0;
  FRACTOS_WIRE_FIELDS(seat, candidate, term, last_log_index, last_log_term)
  bool operator==(const ReplVoteMsg&) const = default;
};

struct ReplVoteReplyMsg {
  static constexpr MsgType kType = MsgType::kReplVoteReply;
  ControllerAddr seat = kInvalidController;
  ControllerAddr from = kInvalidController;
  uint64_t term = 0;
  bool granted = false;
  FRACTOS_WIRE_FIELDS(seat, from, term, granted)
  bool operator==(const ReplVoteReplyMsg&) const = default;
};

// Broadcast by a newly established leader to every controller (members or not) so client-side
// routing (Controller::route_owner) follows the seat to its acting leader.
struct ReplLeaderAnnounceMsg {
  static constexpr MsgType kType = MsgType::kReplLeaderAnnounce;
  ControllerAddr seat = kInvalidController;
  ControllerAddr leader = kInvalidController;
  uint64_t term = 0;
  FRACTOS_WIRE_FIELDS(seat, leader, term)
  bool operator==(const ReplLeaderAnnounceMsg&) const = default;
};

// Full-state catch-up: a serialized ObjectTable replacing the follower's replica up to
// (last_index, last_term). Sent when a follower nacks with need_snapshot.
struct ReplSnapshotMsg {
  static constexpr MsgType kType = MsgType::kReplSnapshot;
  ControllerAddr seat = kInvalidController;
  ControllerAddr leader = kInvalidController;
  uint64_t term = 0;
  uint64_t last_index = 0;
  uint64_t last_term = 0;
  std::vector<uint8_t> blob;
  FRACTOS_WIRE_FIELDS(seat, leader, term, last_index, last_term, blob)
  bool operator==(const ReplSnapshotMsg&) const = default;
};

// --- Envelope -------------------------------------------------------------------------------

using MsgBody =
    std::variant<NullOpMsg, MemoryCreateMsg, MemoryDiminishMsg, MemoryCopyMsg, RequestCreateMsg,
                 RequestInvokeMsg, CapCreateRevtreeMsg, CapRevokeMsg, MonitorMsg, SyscallReplyMsg,
                 DeliverRequestMsg, DeliverAckMsg, MonitorCallbackMsg, RemoteInvokeMsg,
                 RemoteInvokeErrorMsg, RemoteDeriveMsg, PeerReplyMsg, RevokeBroadcastMsg,
                 RevokeAckMsg, RegisterMonitorMsg, MonitorFiredMsg, RemoteDeriveBatchMsg,
                 PeerReplyBatchMsg, ReplAppendMsg, ReplAppendReplyMsg, ReplVoteMsg,
                 ReplVoteReplyMsg, ReplLeaderAnnounceMsg, ReplSnapshotMsg>;

struct Envelope {
  MsgType type = MsgType::kNullOp;
  uint64_t seq = 0;
  MsgBody body;
};

// Serializes an envelope into one exact-size block; the result's size() is what the fabric
// charges to the wire.
Payload encode_envelope(const Envelope& env);

// A copy of the encoded envelope `frame` with its seq replaced by `seq` — every other byte is
// shared. One broadcast body encoded once goes to each peer under that peer's seq.
Payload with_seq(const Payload& frame, uint64_t seq);

// Parses an envelope; fails (kInvalidArgument) on truncated or malformed input.
Result<Envelope> decode_envelope(std::span<const uint8_t> buf);

// Builds the envelope of a body type that names its MsgType.
template <typename M>
  requires requires { M::kType; }
Envelope make_envelope(uint64_t seq, M m) {
  return Envelope{M::kType, seq, MsgBody(std::move(m))};
}

// MonitorMsg serves two types, kMonitorDelegate and kMonitorReceive.
Envelope make_envelope(uint64_t seq, MonitorMsg m, bool delegate_mode);

// Total bytes of immediate payload across extents (used for cost accounting and tests).
uint64_t imm_bytes(const std::vector<ImmExtent>& imms);

}  // namespace fractos

#endif  // SRC_WIRE_MESSAGE_H_
