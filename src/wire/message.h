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
// is the number of bytes charged to the simulated network.

#ifndef SRC_WIRE_MESSAGE_H_
#define SRC_WIRE_MESSAGE_H_

#include <cstdint>
#include <string>
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

  bool operator==(const WireCap&) const = default;
};

// --- Plane 1: syscall payloads ------------------------------------------------------------

struct NullOpMsg {
  bool operator==(const NullOpMsg&) const = default;
};

struct MemoryCreateMsg {
  uint32_t pool = 0;
  uint64_t addr = 0;
  uint64_t size = 0;
  Perms perms = Perms::kReadWrite;
  bool operator==(const MemoryCreateMsg&) const = default;
};

struct MemoryDiminishMsg {
  CapId cid = kInvalidCap;
  uint64_t offset = 0;
  uint64_t size = 0;
  Perms drop_perms = Perms::kNone;
  bool operator==(const MemoryDiminishMsg&) const = default;
};

// memory_copy with optional sub-range addressing: `length == 0` means "whole overlap"
// (min of the two views). Offsets let services reuse one staging-window capability across
// operations instead of deriving a fresh Memory object per I/O.
struct MemoryCopyMsg {
  CapId src = kInvalidCap;
  CapId dst = kInvalidCap;
  uint64_t src_off = 0;
  uint64_t dst_off = 0;
  uint64_t length = 0;
  bool operator==(const MemoryCopyMsg&) const = default;
};

struct RequestCreateMsg {
  bool has_base = false;   // false: new root Request with the caller as provider
  CapId base = kInvalidCap;
  std::vector<ImmExtent> imms;
  std::vector<CapId> caps;
  bool operator==(const RequestCreateMsg&) const = default;
};

// request_invoke, optionally carrying a final (ephemeral) refinement layer. Invoke-time
// arguments are what make a client-supplied-argument RPC a single message: the args ride the
// invoke instead of requiring a request_create round trip to the owner first. (The persistent
// form of refinement is RequestCreateMsg with a base.)
struct RequestInvokeMsg {
  CapId cid = kInvalidCap;
  std::vector<ImmExtent> imms;
  std::vector<CapId> caps;
  bool operator==(const RequestInvokeMsg&) const = default;
};

struct CapCreateRevtreeMsg {
  CapId cid = kInvalidCap;
  bool operator==(const CapCreateRevtreeMsg&) const = default;
};

struct CapRevokeMsg {
  CapId cid = kInvalidCap;
  bool operator==(const CapRevokeMsg&) const = default;
};

struct MonitorMsg {  // kMonitorDelegate / kMonitorReceive
  CapId cid = kInvalidCap;
  uint64_t callback_id = 0;
  bool operator==(const MonitorMsg&) const = default;
};

struct SyscallReplyMsg {
  uint64_t call_seq = 0;  // seq of the syscall being answered
  ErrorCode status = ErrorCode::kOk;
  CapId cid = kInvalidCap;  // result capability, when the syscall produces one
  bool operator==(const SyscallReplyMsg&) const = default;
};

// --- Plane 2: controller -> process payloads ----------------------------------------------

// A capability installed into the receiver's space as part of a Request delivery.
struct DeliveredCap {
  CapId cid = kInvalidCap;
  ObjectKind kind = ObjectKind::kMemory;
  Perms perms = Perms::kNone;
  uint64_t mem_size = 0;  // extent size for Memory capabilities (0 for Requests)
  bool operator==(const DeliveredCap&) const = default;
};

// The request_receive descriptor of Table 1: immediates + capabilities.
struct DeliverRequestMsg {
  CapId endpoint_cid = kInvalidCap;  // the provider's own cid for the invoked root Request
  std::vector<ImmExtent> imms;
  std::vector<DeliveredCap> caps;
  bool operator==(const DeliverRequestMsg&) const = default;
};

struct MonitorCallbackMsg {  // monitor_delegate_cb / monitor_receive_cb
  uint64_t callback_id = 0;
  bool delegate_mode = false;  // true: monitor_delegate_cb, false: monitor_receive_cb
  bool operator==(const MonitorCallbackMsg&) const = default;
};

// Flow control: the Process runtime acknowledges a handled delivery; the Controller admits at
// most `congestion_window` unacknowledged deliveries per Process ("FractOS implements
// congestion control by limiting the number of outstanding FractOS responses in a Process",
// Section 4). Always node-local or PCIe traffic, never cross-node.
struct DeliverAckMsg {
  bool operator==(const DeliverAckMsg&) const = default;
};

// --- Plane 3: controller <-> controller payloads ------------------------------------------

struct RemoteInvokeMsg {
  ObjectRef target;  // the (base) Request object at the destination Controller
  std::vector<ImmExtent> imms;
  std::vector<WireCap> caps;
  ControllerAddr origin = kInvalidController;
  uint64_t invoke_id = 0;  // lets the origin match kRemoteInvokeError notifications
  bool operator==(const RemoteInvokeMsg&) const = default;
};

struct RemoteInvokeErrorMsg {
  uint64_t invoke_id = 0;
  ErrorCode status = ErrorCode::kInternal;
  bool operator==(const RemoteInvokeErrorMsg&) const = default;
};

// Derivation at the owner ("Creating or revoking capabilities requires a single message to
// the owning Controller", Section 3.5): one message derives a Request refinement, a Memory
// diminish, or a revocation-tree child, and kPeerReply returns the new object.
struct RemoteDeriveMsg {
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
  bool operator==(const RemoteDeriveMsg&) const = default;
};

// Generic controller-to-controller reply (RemoteDerive, RegisterMonitor).
struct PeerReplyMsg {
  uint64_t op_id = 0;
  ErrorCode status = ErrorCode::kOk;
  WireCap result;  // the derived object, when status == kOk and the op yields one
  bool operator==(const PeerReplyMsg&) const = default;
};

// N owner-bound capability ops (grant/refine/diminish/revoke) in one wire message. Each inner
// op keeps its own idempotent op_id, so receiver-side dedup and the sender's per-op promise
// bookkeeping are identical to the unbatched path; only the framing (and the per-message
// syscall overhead at the receiver) is amortized. Answered by one kPeerReplyBatch carrying
// the per-op replies in op order.
struct RemoteDeriveBatchMsg {
  std::vector<RemoteDeriveMsg> ops;
  bool operator==(const RemoteDeriveBatchMsg&) const = default;
};

struct PeerReplyBatchMsg {
  std::vector<PeerReplyMsg> replies;
  bool operator==(const PeerReplyBatchMsg&) const = default;
};

// Cleanup step of revocation (Section 3.5): the owner broadcasts invalidated objects; all
// Controllers purge capability-space entries referencing them and acknowledge. Once every
// peer has acknowledged, the owner erases the invalidated stubs from its table ("eventually
// cleaned up after ensuring no other Controllers have capabilities referencing it"). Outside
// the critical path; neither security nor performance critical.
struct RevokeBroadcastMsg {
  uint64_t cleanup_id = 0;
  std::vector<ObjectRef> revoked;
  bool operator==(const RevokeBroadcastMsg&) const = default;
};

struct RevokeAckMsg {
  uint64_t cleanup_id = 0;
  bool operator==(const RevokeAckMsg&) const = default;
};

struct RegisterMonitorMsg {
  ObjectRef target;
  bool delegate_mode = false;
  uint64_t callback_id = 0;
  ControllerAddr subscriber_controller = kInvalidController;
  ProcessId subscriber_process = kInvalidProcess;
  bool operator==(const RegisterMonitorMsg&) const = default;
};

struct MonitorFiredMsg {
  ProcessId process = kInvalidProcess;
  uint64_t callback_id = 0;
  bool delegate_mode = false;
  bool operator==(const MonitorFiredMsg&) const = default;
};

// --- Replication plane (controller <-> controller, DESIGN.md §4h) --------------------------

// One capability-metadata mutation, exactly as the seat's ObjectTable executes it. The
// replicated log is a sequence of these; followers replay committed entries through
// ObjectTable::apply_replicated, which re-derives the same object indices (insert() assigns
// them sequentially), so replicas converge structurally — `result_index` lets the follower
// audit that its apply produced the index the leader observed.
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
  bool operator==(const ReplicatedOp&) const = default;
};

struct ReplLogEntry {
  uint64_t index = 0;
  uint64_t term = 0;
  ReplicatedOp op;
  bool operator==(const ReplLogEntry&) const = default;
};

// Log replication + lease heartbeat (an empty entries vector is the heartbeat). `seat` names
// the replication group: the controller whose metadata this log replicates.
struct ReplAppendMsg {
  ControllerAddr seat = kInvalidController;
  ControllerAddr leader = kInvalidController;
  uint64_t term = 0;
  uint64_t prev_index = 0;
  uint64_t prev_term = 0;
  uint64_t commit_index = 0;
  std::vector<ReplLogEntry> entries;
  bool operator==(const ReplAppendMsg&) const = default;
};

struct ReplAppendReplyMsg {
  ControllerAddr seat = kInvalidController;
  ControllerAddr from = kInvalidController;
  uint64_t term = 0;
  bool ok = false;
  uint64_t match_index = 0;   // ok: highest index replicated; nack: follower log end (hint)
  bool need_snapshot = false; // follower is behind the compacted prefix or tainted
  bool operator==(const ReplAppendReplyMsg&) const = default;
};

struct ReplVoteMsg {
  ControllerAddr seat = kInvalidController;
  ControllerAddr candidate = kInvalidController;
  uint64_t term = 0;
  uint64_t last_log_index = 0;
  uint64_t last_log_term = 0;
  bool operator==(const ReplVoteMsg&) const = default;
};

struct ReplVoteReplyMsg {
  ControllerAddr seat = kInvalidController;
  ControllerAddr from = kInvalidController;
  uint64_t term = 0;
  bool granted = false;
  bool operator==(const ReplVoteReplyMsg&) const = default;
};

// Broadcast by a newly established leader to every controller (members or not) so client-side
// routing (Controller::route_owner) follows the seat to its acting leader.
struct ReplLeaderAnnounceMsg {
  ControllerAddr seat = kInvalidController;
  ControllerAddr leader = kInvalidController;
  uint64_t term = 0;
  bool operator==(const ReplLeaderAnnounceMsg&) const = default;
};

// Full-state catch-up: a serialized ObjectTable replacing the follower's replica up to
// (last_index, last_term). Sent when a follower nacks with need_snapshot.
struct ReplSnapshotMsg {
  ControllerAddr seat = kInvalidController;
  ControllerAddr leader = kInvalidController;
  uint64_t term = 0;
  uint64_t last_index = 0;
  uint64_t last_term = 0;
  std::vector<uint8_t> blob;
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

// Convenience constructors that keep type/body consistent.
Envelope make_envelope(uint64_t seq, NullOpMsg m);
Envelope make_envelope(uint64_t seq, MemoryCreateMsg m);
Envelope make_envelope(uint64_t seq, MemoryDiminishMsg m);
Envelope make_envelope(uint64_t seq, MemoryCopyMsg m);
Envelope make_envelope(uint64_t seq, RequestCreateMsg m);
Envelope make_envelope(uint64_t seq, RequestInvokeMsg m);
Envelope make_envelope(uint64_t seq, CapCreateRevtreeMsg m);
Envelope make_envelope(uint64_t seq, CapRevokeMsg m);
Envelope make_envelope(uint64_t seq, MonitorMsg m, bool delegate_mode);
Envelope make_envelope(uint64_t seq, SyscallReplyMsg m);
Envelope make_envelope(uint64_t seq, DeliverRequestMsg m);
Envelope make_envelope(uint64_t seq, DeliverAckMsg m);
Envelope make_envelope(uint64_t seq, MonitorCallbackMsg m);
Envelope make_envelope(uint64_t seq, RemoteInvokeMsg m);
Envelope make_envelope(uint64_t seq, RemoteInvokeErrorMsg m);
Envelope make_envelope(uint64_t seq, RemoteDeriveMsg m);
Envelope make_envelope(uint64_t seq, PeerReplyMsg m);
Envelope make_envelope(uint64_t seq, RevokeBroadcastMsg m);
Envelope make_envelope(uint64_t seq, RevokeAckMsg m);
Envelope make_envelope(uint64_t seq, RegisterMonitorMsg m);
Envelope make_envelope(uint64_t seq, MonitorFiredMsg m);
Envelope make_envelope(uint64_t seq, RemoteDeriveBatchMsg m);
Envelope make_envelope(uint64_t seq, PeerReplyBatchMsg m);
Envelope make_envelope(uint64_t seq, ReplAppendMsg m);
Envelope make_envelope(uint64_t seq, ReplAppendReplyMsg m);
Envelope make_envelope(uint64_t seq, ReplVoteMsg m);
Envelope make_envelope(uint64_t seq, ReplVoteReplyMsg m);
Envelope make_envelope(uint64_t seq, ReplLeaderAnnounceMsg m);
Envelope make_envelope(uint64_t seq, ReplSnapshotMsg m);

// Field codecs shared between the envelope encoders here and the ObjectTable snapshot
// encoding (src/cap/object_table.cc) — one wire format for a field, everywhere.
void encode_ref(Encoder& e, const ObjectRef& ref);
ObjectRef decode_ref(Decoder& d);
void encode_mem_desc(Encoder& e, const MemoryDesc& m);
MemoryDesc decode_mem_desc(Decoder& d);
void encode_imms(Encoder& e, const std::vector<ImmExtent>& imms);
std::vector<ImmExtent> decode_imms(Decoder& d);
void encode_wire_cap(Encoder& e, const WireCap& c);
WireCap decode_wire_cap(Decoder& d);
void encode_repl_op(Encoder& e, const ReplicatedOp& op);
ReplicatedOp decode_repl_op(Decoder& d);

// Total bytes of immediate payload across extents (used for cost accounting and tests).
uint64_t imm_bytes(const std::vector<ImmExtent>& imms);

}  // namespace fractos

#endif  // SRC_WIRE_MESSAGE_H_
