// The FractOS Controller: the trusted OS layer ("Controllers build a distributed OS layer by
// implementing all trusted mechanisms for RPC, address translation, and message routing",
// Section 1).
//
// A Controller:
//   * manages the capability spaces of the Processes attached to it, and the object table of
//     everything those Processes register;
//   * handles the Table-1 syscall surface arriving on Process channels;
//   * routes Request invocations: locally to provider Processes, or to the owning peer
//     Controller via kRemoteInvoke (delegating capability arguments on the way);
//   * executes memory_copy data movement through RDMA — with intermediate bounce buffers and
//     double buffering like the prototype, or with third-party RDMA when the "HW copies"
//     mode of Fig. 5 is enabled;
//   * performs derivation-at-owner (kRemoteDerive), immediate revocation with broadcast
//     cleanup, monitor bookkeeping, and failure translation (process death -> revocations).
//     A mutation of an object this Controller serves takes one path whether a local Process
//     or a peer asked for it (serve_mutation): the Controller builds one ReplicatedOp, applies
//     it through ObjectTable::apply, commits or logs that same op, and installs a derived
//     capability only once the commit is durable.
//
// Every operation charges calibrated compute on the Controller's ExecContext, which is a host
// core or a SmartNIC ARM core depending on deployment (Section 6 evaluates both).

#ifndef SRC_CORE_CONTROLLER_H_
#define SRC_CORE_CONTROLLER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cap/cap_space.h"
#include "src/cap/object_table.h"
#include "src/core/channel.h"
#include "src/core/costs.h"
#include "src/core/peer_links.h"
#include "src/core/replication.h"
#include "src/core/translation_cache.h"
#include "src/fabric/network.h"
#include "src/futures/future.h"
#include "src/sim/intern.h"
#include "src/sim/metrics.h"

namespace fractos {

// Per-Controller operation counters (introspection for benches, debugging, and tests).
struct ControllerStats {
  uint64_t syscalls = 0;
  uint64_t invokes_local = 0;      // invocations delivered to a local provider
  uint64_t invokes_forwarded = 0;  // invocations forwarded to the owning peer
  uint64_t invokes_received = 0;   // kRemoteInvoke arrivals
  uint64_t deliveries = 0;
  uint64_t derivations = 0;
  uint64_t revocations = 0;        // revoke operations applied at this owner
  uint64_t objects_reclaimed = 0;  // stubs erased by the two-phase cleanup
  uint64_t copies = 0;
  uint64_t copy_bytes = 0;
  uint64_t monitor_fires = 0;
  uint64_t process_failures = 0;
  // Reliability-layer counters (all zero on a clean fabric).
  uint64_t peer_retries = 0;         // peer-op request resends
  uint64_t peer_op_timeouts = 0;     // peer ops that hit their deadline unanswered
  uint64_t peer_dedup_hits = 0;      // duplicate peer requests answered from the cache
  uint64_t late_replies_ignored = 0; // peer replies that arrived after timeout/completion
  // Envelopes dropped unhandled: a type the channel does not carry, or a peer reply from a
  // peer other than the one its op went to.
  uint64_t rejected_msgs = 0;
  uint64_t node_recoveries = 0;      // spurious node failures re-admitted by the monitor
  // Admission control (all zero unless set_admission_limit armed a process).
  uint64_t admission_admitted = 0;     // invokes accepted past the admission gate
  uint64_t admission_shed = 0;         // invokes refused with kOverloaded, no work done
  uint64_t admission_max_inflight = 0; // high-water mark of concurrently admitted invokes
};

// The Controller settings a deployment may choose, declared once: SystemConfig inherits them
// and System::add_controller hands them to every Controller it deploys. SystemConfig::validate
// rejects the values that make no sense (DESIGN.md lists each field and its rule).
struct ControllerPolicy {
  // Congestion control: max unacknowledged deliveries per Process (Section 4).
  uint32_t congestion_window = 1024;
  // memory_copy staging: chunk size of the pipelined (double-buffered) copies of Fig. 5.
  uint64_t copy_chunk_bytes = 64 * 1024;
  // Fig. 5 "HW copies": use third-party RDMA instead of bounce buffers.
  bool hw_third_party_copies = false;
  // Capability-space capacity of each attached Process.
  uint32_t cap_quota = 1u << 20;
  // Optimization suggested by the paper (Section 6.1): cache serialized Requests so that
  // repeat delegations of the same object pay a fraction of the serialization cost.
  bool cache_serialized_requests = false;
  // Peer-op reliability (effective only on a lossy fabric): the whole operation times out
  // with kTimeout at peer_op_deadline.
  Duration peer_op_deadline = Duration::millis(1);
  // Completed-peer-op dedup entries older than this are evicted (deterministically, on
  // simulated time). Must stay well above peer_op_deadline: once an op's deadline passes,
  // no more resends of it can arrive, so its cached reply is dead weight.
  Duration peer_op_dedup_ttl = Duration::millis(50);
  // Capability hot path (all off by default for compatibility with existing goldens):
  // owner-side translation cache capacity in entries; 0 disables caching.
  uint32_t translation_cache_entries = 0;
  // Depth-proportional translation pricing: a local delivery pays an extra
  // (chain_depth - 1) * request_traversal on a translation-cache miss and nothing on a
  // hit. Off means the legacy flat pricing (every invoke costs the same regardless of
  // delegation depth) — enabling it without a cache is the honest baseline for Fig. 7.
  bool charge_chain_traversal = false;
  // Batched owner-bound peer ops: coalesce up to this many RemoteDerive ops per peer into
  // one kRemoteDeriveBatch frame (amortizing per-message syscall_base). 0 sends singles.
  uint32_t peer_op_batch_max = 0;
  // How long a non-full batch may wait for more ops before flushing.
  Duration peer_op_batch_delay = Duration::micros(2);
};

class Controller {
 public:
  // Deployment (System assigns all three); the cost model follows the placement.
  struct Config : ControllerPolicy {
    ControllerAddr addr = 0;
    Endpoint endpoint;
    ControllerCosts costs;
  };

  Controller(Network* net, Config config);
  // Completes any still-pending peer operations with kChannelClosed so their futures never
  // dangle (broken-promise discipline).
  ~Controller();

  ControllerAddr addr() const { return config_.addr; }
  Endpoint endpoint() const { return config_.endpoint; }
  ObjectTable& table() { return table_; }
  const Config& config() const { return config_; }
  bool failed() const { return failed_; }

  // --- wiring (performed by System) ---------------------------------------------------------

  // Creates the controller-side channel for a new Process; System connects it to the
  // process-side channel.
  Channel& attach_process(ProcessId pid, uint32_t proc_node, PoolId heap_pool);

  // The channels toward peer Controllers (System connects, drops and lazily meshes them).
  PeerLinks& peer_links() { return links_; }

  // --- trusted bootstrap ---------------------------------------------------------------------

  // Installs a capability directly into a managed Process's space (operator/resource-manager
  // action at deployment time; no messages modeled).
  Result<CapId> bootstrap_install(ProcessId pid, CapEntry entry);
  Result<CapEntry> inspect_cap(ProcessId pid, CapId cid) const;
  size_t cap_space_size(ProcessId pid) const;

  // --- RDMA authorization ---------------------------------------------------------------------

  // Validates an rkey against this Controller's object table: the object must be live, be
  // Memory, cover the extent, and permit the access. Called (through the System directory)
  // by node authorizers — the NIC-rkey model.
  Status check_rdma(const RdmaKey& key, PoolId pool, uint64_t addr, uint64_t size,
                    bool is_write) const;

  // --- failure handling ------------------------------------------------------------------------

  // Translates a Process failure into revocations (Section 3.6): everything it registered is
  // invalidated, monitors fire, the cleanup broadcast goes out.
  void process_failed(ProcessId pid);

  // Notification from the external monitoring service (Section 3.6, "a node failure is
  // detected by an external monitoring service such as Zookeeper"): fail every Process this
  // Controller manages on `node` (matters for remote/shared-Controller deployments, whose
  // channels to processes on the dead node may sever only much later).
  void node_failed(uint32_t node);

  // --- admission control -----------------------------------------------------------------------

  // Arms overload shedding for `pid`'s request_invoke syscalls: at most `limit` invokes may
  // be in flight (admitted but not yet answered by a response delivery) at once; the
  // (limit + 1)-th is refused immediately with kOverloaded, before any capability work —
  // the fail-fast bound that keeps an overloaded Controller's queue, and the admitted
  // requests' latency, finite. 0 (the default) disables the gate entirely: no counters
  // move, no metrics keys are registered, behavior is bit-identical to before.
  //
  // In-flight pairing assumes the RPC discipline every client in this repo follows: one
  // request_invoke produces exactly one response delivery back to the invoker (the reply-
  // endpoint invocation), so the gate releases on push_delivery to `pid`, on a failed
  // syscall reply, or on the remote error channel.
  void set_admission_limit(ProcessId pid, uint32_t limit);

  // Eager stale-capability detection: records a peer's current reboot generation so that
  // capabilities minted before it are refused locally, without a round trip (Section 3.6,
  // "eagerly detect Controller failure-triggered revocations when capabilities are used").
  void note_peer_generation(ControllerAddr peer, uint32_t reboot_count);

  // Notification from the monitoring service that a previously-reported node turned out to
  // be alive (its heartbeats resumed — a monitor false positive). Processes already killed
  // by failure translation stay dead; this re-admits the *node* for future placements and
  // is counted so operators can see spurious failures.
  void node_recovered(uint32_t node);

  // Controller crash: severs all channels. restart() empties the object table and bumps the
  // reboot counter, making every outstanding capability stale.
  void fail();
  void restart();

  // --- replicated control plane (DESIGN.md §4h) -----------------------------------------------

  // Joins this Controller to the replication group for `seat` (one of `members`, which must
  // lead with the seat itself). Called by System::replicate_controller on every member; once
  // armed, the seat's capability mutations commit on a majority before they are acknowledged,
  // and any member can take over serving the seat after the leader dies. With no group armed
  // (the default) every replication hook below is a no-op and behavior is bit-identical to an
  // unreplicated Controller.
  void enable_replication(ControllerAddr seat, std::vector<ControllerAddr> members,
                          uint32_t seat_reboot, ReplicationGroup::Params params);
  ReplicationGroup* replication_group(ControllerAddr seat);
  // True when this Controller is the acting, established leader for `seat` (the seat itself,
  // or a follower that completed takeover) — i.e. it can serve the seat's objects.
  bool serves_seat(ControllerAddr seat) const;
  // Replica-audit helper: the structural digest of this member's state machine for `seat`
  // (0 when this Controller is not in a group for `seat`). Equal digests across members are
  // the "no committed grant lost / no stale capability honored" audit invariant.
  uint64_t seat_state_digest(ControllerAddr seat) const;
  // Where ops for `owner`'s objects should be sent: the owner itself, or the acting leader
  // of its replication group when one is known (learned from kReplLeaderAnnounce).
  ControllerAddr route_owner(ControllerAddr owner) const;

  // --- introspection ----------------------------------------------------------------------------

  ExecContext& exec() { return *exec_; }
  size_t num_processes() const { return procs_.size(); }
  uint64_t deliveries_queued() const { return deliveries_queued_; }
  size_t pending_cleanups() const { return pending_cleanups_.size(); }
  const ControllerStats& stats() const { return stats_; }
  const TranslationCache& translation_cache() const { return tcache_; }
  // Re-resolves every cached translation against the live table and fails if any cached
  // entry differs (a stale entry would let a revoked capability be honored). The property
  // test runs this after every chaos step.
  Status translation_cache_audit() const;

 private:
  struct ProcState {
    ProcessId pid = kInvalidProcess;
    uint32_t node = 0;
    PoolId heap_pool = 0;
    std::unique_ptr<Channel> chan;
    CapSpace caps;
    bool alive = true;
    uint32_t outstanding = 0;  // unacked deliveries (congestion control)
    uint32_t admission_limit = 0;     // 0 = no admission gate on this process
    uint32_t admission_inflight = 0;  // admitted invokes awaiting their response delivery
    std::deque<DeliverRequestMsg> pending;

    explicit ProcState(uint32_t quota) : caps(quota) {}
  };

  // --- dispatch ---
  void on_process_msg(ProcessId pid, Envelope&& env);
  void on_peer_msg(ControllerAddr peer, Envelope&& env);
  Duration cost_of(const Envelope& env) const;

  // --- syscall handlers ---
  // Takes `env` mutable so handlers can move decoded fields onward instead of copying them.
  void handle_syscall(ProcState& p, Envelope& env);
  void sc_memory_create(ProcState& p, uint64_t seq, const MemoryCreateMsg& m);
  void sc_memory_diminish(ProcState& p, uint64_t seq, const MemoryDiminishMsg& m);
  void sc_memory_copy(ProcState& p, uint64_t seq, const MemoryCopyMsg& m);
  void sc_request_create(ProcState& p, uint64_t seq, const RequestCreateMsg& m);
  void sc_request_invoke(ProcState& p, uint64_t seq, RequestInvokeMsg& m);
  void sc_cap_create_revtree(ProcState& p, uint64_t seq, const CapCreateRevtreeMsg& m);
  void sc_cap_revoke(ProcState& p, uint64_t seq, const CapRevokeMsg& m);
  void sc_monitor(ProcState& p, uint64_t seq, const MonitorMsg& m, bool delegate_mode);
  // Runs `p`'s owner-bound derive or revoke: through serve_mutation when this Controller owns
  // the base, else as one kRemoteDerive to the owner (Section 3.5). Either way syscall `seq`
  // is answered by reply_with_cap, or by reply_with_status for a revoke.
  void derive_at_owner(ProcState& p, uint64_t seq, RemoteDeriveMsg rd);
  // Answers syscall `seq` of `pid` (if it is still alive) from an owner's reply: installs the
  // derived capability and replies with its cid, or replies with the error.
  void reply_with_cap(ProcessId pid, uint64_t seq, Result<PeerReplyMsg> res);
  // Same, for ops that yield no capability: replies with the status alone.
  void reply_with_status(ProcessId pid, uint64_t seq, Result<PeerReplyMsg> res);

  // --- peer handlers ---
  void peer_remote_invoke(ControllerAddr origin, const RemoteInvokeMsg& m);
  void peer_remote_derive(ControllerAddr origin, const RemoteDeriveMsg& m);
  void peer_remote_derive_batch(ControllerAddr origin, const RemoteDeriveBatchMsg& m);
  // Executes one owner-bound derive op through serve_mutation (or replays its cached reply)
  // and hands the reply to `done`; dedup is internal, so batch members stay individually
  // idempotent.
  void exec_remote_derive(ControllerAddr origin, const RemoteDeriveMsg& m,
                          std::function<void(const PeerReplyMsg&)> done);
  void peer_revoke_broadcast(ControllerAddr origin, const RevokeBroadcastMsg& m);
  void peer_revoke_ack(const RevokeAckMsg& m);
  void peer_register_monitor(ControllerAddr origin, uint64_t seq, const RegisterMonitorMsg& m);
  void peer_monitor_fired(const MonitorFiredMsg& m);
  void peer_invoke_error(const RemoteInvokeErrorMsg& m);

  // --- the one mutation path ---
  // Gets an owner's reply and whether its outcome is settled: false when the commit failed,
  // so the op's fate is unknown and a retry may run it at the next leader.
  using OwnerDone = std::function<void(PeerReplyMsg, bool settled)>;
  // The owner side of every capability mutation, for a syscall on an object this Controller
  // owns and for a peer's kRemoteDerive or kRegisterMonitor alike. Serves `op` from
  // `target.owner`'s table (kNotLeader or kInvalidArgument when this Controller may not),
  // refuses a `target.reboot_count` other than the table's (kStaleCapability), applies `op`
  // through ObjectTable::apply, builds the derived capability (when the op yields one) from
  // the table, and commits the very op it applied. A committed revoke sends its cleanup
  // broadcast and fires its monitors before `done`. Without a group `done` runs
  // synchronously. Returns false when the op never reached the table.
  bool serve_mutation(const ObjectRef& target, ReplicatedOp op, OwnerDone done);
  // The peer side of serve_mutation's reply: stamps `op_id`, caches a settled reply for
  // dedup, and hands it to `send`.
  OwnerDone answer_peer(ControllerAddr origin, uint64_t op_id,
                        std::function<void(const PeerReplyMsg&)> send);

  // --- helpers ---
  void reply(ProcState& p, uint64_t seq, ErrorCode status, CapId cid = kInvalidCap);
  // Releases one admission-gate slot (no-op for ungated processes).
  static void admission_release(ProcState& p) {
    if (p.admission_inflight > 0) {
      --p.admission_inflight;
    }
  }
  // Refuses capabilities minted before a known peer generation (eager stale detection).
  bool is_stale(const ObjectRef& ref) const;
  // Per-capability serialization cost, honoring the serialized-Request cache.
  Duration cap_serialize_cost(const std::vector<WireCap>& caps);
  // Resolves a cid into a WireCap for delegation; applies monitor interception
  // (prepare_delegation) for locally-owned objects.
  Result<WireCap> make_wire_cap(ProcState& p, CapId cid);
  Result<std::vector<WireCap>> make_wire_caps(ProcState& p, const std::vector<CapId>& cids);
  // Installs delegated capabilities and delivers a Request to a local provider.
  ErrorCode deliver_locally(ObjectIndex idx, const std::vector<ImmExtent>& extra_imms,
                            const std::vector<WireCap>& extra_caps);
  // Same, but validates the ObjectRef (ownership + generation) first.
  ErrorCode deliver_by_ref(const ObjectRef& target, const std::vector<ImmExtent>& extra_imms,
                           const std::vector<WireCap>& extra_caps);
  void push_delivery(ProcState& p, DeliverRequestMsg msg);
  void drain_deliveries(ProcState& p);
  // Applies a revocation outcome for `seat` (this Controller, or a seat it acts for):
  // monitor fires + cleanup broadcast + local purge. `fire_monitors` is false on the
  // takeover re-broadcast path, where the dead leader may already have fired them
  // (at-most-once across failover).
  void apply_revoke_for(ControllerAddr seat, const ObjectTable::RevokeResult& result,
                        bool fire_monitors = true);
  void apply_revoke(const ObjectTable::RevokeResult& result) {
    apply_revoke_for(addr(), result);
  }
  // Reclaims revoked `objects` from `seat`'s table `t` once no peer references them, and
  // logs the erase.
  void erase_revoked(ControllerAddr seat, ObjectTable& t,
                     const std::vector<ObjectIndex>& objects);
  void dispatch_monitor_fire(const ObjectTable::MonitorFire& fire);
  // Peer channel severed: its ops fail, and the replication groups learn of it.
  void on_peer_severed(ControllerAddr peer);
  // The memory_copy data path.
  void do_copy(ProcState& p, uint64_t seq, const CapEntry& src, const CapEntry& dst);
  // Fig. 5: "FractOS uses double buffering for buffers larger than 16 KB"; copies up to this
  // size take one read and one write, larger ones are chunked by copy_chunk_bytes.
  static constexpr uint64_t kDoubleBufferThreshold = 16 * 1024;
  void bounce_copy_chunked(Endpoint self, CapEntry src, CapEntry dst, uint64_t total,
                           std::function<void(Status)> done);
  // Charges additional compute, then runs `fn`.
  void charge(Duration cost, EventLoop::Callback fn);
  // The pulled metrics: ctrl.<addr>.* from stats_, cap.<addr>.xlate_* from tcache_.
  void publish_metrics(MetricSink& out) const;
  // Called from inside a charge() callback that just paid `cost` of capability/request
  // translation: counts it and records the kTranslation span retroactively (the execution
  // window [now - cost/speed, now] has just elapsed on exec_).
  void note_translation(Duration cost);
  // Records a kTranslation span named `name` over the window that just elapsed (shared by
  // cap-serialize accounting and translation-cache miss pricing).
  void record_translation_span(Duration cost, NameId name);
  // Extra compute a local delivery of `idx` owes under depth-proportional pricing: zero on
  // a translation-cache hit (or when the feature is off), (chain_depth - 1) *
  // request_traversal on a miss.
  Duration translation_extra_cost(ObjectIndex idx) const;

  // --- replication plumbing (all no-ops / identity when no group is armed) ---
  friend class ReplicationGroup;
  friend class PeerLinks;
  // The table this Controller may serve `owner`'s objects from: its own table (own seat,
  // unless a deposed own-seat group forbids serving), an acting-leader replica, or nullptr.
  ObjectTable* serving_table(ControllerAddr owner);
  const ObjectTable* serving_table(ControllerAddr owner) const;
  bool can_mutate_seat(ControllerAddr seat) const;
  // Commit gate for one capability mutation the serving table has just applied (the very op
  // passed here): without a group, `done(kOk)` runs synchronously (bit-identical off path);
  // with one, `done` runs when the entry commits (or fails with kNotLeader/kTimeout).
  void commit_mutation(ControllerAddr seat, ReplicatedOp op, std::function<void(ErrorCode)> done);
  // Fire-and-forget variant for mutations whose replies are not commit-gated (delegation
  // bookkeeping, erase sweeps, failure translation) — keeps the log a total order of every
  // mutation so follower replicas converge structurally.
  void log_mutation(ControllerAddr seat, ReplicatedOp op);
  // ReplicationGroup hooks.
  void note_seat_leader(ControllerAddr seat, ControllerAddr leader, uint64_t term);
  void on_seat_established(ControllerAddr seat);
  void peer_leader_announce(const ReplLeaderAnnounceMsg& m);
  void handle_repl_msg(ControllerAddr origin, const Envelope& env);

  static RdmaKey key_of(const ObjectRef& ref) {
    return RdmaKey{ref.owner, ref.index, ref.reboot_count};
  }

  Network* net_;
  Config config_;
  ExecContext* exec_;
  ObjectTable table_;
  std::unordered_map<ProcessId, std::unique_ptr<ProcState>> procs_;
  PeerLinks links_{this};
  // Owner-side translation cache (see translation_cache.h); capacity from Config.
  TranslationCache tcache_;
  std::unordered_map<uint64_t, ProcessId> pending_invokes_;
  // Two-phase revocation cleanup: invalidated objects are erased only after every peer has
  // acknowledged the broadcast (the distributed-GC "cleanup step" of Section 3.5).
  struct PendingCleanup {
    std::vector<ObjectIndex> objects;
    size_t awaiting = 0;
    ControllerAddr seat = 0;  // whose table to erase from (a takeover leader acts for peers)
  };
  std::unordered_map<uint64_t, PendingCleanup> pending_cleanups_;
  // Replication groups this Controller is a member of, by seat; empty by default.
  std::unordered_map<ControllerAddr, std::unique_ptr<ReplicationGroup>> repl_groups_;
  // Last announced leader per replicated seat (kReplLeaderAnnounce), for client redirects.
  struct SeatRoute {
    ControllerAddr leader = 0;
    uint64_t term = 0;
  };
  std::unordered_map<ControllerAddr, SeatRoute> repl_routes_;
  // Peers' known reboot generations (eager stale detection).
  std::unordered_map<ControllerAddr, uint32_t> peer_gens_;
  // Serialized-Request cache (cost model only; see Config::cache_serialized_requests).
  std::unordered_set<uint64_t> serialized_cache_;
  uint64_t next_op_id_ = 1;
  uint64_t next_seq_ = 1;
  uint64_t deliveries_queued_ = 0;
  bool failed_ = false;
  ControllerStats stats_;
  NameId name_id_ = kInvalidNameId;  // interned "ctrl-<addr>", the span actor
  // Pre-interned keys of the pushed metrics (ctrl.<addr>.translations and the cap.<addr>.*
  // histograms), so hot paths neither concatenate nor look up strings.
  NameId translations_key_ = kInvalidNameId;
  NameId revoke_subtree_key_ = kInvalidNameId;   // invalidated-subtree sizes
  NameId batch_occupancy_key_ = kInvalidNameId;  // ops per flushed peer batch
  // Publishes stats_ and the translation cache's hit/miss counters; declared last so it
  // goes first at destruction.
  MetricsPublisher publisher_;
};

}  // namespace fractos

#endif  // SRC_CORE_CONTROLLER_H_
