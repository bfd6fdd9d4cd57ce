// Quorum replication of one Controller seat's capability metadata (DESIGN.md §4h).
//
// A ReplicationGroup makes a Controller "seat" — its object table, the root of every
// capability it owns — survive the Controller's death. Each member of the group runs one
// ReplicationGroup instance for the seat: the seat itself serves clients and leads the
// group; the other members maintain a follower replica of the seat's ObjectTable by
// applying a replicated log of capability mutations (grant / refine / diminish / revoke,
// and every translation-affecting op) in commit order.
//
// The protocol is a lease-based Raft variant, specialized for the deterministic simulator:
//
//   * Terms and votes are standard Raft. Election timeouts are NOT randomized — member
//     rank (index in the member list) staggers candidacy deterministically, so the same
//     seed always elects the same leader at the same simulated time.
//   * The leader's lease is refreshed by append acks: the lease is valid while a majority
//     of members (counting the leader) acked an append within the last `lease` window.
//     A follower refuses to vote while its own view of the lease is fresh, so a deposed
//     leader's lease provably expires before a successor can be elected — no two leaders
//     can both hold a valid lease, which is what lets the leader serve reads locally.
//   * The leader applies mutations to its serving table *eagerly* (it needs the produced
//     object indices to build replies) but releases the reply only when the log entry
//     commits on a majority — "no committed grant is ever lost" holds because a client
//     only ever observes committed state. If the leader is deposed with eagerly applied
//     but uncommitted entries, it marks itself tainted and rejoins via full snapshot.
//   * A snapshot blob the follower's table refuses (a buggy or hostile peer) is answered
//     with need_snapshot, never a crash: the follower stays tainted, counts the refusal
//     (repl.*.snapshots_refused) and does not stand for election until a good snapshot lands.
//   * A takeover leader commits a no-op barrier entry before serving (committing the whole
//     prefix it inherited), then re-issues revocation broadcasts for every object that is
//     invalidated but not yet erased — completing any revocation the dead leader started.
//
// With no group constructed (the default), no timer fires, no message is sent, and no
// byte of Controller state changes: replication is strictly pay-for-what-you-use.

#ifndef SRC_CORE_REPLICATION_H_
#define SRC_CORE_REPLICATION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cap/object_table.h"
#include "src/sim/intern.h"
#include "src/sim/span.h"
#include "src/sim/time.h"
#include "src/wire/message.h"

namespace fractos {

class Controller;
class EventLoop;

class ReplicationGroup {
 public:
  struct Params {
    Duration heartbeat = Duration::micros(500);        // append/heartbeat cadence
    Duration lease = Duration::millis(2);              // leader lease / follower patience
    // Extra candidacy delay per rank. Candidacy-by-silence is only checked at tick (=
    // heartbeat) granularity, so a stagger below one heartbeat puts adjacent ranks in the
    // same tick bucket: both stand at once, split the vote, and retry in lockstep forever.
    // SystemConfig::validate() rejects stagger < heartbeat for exactly this reason.
    Duration election_stagger = Duration::micros(500); // extra candidacy delay per rank
    Duration commit_deadline = Duration::millis(2);    // waiter gives up (entry may still commit)
    uint64_t snapshot_threshold = 4096;                // compact the applied prefix past this
  };

  enum class Role : uint8_t { kFollower = 0, kCandidate = 1, kLeader = 2 };

  // `members` must contain both `seat` (the initial leader) and the host's own address;
  // members[0] must be the seat. `seat_reboot` seeds the follower replica's reboot counter
  // so capabilities minted by the seat resolve as non-stale against the replica.
  ReplicationGroup(Controller* host, ControllerAddr seat, std::vector<ControllerAddr> members,
                   uint32_t seat_reboot, Params params);

  // Arms the tick timer and (on the seat) starts the term-1 leadership with a fresh lease.
  void start();
  // Cancels timers and fails every commit waiter with `waiter_status`.
  void stop(ErrorCode waiter_status);

  ControllerAddr seat() const { return seat_; }
  const std::vector<ControllerAddr>& members() const { return members_; }
  size_t quorum() const { return members_.size() / 2 + 1; }
  uint64_t term() const { return term_; }
  Role role() const { return role_; }
  ControllerAddr known_leader() const { return leader_; }
  bool is_leader() const { return role_ == Role::kLeader; }
  bool lease_valid() const;
  // Leader, lease fresh, and the takeover no-op barrier (if any) committed: safe to serve
  // both reads and mutations for the seat.
  bool can_serve() const;
  bool established() const { return established_; }
  bool tainted() const { return tainted_; }
  uint64_t commit_index() const { return commit_index_; }
  uint64_t applied_index() const { return applied_index_; }
  uint64_t last_index() const { return log_start_ + log_.size(); }

  // The state machine this member maintains for the seat: the host Controller's own table
  // when the member *is* the seat, the follower replica otherwise.
  ObjectTable& state();
  const ObjectTable& state() const;

  // Leader-side commit gate. The caller has already applied `op` to state() (eager apply);
  // this appends it to the log and calls `done` exactly once — kOk when the entry commits
  // on a majority, kNotLeader when this member cannot lead, kTimeout past commit_deadline
  // (the entry may still commit later: the classic unknown-outcome window).
  void replicate(ReplicatedOp op, std::function<void(ErrorCode)> done);

  // Message entry points (dispatched from Controller::on_peer_msg).
  void on_append(ControllerAddr from, const ReplAppendMsg& m);
  void on_append_reply(ControllerAddr from, const ReplAppendReplyMsg& m);
  void on_vote(ControllerAddr from, const ReplVoteMsg& m);
  void on_vote_reply(ControllerAddr from, const ReplVoteReplyMsg& m);
  void on_snapshot(ControllerAddr from, const ReplSnapshotMsg& m);

  // Channel to `peer` severed: drop its freshness; if it was the leader, expire the lease
  // and schedule a rank-staggered candidacy immediately instead of waiting out the lease.
  void on_peer_severed(ControllerAddr peer);

 private:
  struct Waiter {
    uint64_t index = 0;
    Time deadline;
    Time appended;
    SpanContext ctx;        // ambient trace at replicate() time, for the commit span
    std::function<void(ErrorCode)> done;
  };

  size_t rank_of_self() const;
  uint64_t term_of(uint64_t index) const;  // snapshot boundary and 0 handled
  void schedule_tick();
  void tick();
  void become_candidate();
  void become_leader();
  void step_down(uint64_t new_term);
  void send_appends();
  void send_append_to(ControllerAddr peer);
  void send_snapshot(ControllerAddr peer);
  void advance_commit();
  void apply_committed();
  void maybe_compact();
  void complete_waiters();
  void fail_waiters(ErrorCode code);
  template <typename M>
  void send(ControllerAddr peer, M msg);  // defined in replication.cc (only used there)
  EventLoop* loop() const;
  void bump(NameId key, int64_t delta = 1);

  Controller* host_;
  ControllerAddr seat_;
  ControllerAddr self_;
  std::vector<ControllerAddr> members_;
  Params params_;
  std::unique_ptr<ObjectTable> replica_;  // null when self_ == seat_

  Role role_ = Role::kFollower;
  uint64_t term_ = 1;
  ControllerAddr leader_ = 0;
  uint64_t voted_term_ = 0;
  ControllerAddr voted_for_ = 0;

  // log_[i] holds the entry at index log_start_ + i + 1; entries <= log_start_ are
  // compacted away (their effects live in the snapshot / applied state).
  std::vector<ReplLogEntry> log_;
  uint64_t log_start_ = 0;
  uint64_t snap_last_term_ = 0;
  uint64_t commit_index_ = 0;
  uint64_t applied_index_ = 0;
  bool established_ = false;  // this term's barrier entry committed
  bool tainted_ = false;      // eagerly applied entries lost leadership before committing
  bool snapshot_refused_ = false;  // the last snapshot was refused: the replica is empty

  // Leader bookkeeping.
  std::unordered_map<ControllerAddr, uint64_t> next_;
  std::unordered_map<ControllerAddr, uint64_t> match_;
  std::unordered_map<ControllerAddr, Time> last_ack_;
  uint64_t barrier_index_ = 0;  // index of this term's no-op barrier
  std::deque<Waiter> waiters_;

  // Follower / candidate bookkeeping.
  Time last_append_time_;
  Time last_candidacy_;
  std::unordered_set<ControllerAddr> votes_;
  Time candidacy_start_;
  uint64_t election_trace_ = 0;

  uint64_t epoch_ = 0;  // bumped by stop(); in-flight timers compare and bail
  bool running_ = false;

  struct Keys {
    NameId appends = kInvalidNameId;
    NameId commits = kInvalidNameId;
    NameId elections = kInvalidNameId;
    NameId snapshots_sent = kInvalidNameId;
    NameId snapshots_installed = kInvalidNameId;
    NameId snapshots_refused = kInvalidNameId;
    NameId divergence = kInvalidNameId;
    NameId term = kInvalidNameId;
  } keys_;
};

}  // namespace fractos

#endif  // SRC_CORE_REPLICATION_H_
