#include "src/core/replication.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/base/assert.h"
#include "src/core/controller.h"
#include "src/sim/event_loop.h"
#include "src/sim/metrics.h"

namespace fractos {

namespace {
constexpr size_t kMaxEntriesPerAppend = 64;
}  // namespace

ReplicationGroup::ReplicationGroup(Controller* host, ControllerAddr seat,
                                   std::vector<ControllerAddr> members, uint32_t seat_reboot,
                                   Params params)
    : host_(host),
      seat_(seat),
      self_(host->addr()),
      members_(std::move(members)),
      params_(params) {
  FRACTOS_CHECK_MSG(!members_.empty() && members_.front() == seat_,
                    "replication group: members[0] must be the seat");
  FRACTOS_CHECK_MSG(std::find(members_.begin(), members_.end(), self_) != members_.end(),
                    "replication group: host is not a member");
  if (self_ != seat_) {
    replica_ = std::make_unique<ObjectTable>(seat_, seat_reboot);
  }
  const std::string prefix =
      "repl." + interned_name(host_->name_id_) + ".s" + std::to_string(seat_) + ".";
  keys_.appends = intern_name(prefix + "appends");
  keys_.commits = intern_name(prefix + "commits");
  keys_.elections = intern_name(prefix + "elections");
  keys_.snapshots_sent = intern_name(prefix + "snapshots_sent");
  keys_.snapshots_installed = intern_name(prefix + "snapshots_installed");
  keys_.snapshots_refused = intern_name(prefix + "snapshots_refused");
  keys_.divergence = intern_name(prefix + "divergence");
  keys_.term = intern_name(prefix + "term");
}

ObjectTable& ReplicationGroup::state() {
  return self_ == seat_ ? host_->table_ : *replica_;
}

const ObjectTable& ReplicationGroup::state() const {
  return self_ == seat_ ? host_->table_ : *replica_;
}

EventLoop* ReplicationGroup::loop() const { return host_->net_->loop(); }

void ReplicationGroup::bump(NameId key, int64_t delta) {
  if (MetricsRegistry* m = loop()->metrics()) {
    m->add(key, delta);
  }
}

template <typename M>
void ReplicationGroup::send(ControllerAddr peer, M msg) {
  host_->links_.send(peer, make_envelope(host_->next_seq_++, std::move(msg)));
}

size_t ReplicationGroup::rank_of_self() const {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == self_) {
      return i;
    }
  }
  return members_.size();
}

uint64_t ReplicationGroup::term_of(uint64_t index) const {
  if (index == 0) {
    return 0;
  }
  if (index == log_start_) {
    return snap_last_term_;
  }
  if (index > log_start_ && index <= last_index()) {
    return log_[index - log_start_ - 1].term;
  }
  return 0;
}

void ReplicationGroup::start() {
  running_ = true;
  term_ = 1;
  leader_ = seat_;
  voted_term_ = 1;
  voted_for_ = seat_;
  const Time now = loop()->now();
  last_append_time_ = now;
  last_candidacy_ = now;
  if (self_ == seat_) {
    // Term-1 leadership is conferred by configuration (System wires the group up on every
    // member synchronously), so the lease starts fresh without an election round.
    role_ = Role::kLeader;
    established_ = true;
    for (ControllerAddr m : members_) {
      next_[m] = 1;
      match_[m] = 0;
      last_ack_[m] = now;
    }
    if (state().total_count() > 0 || state().reboot_count() > 1) {
      // The seat already owns objects that predate the log: bring followers to the current
      // state via snapshot so index assignment stays aligned from the first logged op.
      for (ControllerAddr m : members_) {
        if (m != self_) {
          send_snapshot(m);
        }
      }
    }
  } else {
    role_ = Role::kFollower;
  }
  if (MetricsRegistry* m = loop()->metrics()) {
    m->set(keys_.term, static_cast<int64_t>(term_));
  }
  schedule_tick();
}

void ReplicationGroup::stop(ErrorCode waiter_status) {
  running_ = false;
  ++epoch_;
  fail_waiters(waiter_status);
}

bool ReplicationGroup::lease_valid() const {
  if (role_ != Role::kLeader) {
    return false;
  }
  const Time now = loop()->now();
  size_t fresh = 0;
  for (ControllerAddr m : members_) {
    if (m == self_) {
      ++fresh;
      continue;
    }
    auto it = last_ack_.find(m);
    if (it != last_ack_.end() && now - it->second <= params_.lease) {
      ++fresh;
    }
  }
  return fresh >= quorum();
}

bool ReplicationGroup::can_serve() const {
  return running_ && role_ == Role::kLeader && established_ && lease_valid();
}

void ReplicationGroup::schedule_tick() {
  loop()->schedule_after(params_.heartbeat, [this, epoch = epoch_]() {
    if (epoch != epoch_ || !running_ || host_->failed_) {
      return;
    }
    tick();
    schedule_tick();
  });
}

void ReplicationGroup::tick() {
  const Time now = loop()->now();
  if (role_ == Role::kLeader) {
    send_appends();
    // Give up on waiters past the commit deadline. The entry stays in the log and may still
    // commit — the client sees kTimeout and must treat the outcome as unknown.
    while (!waiters_.empty() && waiters_.front().index > commit_index_ &&
           waiters_.front().deadline <= now) {
      Waiter w = std::move(waiters_.front());
      waiters_.pop_front();
      w.done(ErrorCode::kTimeout);
    }
    return;
  }
  // Follower / candidate: stand for election once the leader has been silent for the lease
  // plus this member's deterministic rank stagger. The retry period is rank-staggered too:
  // if a round ever does split (ranks tied after a snapshot reshuffle, say), the retries
  // de-phase instead of colliding at the same tick forever.
  const Duration stagger =
      Duration::nanos(params_.election_stagger.ns() * static_cast<int64_t>(rank_of_self()));
  if (!snapshot_refused_ && now - last_append_time_ >= params_.lease + stagger &&
      now - last_candidacy_ >= params_.lease + stagger) {
    become_candidate();
  }
}

void ReplicationGroup::become_candidate() {
  const Time now = loop()->now();
  role_ = Role::kCandidate;
  ++term_;
  voted_term_ = term_;
  voted_for_ = self_;
  votes_.clear();
  votes_.insert(self_);
  candidacy_start_ = now;
  last_candidacy_ = now;
  established_ = false;
  if (MetricsRegistry* m = loop()->metrics()) {
    m->set(keys_.term, static_cast<int64_t>(term_));
  }
  SpanTracer* tracer = loop()->span_tracer();
  if (span_tracing_active() && tracer != nullptr && election_trace_ == 0) {
    static const NameId kElection = intern_name("repl-election");
    election_trace_ = tracer->start_trace(host_->name_id_, kElection, now);
  }
  ReplVoteMsg v;
  v.seat = seat_;
  v.candidate = self_;
  v.term = term_;
  v.last_log_index = last_index();
  v.last_log_term = term_of(last_index());
  for (ControllerAddr m : members_) {
    if (m != self_) {
      send(m, v);
    }
  }
  if (votes_.size() >= quorum()) {
    become_leader();
  }
}

void ReplicationGroup::become_leader() {
  const Time now = loop()->now();
  role_ = Role::kLeader;
  leader_ = self_;
  established_ = false;
  next_.clear();
  match_.clear();
  last_ack_.clear();
  for (ControllerAddr m : members_) {
    next_[m] = last_index() + 1;
    match_[m] = 0;
  }
  // Every granted vote doubles as an append-freshness proof: the voter just promised this
  // term, so the lease starts valid without waiting for the first heartbeat round.
  last_ack_[self_] = now;
  for (ControllerAddr v : votes_) {
    last_ack_[v] = now;
  }
  bump(keys_.elections);
  // No-op barrier: committing it commits the entire inherited prefix (Raft's current-term
  // commit rule) and is the gate for serving the seat.
  ReplLogEntry barrier;
  barrier.index = last_index() + 1;
  barrier.term = term_;
  barrier.op.kind = ReplicatedOp::Kind::kNoop;
  barrier_index_ = barrier.index;
  log_.push_back(std::move(barrier));
  SpanTracer* tracer = loop()->span_tracer();
  if (election_trace_ != 0 && tracer != nullptr) {
    SpanScope scope(tracer->context_of(election_trace_));
    static const NameId kElected = intern_name("repl-election");
    tracer->record(host_->name_id_, SpanKind::kReplication, kElected, candidacy_start_, now);
    tracer->end(election_trace_, now);
    election_trace_ = 0;
  }
  host_->note_seat_leader(seat_, self_, term_);
  if (quorum() == 1) {
    advance_commit();
  }
  send_appends();
}

void ReplicationGroup::step_down(uint64_t new_term) {
  if (role_ == Role::kLeader && applied_index_ > commit_index_) {
    // Eagerly applied entries may never commit under the new leader: this state machine can
    // only rejoin via full snapshot.
    tainted_ = true;
  }
  SpanTracer* tracer = loop()->span_tracer();
  if (election_trace_ != 0 && tracer != nullptr) {
    tracer->end_error(election_trace_, loop()->now(), "deposed");
    election_trace_ = 0;
  }
  role_ = Role::kFollower;
  established_ = false;
  if (new_term > term_) {
    term_ = new_term;
    if (MetricsRegistry* m = loop()->metrics()) {
      m->set(keys_.term, static_cast<int64_t>(term_));
    }
  }
  fail_waiters(ErrorCode::kNotLeader);
}

void ReplicationGroup::replicate(ReplicatedOp op, std::function<void(ErrorCode)> done) {
  if (!can_serve()) {
    done(ErrorCode::kNotLeader);
    return;
  }
  const Time now = loop()->now();
  const uint64_t index = last_index() + 1;
  // The caller applied the op to state() before calling us (eager apply), so the applied
  // cursor tracks the log tip exactly on a serving leader.
  FRACTOS_DCHECK(applied_index_ + 1 == index);
  ReplLogEntry e;
  e.index = index;
  e.term = term_;
  e.op = std::move(op);
  log_.push_back(std::move(e));
  applied_index_ = index;
  bump(keys_.appends);
  Waiter w;
  w.index = index;
  w.deadline = now + params_.commit_deadline;
  w.appended = now;
  w.ctx = ambient_span_context();
  w.done = std::move(done);
  waiters_.push_back(std::move(w));
  if (quorum() == 1) {
    advance_commit();
  } else {
    send_appends();
  }
}

void ReplicationGroup::send_appends() {
  for (ControllerAddr m : members_) {
    if (m != self_) {
      send_append_to(m);
    }
  }
  last_ack_[self_] = loop()->now();
}

void ReplicationGroup::send_append_to(ControllerAddr peer) {
  if (next_[peer] <= log_start_) {
    send_snapshot(peer);
    return;
  }
  ReplAppendMsg m;
  m.seat = seat_;
  m.leader = self_;
  m.term = term_;
  m.prev_index = next_[peer] - 1;
  m.prev_term = term_of(m.prev_index);
  m.commit_index = commit_index_;
  for (uint64_t i = next_[peer]; i <= last_index() && m.entries.size() < kMaxEntriesPerAppend;
       ++i) {
    m.entries.push_back(log_[i - log_start_ - 1]);
  }
  send(peer, std::move(m));
}

void ReplicationGroup::send_snapshot(ControllerAddr peer) {
  if (applied_index_ != commit_index_) {
    // The serving table holds eagerly applied, not-yet-committed entries; snapshotting now
    // would leak them to a follower as committed state. Retry once the pipeline drains.
    next_[peer] = 0;
    return;
  }
  ReplSnapshotMsg m;
  m.seat = seat_;
  m.leader = self_;
  m.term = term_;
  m.last_index = applied_index_;
  m.last_term = term_of(applied_index_);
  m.blob = state().serialize_snapshot();
  next_[peer] = applied_index_ + 1;
  bump(keys_.snapshots_sent);
  send(peer, std::move(m));
}

void ReplicationGroup::on_append(ControllerAddr from, const ReplAppendMsg& m) {
  if (!running_) {
    return;
  }
  ReplAppendReplyMsg r;
  r.seat = seat_;
  r.from = self_;
  if (m.term < term_) {
    r.term = term_;
    r.ok = false;
    r.match_index = 0;
    send(from, r);
    return;
  }
  if (m.term > term_ || role_ != Role::kFollower) {
    FRACTOS_CHECK_MSG(!(role_ == Role::kLeader && m.term == term_),
                      "replication: two leaders share a term");
    step_down(m.term);
  }
  term_ = m.term;
  leader_ = m.leader;
  last_append_time_ = loop()->now();
  r.term = term_;
  if (tainted_) {
    r.ok = false;
    r.match_index = 0;
    r.need_snapshot = true;
    send(from, r);
    return;
  }
  if (m.prev_index > last_index()) {
    r.ok = false;
    r.match_index = last_index();
    send(from, r);
    return;
  }
  if (m.prev_index > log_start_ && term_of(m.prev_index) != m.prev_term) {
    FRACTOS_DCHECK(m.prev_index > applied_index_);  // committed entries never conflict
    log_.resize(m.prev_index - 1 - log_start_);
    r.ok = false;
    r.match_index = last_index();
    send(from, r);
    return;
  }
  for (const ReplLogEntry& e : m.entries) {
    if (e.index <= log_start_) {
      continue;  // already covered by our snapshot
    }
    if (e.index <= last_index()) {
      if (term_of(e.index) == e.term) {
        continue;  // duplicate of an entry we hold
      }
      FRACTOS_DCHECK(e.index > applied_index_);
      log_.resize(e.index - 1 - log_start_);  // conflicting suffix from a dead term
    }
    FRACTOS_DCHECK(e.index == last_index() + 1);
    log_.push_back(e);
  }
  if (m.commit_index > commit_index_) {
    const uint64_t next_commit = std::min(m.commit_index, last_index());
    if (next_commit > commit_index_) {
      bump(keys_.commits, static_cast<int64_t>(next_commit - commit_index_));
      commit_index_ = next_commit;
      apply_committed();
    }
  }
  r.ok = true;
  r.match_index = m.prev_index + m.entries.size();
  send(from, r);
}

void ReplicationGroup::on_append_reply(ControllerAddr from, const ReplAppendReplyMsg& m) {
  if (!running_) {
    return;
  }
  if (m.term > term_) {
    step_down(m.term);
    return;
  }
  if (role_ != Role::kLeader || m.term != term_) {
    return;
  }
  last_ack_[from] = loop()->now();
  if (m.ok) {
    match_[from] = std::max(match_[from], m.match_index);
    next_[from] = std::max(next_[from], match_[from] + 1);
    advance_commit();
    if (next_[from] <= last_index()) {
      send_append_to(from);  // keep streaming until the follower is caught up
    }
    return;
  }
  if (m.need_snapshot) {
    send_snapshot(from);
    return;
  }
  next_[from] = std::min(next_[from], m.match_index + 1);
  if (next_[from] == 0) {
    next_[from] = 1;
  }
  send_append_to(from);
}

void ReplicationGroup::on_vote(ControllerAddr from, const ReplVoteMsg& m) {
  if (!running_) {
    return;
  }
  ReplVoteReplyMsg r;
  r.seat = seat_;
  r.from = self_;
  if (m.term < term_) {
    r.term = term_;
    r.granted = false;
    send(from, r);
    return;
  }
  if (m.term > term_) {
    if (role_ == Role::kLeader && lease_valid()) {
      // Lease protection: a live, majority-fresh leader ignores disruptive candidacies.
      r.term = term_;
      r.granted = false;
      send(from, r);
      return;
    }
    step_down(m.term);
    term_ = m.term;
  }
  const Time now = loop()->now();
  const bool leaderless = leader_ == 0;
  const bool lease_expired = leaderless || now - last_append_time_ >= params_.lease;
  const uint64_t my_last = last_index();
  const uint64_t my_last_term = term_of(my_last);
  const bool up_to_date = m.last_log_term > my_last_term ||
                          (m.last_log_term == my_last_term && m.last_log_index >= my_last);
  const bool can_vote =
      voted_term_ < term_ || (voted_term_ == term_ && voted_for_ == m.candidate);
  r.term = term_;
  r.granted = role_ != Role::kLeader && can_vote && up_to_date && lease_expired;
  if (r.granted) {
    voted_term_ = term_;
    voted_for_ = m.candidate;
    last_candidacy_ = now;  // defer our own candidacy a full lease window
  }
  send(from, r);
}

void ReplicationGroup::on_vote_reply(ControllerAddr from, const ReplVoteReplyMsg& m) {
  if (!running_) {
    return;
  }
  if (m.term > term_) {
    step_down(m.term);
    return;
  }
  if (role_ != Role::kCandidate || m.term != term_ || !m.granted) {
    return;
  }
  votes_.insert(from);
  if (votes_.size() >= quorum()) {
    become_leader();
  }
}

void ReplicationGroup::on_snapshot(ControllerAddr from, const ReplSnapshotMsg& m) {
  if (!running_) {
    return;
  }
  if (m.term < term_) {
    ReplAppendReplyMsg r;
    r.seat = seat_;
    r.from = self_;
    r.term = term_;
    r.ok = false;
    send(from, r);
    return;
  }
  if (m.term > term_ || role_ != Role::kFollower) {
    step_down(m.term);
  }
  term_ = m.term;
  leader_ = m.leader;
  last_append_time_ = loop()->now();
  if (!state().restore_snapshot(m.blob).ok()) {
    // A blob the table refuses comes from a peer with a bug, or a hostile one; it must not
    // take this Controller down. restore_snapshot left the replica empty, so this member
    // stays tainted (every append is answered with need_snapshot) and does not stand for
    // election until a good snapshot replaces the table.
    tainted_ = true;
    snapshot_refused_ = true;
    bump(keys_.snapshots_refused);
    ReplAppendReplyMsg r;
    r.seat = seat_;
    r.from = self_;
    r.term = term_;
    r.ok = false;
    r.need_snapshot = true;
    send(from, r);
    return;
  }
  log_.clear();
  log_start_ = m.last_index;
  snap_last_term_ = m.last_term;
  commit_index_ = m.last_index;
  applied_index_ = m.last_index;
  tainted_ = false;
  snapshot_refused_ = false;
  bump(keys_.snapshots_installed);
  ReplAppendReplyMsg r;
  r.seat = seat_;
  r.from = self_;
  r.term = term_;
  r.ok = true;
  r.match_index = m.last_index;
  send(from, r);
}

void ReplicationGroup::on_peer_severed(ControllerAddr peer) {
  if (!running_) {
    return;
  }
  last_ack_.erase(peer);
  if (std::find(members_.begin(), members_.end(), peer) == members_.end()) {
    return;
  }
  if (role_ != Role::kLeader && peer == leader_) {
    // Hard evidence the leader is gone: skip the lease wait and stand for election after a
    // deterministic rank-staggered delay (so the same member wins on every same-seed run).
    leader_ = 0;
    last_append_time_ = Time{};
    const Duration delay = Duration::nanos(params_.election_stagger.ns() *
                                           static_cast<int64_t>(rank_of_self()));
    loop()->schedule_after(delay, [this, epoch = epoch_, t = term_]() {
      if (epoch != epoch_ || !running_ || host_->failed_) {
        return;
      }
      if (role_ == Role::kFollower && term_ == t && leader_ == 0) {
        become_candidate();
      }
    });
  }
}

void ReplicationGroup::advance_commit() {
  std::vector<uint64_t> matches;
  matches.reserve(members_.size());
  for (ControllerAddr m : members_) {
    matches.push_back(m == self_ ? last_index() : match_[m]);
  }
  std::sort(matches.begin(), matches.end(), std::greater<uint64_t>());
  const uint64_t cand = matches[quorum() - 1];
  if (cand > commit_index_ && term_of(cand) == term_) {
    bump(keys_.commits, static_cast<int64_t>(cand - commit_index_));
    commit_index_ = cand;
    apply_committed();
    complete_waiters();
    send_appends();  // propagate the new commit index promptly
  }
}

void ReplicationGroup::apply_committed() {
  while (applied_index_ < commit_index_) {
    const ReplLogEntry& e = log_.at(applied_index_ - log_start_);
    FRACTOS_DCHECK(e.index == applied_index_ + 1);
    ++applied_index_;
    if (e.op.kind != ReplicatedOp::Kind::kNoop) {
      const ObjectTable::ApplyOutcome out = state().apply(e.op);
      if (out.diverged) {
        bump(keys_.divergence);
      }
    }
  }
  if (role_ == Role::kLeader && !established_ && barrier_index_ != 0 &&
      commit_index_ >= barrier_index_ && term_of(barrier_index_) == term_) {
    established_ = true;
    host_->on_seat_established(seat_);
  }
  maybe_compact();
}

void ReplicationGroup::maybe_compact() {
  const uint64_t upto = std::min(applied_index_, commit_index_);
  if (upto - log_start_ <= params_.snapshot_threshold) {
    return;
  }
  snap_last_term_ = term_of(upto);
  log_.erase(log_.begin(), log_.begin() + static_cast<int64_t>(upto - log_start_));
  log_start_ = upto;
}

void ReplicationGroup::complete_waiters() {
  const Time now = loop()->now();
  SpanTracer* tracer = loop()->span_tracer();
  while (!waiters_.empty() && waiters_.front().index <= commit_index_) {
    Waiter w = std::move(waiters_.front());
    waiters_.pop_front();
    if (span_tracing_active() && tracer != nullptr && w.ctx.valid()) {
      SpanScope scope(w.ctx);
      static const NameId kCommit = intern_name("repl-commit");
      tracer->record(host_->name_id_, SpanKind::kReplication, kCommit, w.appended, now);
    }
    w.done(ErrorCode::kOk);
  }
}

void ReplicationGroup::fail_waiters(ErrorCode code) {
  std::deque<Waiter> failed;
  failed.swap(waiters_);
  for (Waiter& w : failed) {
    w.done(code);
  }
}

}  // namespace fractos
