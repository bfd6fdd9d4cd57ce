// System: assembles a FractOS cluster — nodes, Controllers (host-CPU, SmartNIC, or shared
// remote placement), Processes — and provides failure injection and the trusted bootstrap
// actions of the operator / resource-management service.
//
// System also owns the simulation-level "directory" that stands in for distributed NIC rkey
// state: each node's RDMA authorizer resolves incoming rkeys against the owning Controller's
// object table at zero simulated cost, which models NICs whose protection state is programmed
// synchronously by their co-located Controller.

#ifndef SRC_CORE_SYSTEM_H_
#define SRC_CORE_SYSTEM_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/controller.h"
#include "src/core/process.h"
#include "src/fabric/fault_injector.h"
#include "src/sim/event_loop.h"

namespace fractos {

// Everything a System can be configured with. The Controller settings come from
// ControllerPolicy (src/core/controller.h); the fields below configure the cluster around them.
struct SystemConfig : ControllerPolicy {
  FabricParams fabric;
  // Fabric topology: single-switch (the calibrated flat default) or a ToR/spine fat tree
  // with per-port congestion modeling (src/fabric/topology.h).
  TopologySpec topology;
  // Deterministic fault injection: when set, the plan is installed into the Network before
  // any topology is built. Absent (the default) the fabric is clean and every fault-handling
  // code path stays dormant — recorded bench numbers are unaffected.
  std::optional<FaultPlan> faults;
  // Replicated control plane (DESIGN.md §4h): timing knobs applied by replicate_controller,
  // and the intended group size (0 = replication unused; checked against the node count by
  // validate()). No group is formed unless replicate_controller is called.
  ReplicationGroup::Params replication;
  uint32_t replication_group_size = 0;
  // Defer Controller peer channels to first use instead of eagerly meshing every pair.
  // The eager mesh is O(n^2) channels — prohibitive at 1000+ Controllers (the 1024-node
  // giant bench needs ~1M pairs eagerly, a few thousand lazily). Connecting costs no
  // simulated time. One semantic narrowing: revocation-cleanup broadcasts fan out only to
  // peers a channel exists to, so global message/step totals shrink by the skipped
  // broadcast legs (off the critical path: request latencies and results do not move —
  // pinned by LazyControllerMesh.PreservesWorkloadResults). A Controller that never
  // exchanged traffic can hold a reference only via bootstrap_grant, and its stale stub
  // surfaces at use exactly like an unreachable peer's. Incompatible with
  // replication_group_size > 0 (leader announcements rely on the full mesh).
  bool lazy_controller_mesh = false;

  // Cross-field consistency check, run by the System constructor (CHECK) and directly by
  // tests. Returns a description of the *first* inconsistency found — a zero quota, MTU or
  // bandwidth, a fault plan naming a switch the topology doesn't have, a dedup TTL shorter
  // than the op deadline it must outlive, a replication quorum larger than the cluster — or
  // std::nullopt when sound. Each message names the offending field.
  // `num_nodes` > 0 enables the checks that need the cluster size (the constructor runs
  // before nodes exist and passes 0, so callers that know the size should re-validate).
  std::optional<std::string> validate(uint32_t num_nodes = 0) const;
};

class System {
 public:
  // Heap pool size of a Process spawned without an explicit heap_bytes.
  static constexpr uint64_t kDefaultHeapBytes = 8ull << 20;

  explicit System(SystemConfig config = {});

  EventLoop& loop() { return loop_; }
  Network& net() { return *net_; }
  const SystemConfig& config() const { return config_; }

  // The installed fault injector, or nullptr on a clean fabric. Its counters are the
  // first-class record of what the plan actually did to the run.
  FaultInjector* fault_injector() { return net_->fault_injector(); }

  // --- topology ---------------------------------------------------------------------------------

  uint32_t add_node(const std::string& name, bool with_snic = true);

  // Deploys a Controller on `node`, on the host CPU or the SmartNIC. All Controllers are
  // fully meshed (Controller-to-Controller queue pairs, Section 4).
  Controller& add_controller(uint32_t node, Loc loc);

  // Spawns a Process on `node`, attached to `controller` (which may be on another node —
  // the "Shared HAL" deployment of Section 6.5).
  Process& spawn(const std::string& name, uint32_t node, Controller& controller,
                 uint64_t heap_bytes = 0);

  // --- trusted bootstrap -----------------------------------------------------------------------

  // Copies a capability held by `from` into `to`'s capability space — the operator's
  // resource-management service granting initial access at deployment time (no messages).
  Result<CapId> bootstrap_grant(Process& from, CapId cid, Process& to);

  // Replicates `seat`'s capability metadata across {seat} ∪ replicas (DESIGN.md §4h): the
  // seat leads, the replicas maintain follower state machines, and after the seat dies one
  // replica takes over serving its objects. Uses config().replication for timing. Must be
  // called before the workload starts mutating the seat's table.
  void replicate_controller(Controller& seat, const std::vector<Controller*>& replicas);

  // Arms Controller-side admission control for `p`'s request_invoke syscalls (see
  // Controller::set_admission_limit); 0 disarms it.
  void set_admission(Process& p, uint32_t limit);

  // --- failure injection ------------------------------------------------------------------------

  void fail_process(Process& p) { p.fail(); }
  void fail_controller(Controller& c) { c.fail(); }
  void restart_controller(Controller& c);
  // Node failure (detected by the external monitoring service, Section 3.6): every Process
  // and Controller on the node fails.
  void fail_node(uint32_t node);

  // --- test/bench helpers -----------------------------------------------------------------------

  // Runs the event loop until `f` is ready and returns its value. CHECK-fails if the loop
  // drains without resolving it (a deadlock in the modeled protocol).
  template <typename T>
  T await(Future<T> f) {
    const bool done = loop_.run_until([&f]() { return f.ready(); });
    FRACTOS_CHECK_MSG(done, "await: event loop drained before future resolved");
    return f.take();
  }
  // Convenience: await and CHECK-unwrap a Result.
  template <typename T>
  T await_ok(Future<Result<T>> f) {
    Result<T> r = await(std::move(f));
    FRACTOS_CHECK_MSG(r.ok(), error_code_name(r.error()));
    return std::move(r).value();
  }
  Status await_status(Future<Status> f) { return await(std::move(f)); }

  Controller* controller_by_addr(ControllerAddr addr);
  const std::vector<std::unique_ptr<Process>>& processes() const { return procs_; }
  std::vector<Controller*> controllers();

 private:
  SystemConfig config_;
  EventLoop loop_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<Controller>> controllers_;
  std::unordered_map<ControllerAddr, Controller*> by_addr_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::unordered_map<uint32_t, std::vector<Process*>> procs_by_node_;
  std::unordered_map<ProcessId, Controller*> proc_ctrl_;
  ControllerAddr next_ctrl_addr_ = 1;
  ProcessId next_pid_ = 1;

  void install_authorizer(uint32_t node);
  void mesh_controller(Controller& c);
  // Lazy-mesh hook body: two-sided connect of `self` toward `peer_addr` on first use.
  Channel* lazy_connect(Controller& self, ControllerAddr peer_addr);
};

}  // namespace fractos

#endif  // SRC_CORE_SYSTEM_H_
