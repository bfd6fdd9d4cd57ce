// Capability bootstrap service: a key/value store that Processes use to publish and discover
// capabilities by name ("a key/value store to bootstrap capabilities on new Processes",
// Section 4 — the paper notes this would typically be replaced by a resource manager).
//
// The KV store is itself an ordinary FractOS Process (dogfooding): put/get are Requests, and
// capability movement happens through regular delegation. Both endpoints take a NameImms and
// follow the call convention of src/core/service_call.h:
//
//   put endpoint:  caps = [capability to store, reply Request]. The reply is its status.
//   get endpoint:  caps = [reply Request]. reply: caps = [stored capability]; kNotFound for
//                  a name nothing was put under.

#ifndef SRC_CORE_BOOTSTRAP_H_
#define SRC_CORE_BOOTSTRAP_H_

#include <string>
#include <unordered_map>

#include "src/core/process.h"
#include "src/core/service_call.h"
#include "src/core/system.h"

namespace fractos {


class KvStore {
 public:
  // Spawns the service Process on `node`, attached to `controller`.
  KvStore(System* sys, uint32_t node, Controller& controller);

  Process& process() { return *proc_; }
  CapId put_endpoint() const { return put_ep_; }
  CapId get_endpoint() const { return get_ep_; }
  size_t size() const { return store_.size(); }

  // Grants a fresh Process the put/get endpoints (operator bootstrap action).
  struct Endpoints {
    CapId put = kInvalidCap;
    CapId get = kInvalidCap;
  };
  Endpoints grant_to(Process& p);

  // --- client helpers (run on the client Process) --------------------------------------------

  // Publishes client-held capability `cid` under `name`.
  static Future<Status> put(Process& client, CapId kv_put, const std::string& name, CapId cid);

  // Looks up `name`; resolves with a cid installed in the client's space.
  static Future<Result<CapId>> get(Process& client, CapId kv_get, const std::string& name);

 private:
  void handle_put(ServiceCall<NameImms> c);
  void handle_get(ServiceCall<NameImms> c);

  System* sys_;
  Process* proc_;
  CapId put_ep_ = kInvalidCap;
  CapId get_ep_ = kInvalidCap;
  std::unordered_map<std::string, CapId> store_;  // name -> cid in the KV Process's space
};

}  // namespace fractos

#endif  // SRC_CORE_BOOTSTRAP_H_
