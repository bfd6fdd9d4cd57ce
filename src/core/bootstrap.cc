#include "src/core/bootstrap.h"

#include <utility>

namespace fractos {

KvStore::KvStore(System* sys, uint32_t node, Controller& controller) : sys_(sys) {
  proc_ = &sys->spawn("kvstore", node, controller, 1 << 20);
  put_ep_ = sys->await_ok(proc_->serve(
      {}, serve_calls<NameImms>(*proc_, [this](auto c) { handle_put(std::move(c)); })));
  get_ep_ = sys->await_ok(proc_->serve(
      {}, serve_calls<NameImms>(*proc_, [this](auto c) { handle_get(std::move(c)); })));
}

KvStore::Endpoints KvStore::grant_to(Process& p) {
  Endpoints eps;
  eps.put = sys_->bootstrap_grant(*proc_, put_ep_, p).value();
  eps.get = sys_->bootstrap_grant(*proc_, get_ep_, p).value();
  return eps;
}

void KvStore::handle_put(ServiceCall<NameImms> c) {
  if (c.caps.size() != 1) {
    send_reply(*proc_, c.reply, ErrorCode::kInvalidArgument);
    return;
  }
  store_[c.args.name] = c.caps[0].cid;
  send_reply(*proc_, c.reply, ErrorCode::kOk);
}

void KvStore::handle_get(ServiceCall<NameImms> c) {
  auto it = store_.find(c.args.name);
  if (it == store_.end()) {
    send_reply(*proc_, c.reply, ErrorCode::kNotFound);
    return;
  }
  send_reply(*proc_, c.reply, ErrorCode::kOk, NoImms{}, {it->second});
}

Future<Status> KvStore::put(Process& client, CapId kv_put, const std::string& name, CapId cid) {
  return call(client, kv_put, NameImms{name}, {cid});
}

Future<Result<CapId>> KvStore::get(Process& client, CapId kv_get, const std::string& name) {
  return call<NoImms>(client, kv_get, NameImms{name}, {},
                      [](NoImms&&, const std::vector<DeliveredCap>& caps) -> Result<CapId> {
                        if (caps.empty()) {
                          return ErrorCode::kInternal;
                        }
                        return caps[0].cid;
                      });
}

}  // namespace fractos
