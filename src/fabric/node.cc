#include "src/fabric/node.h"

#include <utility>

#include "src/base/extent.h"

namespace fractos {

Node::Node(EventLoop* loop, uint32_t id, std::string name, bool with_snic)
    : id_(id), name_(std::move(name)), host_(loop, name_ + "/host") {
  if (with_snic) {
    snic_ = std::make_unique<ExecContext>(loop, name_ + "/snic");
  }
}

PoolId Node::add_pool(uint64_t size) {
  // Sized construction (not fill-construction) so PoolAlloc's no-op value-init applies and
  // the mapped pages stay untouched.
  pools_.emplace_back(size);
  return static_cast<PoolId>(pools_.size() - 1);
}

PoolBytes& Node::pool(PoolId id) {
  FRACTOS_CHECK(id < pools_.size());
  return pools_[id];
}

const PoolBytes& Node::pool(PoolId id) const {
  FRACTOS_CHECK(id < pools_.size());
  return pools_[id];
}

Status Node::check_extent(PoolId pool, uint64_t addr, uint64_t size) const {
  if (pool >= pools_.size()) {
    return ErrorCode::kNotFound;
  }
  const uint64_t pool_size = pools_[pool].size();
  if (!extent_within(addr, size, pool_size)) {
    return ErrorCode::kOutOfRange;
  }
  return ok_status();
}

Status Node::authorize_rdma(const RdmaKey& key, PoolId pool, uint64_t addr, uint64_t size,
                            bool is_write) const {
  if (failed_) {
    return ErrorCode::kChannelClosed;
  }
  if (Status s = check_extent(pool, addr, size); !s.ok()) {
    return s;
  }
  if (authorizer_ != nullptr) {
    return authorizer_(key, pool, addr, size, is_write);
  }
  return ok_status();
}

}  // namespace fractos
