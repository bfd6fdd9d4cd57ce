#include "src/baselines/nfs.h"

#include <utility>

namespace fractos {

namespace {
enum NfsOp : uint8_t {
  kOpen = 0,
  kRead = 1,
  kWrite = 2,
  kReply = 3,
};

struct OpenArgs {
  std::string name;
  FRACTOS_WIRE_FIELDS(name)
};
struct ReadArgs {
  uint64_t fh = 0;
  uint64_t off = 0;
  uint64_t size = 0;
  FRACTOS_WIRE_FIELDS(fh, off, size)
};
struct WriteArgs {
  uint64_t fh = 0;
  uint64_t off = 0;
  std::vector<uint8_t> data;
  FRACTOS_WIRE_FIELDS(fh, off, data)
};
}  // namespace

NfsServer::NfsServer(Network* net, uint32_t node, BlockDevice* device)
    : NfsServer(net, node, device, Params{}) {}

NfsServer::NfsServer(Network* net, uint32_t node, BlockDevice* device, Params params)
    : node_(node),
      cpu_(net->node(node).host()),
      device_(device),
      params_(params),
      space_(device->capacity()),
      rpc_(net, Endpoint{node, Loc::kHost}, kReply) {
  using Reply = RpcServer::Reply;
  rpc_.on<OpenArgs>(kOpen, [this](OpenArgs a, Reply reply) {
    cpu_.run(params_.rpc_cost, [this, name = std::move(a.name), reply]() {
      auto it = files_.find(name);
      if (it == files_.end()) {
        reply.status(ErrorCode::kNotFound);
        return;
      }
      const uint64_t fh = next_handle_++;
      handles_[fh] = it->second;
      reply.ok(NfsClient::FileHandle{fh, it->second.size});
    });
  });
  rpc_.on<ReadArgs>(kRead, [this](ReadArgs a, Reply reply) {
    cpu_.run(params_.rpc_cost, [this, a, reply]() {
      const Result<uint64_t> at = locate(a.fh, a.off, a.size);
      if (!at.ok()) {
        reply.status(at.error());
        return;
      }
      device_->read(at.value(), a.size, [reply](Result<Payload> r) {
        if (!r.ok()) {
          reply.status(r.error());
          return;
        }
        reply.send(Traffic::kData, ErrorCode::kOk, r.value().bytes());
      });
    });
  });
  rpc_.on<WriteArgs>(kWrite, [this](WriteArgs a, Reply reply) {
    cpu_.run(params_.rpc_cost, [this, a = std::move(a), reply]() mutable {
      const Result<uint64_t> at = locate(a.fh, a.off, a.data.size());
      if (!at.ok()) {
        reply.status(at.error());
        return;
      }
      device_->write(at.value(), std::move(a.data), [reply](Status s) {
        reply.status(s.error());
      });
    });
  });
}

Status NfsServer::create_file(const std::string& name, uint64_t size) {
  if (files_.contains(name)) {
    return ErrorCode::kAlreadyExists;
  }
  if (size == 0) {
    return ErrorCode::kInvalidArgument;
  }
  const std::optional<uint64_t> base = space_.allocate(size, 4096);
  if (!base.has_value()) {
    return ErrorCode::kResourceExhausted;
  }
  files_[name] = File{*base, size};
  return ok_status();
}

Result<uint64_t> NfsServer::locate(uint64_t fh, uint64_t off, uint64_t size) const {
  auto it = handles_.find(fh);
  if (it == handles_.end()) {
    return ErrorCode::kNotFound;
  }
  if (!extent_within(off, size, it->second.size)) {
    return ErrorCode::kOutOfRange;
  }
  return it->second.base + off;
}

NfsClient::NfsClient(Network* net, uint32_t node, NfsServer* server)
    : rpc_(net, Endpoint{node, Loc::kHost}, server->rpc()) {}

Future<Result<NfsClient::FileHandle>> NfsClient::open(const std::string& name) {
  return rpc_.call<FileHandle>(kOpen, OpenArgs{name}, Traffic::kControl);
}

Future<Result<std::vector<uint8_t>>> NfsClient::read(const FileHandle& f, uint64_t off,
                                                     uint64_t size) {
  return rpc_.call<std::vector<uint8_t>>(kRead, ReadArgs{f.fh, off, size}, Traffic::kControl);
}

Future<Status> NfsClient::write(const FileHandle& f, uint64_t off, std::vector<uint8_t> data) {
  return rpc_.call(kWrite, WriteArgs{f.fh, off, std::move(data)}, Traffic::kData);
}

}  // namespace fractos
