#include "src/baselines/nfs.h"

#include <utility>

#include "src/base/assert.h"
#include "src/wire/buffer.h"

namespace fractos {

namespace {
enum NfsOp : uint8_t {
  kOpen = 0,
  kRead = 1,
  kWrite = 2,
  kReply = 3,
};
}  // namespace

NfsServer::NfsServer(Network* net, uint32_t node, BlockDevice* device)
    : NfsServer(net, node, device, Params{}) {}

NfsServer::NfsServer(Network* net, uint32_t node, BlockDevice* device, Params params)
    : net_(net), node_(node), device_(device), params_(params) {}

Status NfsServer::create_file(const std::string& name, uint64_t size) {
  const uint64_t aligned = (size + 4095) & ~4095ull;
  if (files_.contains(name) || next_base_ + aligned > device_->capacity()) {
    return ErrorCode::kAlreadyExists;
  }
  files_[name] = File{next_base_, size};
  next_base_ += aligned;
  return ok_status();
}

QueuePair& NfsServer::accept(Endpoint client_ep) {
  (void)client_ep;
  connections_.push_back(std::make_unique<QueuePair>(net_, Endpoint{node_, Loc::kHost}));
  QueuePair* qp = connections_.back().get();
  qp->set_receive_handler([this, qp](Payload bytes) { on_rpc(qp, bytes); });
  return *qp;
}

void NfsServer::on_rpc(QueuePair* qp, const Payload& bytes) {
  Decoder d(bytes.bytes());
  const uint8_t op = d.get_u8();
  const uint64_t seq = d.get_u64();
  auto respond = [qp, seq](uint8_t status, std::span<const uint8_t> payload, Traffic cat) {
    Encoder e;
    e.put_u8(kReply);
    e.put_u64(seq);
    e.put_u8(status);
    e.put_bytes(payload);
    qp->send(cat, e.take());
  };
  ExecContext& cpu = net_->node(node_).host();

  switch (op) {
    case kOpen: {
      const std::string name = d.get_string();
      cpu.run(params_.rpc_cost, [this, name, respond]() {
        auto it = files_.find(name);
        if (it == files_.end()) {
          respond(1, {}, Traffic::kControl);
          return;
        }
        const uint64_t fh = next_handle_++;
        handles_[fh] = it->second;
        Encoder e;
        e.put_u64(fh);
        e.put_u64(it->second.size);
        respond(0, e.take(), Traffic::kControl);
      });
      break;
    }
    case kRead: {
      const uint64_t fh = d.get_u64();
      const uint64_t off = d.get_u64();
      const uint64_t size = d.get_u64();
      cpu.run(params_.rpc_cost, [this, fh, off, size, respond]() {
        auto it = handles_.find(fh);
        if (it == handles_.end() || off + size > it->second.size) {
          respond(1, {}, Traffic::kControl);
          return;
        }
        device_->read(it->second.base + off, size, [respond](Result<Payload> r) {
          if (!r.ok()) {
            respond(1, {}, Traffic::kControl);
            return;
          }
          respond(0, r.value().bytes(), Traffic::kData);
        });
      });
      break;
    }
    case kWrite: {
      const uint64_t fh = d.get_u64();
      const uint64_t off = d.get_u64();
      std::vector<uint8_t> data = d.get_bytes();
      cpu.run(params_.rpc_cost, [this, fh, off, data = std::move(data), respond]() mutable {
        auto it = handles_.find(fh);
        if (it == handles_.end() || off + data.size() > it->second.size) {
          respond(1, {}, Traffic::kControl);
          return;
        }
        device_->write(it->second.base + off, std::move(data), [respond](Status s) {
          respond(s.ok() ? 0 : 1, {}, Traffic::kControl);
        });
      });
      break;
    }
    default:
      FRACTOS_CHECK_MSG(false, "unknown NFS rpc");
  }
}

NfsClient::NfsClient(Network* net, uint32_t node, NfsServer* server)
    : net_(net), qp_(net, Endpoint{node, Loc::kHost}) {
  QueuePair& remote = server->accept(qp_.local());
  QueuePair::connect(qp_, remote);
  qp_.set_receive_handler([this](Payload bytes) { on_reply(bytes); });
}

Future<Result<std::vector<uint8_t>>> NfsClient::call(std::vector<uint8_t> request,
                                                     Traffic category) {
  const uint64_t seq = next_seq_++;
  Promise<Result<std::vector<uint8_t>>> promise;
  pending_.emplace(seq, promise);
  qp_.send(category, std::move(request));
  return promise.future();
}

void NfsClient::on_reply(const Payload& bytes) {
  Decoder d(bytes.bytes());
  const uint8_t op = d.get_u8();
  const uint64_t seq = d.get_u64();
  const uint8_t status = d.get_u8();
  std::vector<uint8_t> payload = d.get_bytes();
  FRACTOS_CHECK(d.ok() && op == kReply);
  auto it = pending_.find(seq);
  FRACTOS_CHECK(it != pending_.end());
  auto promise = it->second;
  pending_.erase(it);
  if (status != 0) {
    promise.set(ErrorCode::kInternal);
  } else {
    promise.set(std::move(payload));
  }
}

Future<Result<NfsClient::FileHandle>> NfsClient::open(const std::string& name) {
  Encoder e;
  e.put_u8(kOpen);
  e.put_u64(next_seq_);
  e.put_string(name);
  return call(e.take(), Traffic::kControl)
      .then([](Result<std::vector<uint8_t>>&& r) -> Result<FileHandle> {
        if (!r.ok()) {
          return r.error();
        }
        Decoder d(r.value());
        FileHandle f;
        f.fh = d.get_u64();
        f.size = d.get_u64();
        return f;
      });
}

Future<Result<std::vector<uint8_t>>> NfsClient::read(const FileHandle& f, uint64_t off,
                                                     uint64_t size) {
  Encoder e;
  e.put_u8(kRead);
  e.put_u64(next_seq_);
  e.put_u64(f.fh);
  e.put_u64(off);
  e.put_u64(size);
  return call(e.take(), Traffic::kControl);
}

Future<Status> NfsClient::write(const FileHandle& f, uint64_t off, std::vector<uint8_t> data) {
  Encoder e;
  e.put_u8(kWrite);
  e.put_u64(next_seq_);
  e.put_u64(f.fh);
  e.put_u64(off);
  e.put_bytes(data);
  return call(e.take(), Traffic::kData).then([](Result<std::vector<uint8_t>>&& r) -> Status {
    return r.ok() ? ok_status() : Status(r.error());
  });
}

}  // namespace fractos
