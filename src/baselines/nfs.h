// NFS-style remote file access: the frontend-to-file-server leg of the paper's end-to-end
// baseline (Section 6.5: "a frontend node that fetches files from a remote ext4 file system
// via NFS. The file system is backed by NVMe-over-Fabrics storage").
//
// The server keeps a flat extent table ("ext4") over any BlockDevice — in the baseline
// composition that device is an NVMe-oF initiator wrapped in a PageCache, giving the kernel
// cache behaviour of the real stack. Each client call is one network round trip; file data
// rides the reply/request.

#ifndef SRC_BASELINES_NFS_H_
#define SRC_BASELINES_NFS_H_

#include <string>
#include <unordered_map>

#include "src/base/extent.h"
#include "src/baselines/block_device.h"
#include "src/baselines/rpc.h"

namespace fractos {

class NfsServer {
 public:
  struct Params {
    // Per-RPC server-side processing (VFS + NFS daemon).
    Duration rpc_cost = Duration::micros(4.0);
  };

  NfsServer(Network* net, uint32_t node, BlockDevice* device);
  NfsServer(Network* net, uint32_t node, BlockDevice* device, Params params);

  uint32_t node() const { return node_; }
  // Server-side file creation (the exported directory's content): kAlreadyExists for a taken
  // name, kInvalidArgument for an empty file, kResourceExhausted when the device has no room
  // for `size` bytes.
  Status create_file(const std::string& name, uint64_t size);

  RpcServer& rpc() { return rpc_; }

 private:
  struct File {
    uint64_t base = 0;
    uint64_t size = 0;
  };
  // The device offset of [off, off + size) of the file open as `fh`.
  Result<uint64_t> locate(uint64_t fh, uint64_t off, uint64_t size) const;

  uint32_t node_;
  ExecContext& cpu_;
  BlockDevice* device_;
  Params params_;
  std::unordered_map<std::string, File> files_;
  std::unordered_map<uint64_t, File> handles_;
  uint64_t next_handle_ = 1;
  ExtentAllocator space_;  // the device's bytes, one 4 KiB-aligned region per file
  RpcServer rpc_;
};

class NfsClient {
 public:
  struct FileHandle {
    uint64_t fh = 0;
    uint64_t size = 0;
    FRACTOS_WIRE_FIELDS(fh, size)
  };

  NfsClient(Network* net, uint32_t node, NfsServer* server);

  Future<Result<FileHandle>> open(const std::string& name);
  Future<Result<std::vector<uint8_t>>> read(const FileHandle& f, uint64_t off, uint64_t size);
  Future<Status> write(const FileHandle& f, uint64_t off, std::vector<uint8_t> data);

 private:
  RpcClient rpc_;
};

}  // namespace fractos

#endif  // SRC_BASELINES_NFS_H_
