// NVMe-over-Fabrics model: the disaggregation technology the paper's storage baselines use
// (Table 2 / Section 6.4 "Disaggregated Baseline", Section 6.5 baseline).
//
// Target: co-located with the SSD, hardware-accelerated command processing (the paper calls
// the real thing "existing hardware-accelerated NVMe-oF" — per-command cost is small and
// there is no user-level software on the data path).
// Initiator: the in-kernel driver on the consuming node; one round trip per command, data
// rides the fabric at line rate. Wrap it in a PageCache to get the Linux block-cache
// behaviour of the baselines.

#ifndef SRC_BASELINES_NVMEOF_H_
#define SRC_BASELINES_NVMEOF_H_

#include "src/baselines/block_device.h"
#include "src/baselines/rpc.h"

namespace fractos {

class NvmeofTarget {
 public:
  struct Params {
    // Per-command processing at the target (hardware-offloaded).
    Duration command_cost = Duration::micros(2.0);
  };

  NvmeofTarget(Network* net, uint32_t node, SimNvme* nvme);
  NvmeofTarget(Network* net, uint32_t node, SimNvme* nvme, Params params);

  uint32_t node() const { return node_; }
  SimNvme& nvme() { return *nvme_; }
  RpcServer& rpc() { return rpc_; }

 private:
  uint32_t node_;
  ExecContext& cpu_;
  SimNvme* nvme_;
  Params params_;
  RpcServer rpc_;
};

// The initiator IS a BlockDevice: the kernel presents the remote namespace as a local disk.
class NvmeofInitiator : public BlockDevice {
 public:
  NvmeofInitiator(Network* net, uint32_t node, NvmeofTarget* target);

  void read(uint64_t off, uint64_t size,
            std::function<void(Result<Payload>)> done) override;
  void write(uint64_t off, Payload data, std::function<void(Status)> done) override;
  uint64_t capacity() const override { return target_->nvme().capacity(); }

 private:
  NvmeofTarget* target_;
  RpcClient rpc_;
};

}  // namespace fractos

#endif  // SRC_BASELINES_NVMEOF_H_
