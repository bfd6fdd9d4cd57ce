// Block-device abstraction for the baseline (non-FractOS) storage stacks: a local NVMe, an
// NVMe-over-Fabrics initiator, or a page-cache decorator all present the same interface, so
// the baseline FS can be composed the way the paper's evaluation composes its baselines
// (Section 6.4: "Disaggregated Baseline" = FS over remote NVMe-oF with the Linux cache;
// "Local Baseline" = local block device).

#ifndef SRC_BASELINES_BLOCK_DEVICE_H_
#define SRC_BASELINES_BLOCK_DEVICE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/result.h"
#include "src/devices/nvme.h"
#include "src/wire/payload.h"

namespace fractos {

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;
  virtual void read(uint64_t off, uint64_t size,
                    std::function<void(Result<Payload>)> done) = 0;
  virtual void write(uint64_t off, Payload data, std::function<void(Status)> done) = 0;
  virtual uint64_t capacity() const = 0;
};

// Directly attached NVMe (the paper's Local Baseline device).
class LocalNvmeDevice : public BlockDevice {
 public:
  explicit LocalNvmeDevice(SimNvme* nvme) : nvme_(nvme) {}

  void read(uint64_t off, uint64_t size,
            std::function<void(Result<Payload>)> done) override {
    nvme_->read(off, size, std::move(done));
  }
  void write(uint64_t off, Payload data, std::function<void(Status)> done) override {
    nvme_->write(off, std::move(data), std::move(done));
  }
  uint64_t capacity() const override { return nvme_->capacity(); }

 private:
  SimNvme* nvme_;
};

}  // namespace fractos

#endif  // SRC_BASELINES_BLOCK_DEVICE_H_
