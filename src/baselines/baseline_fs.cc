#include "src/baselines/baseline_fs.h"

#include <utility>

namespace fractos {

namespace {

// One bump-allocated, 4 KiB-aligned region per file on `device`.
class DeviceBackend : public FsService::Backend {
 public:
  explicit DeviceBackend(BlockDevice* device) : device_(device) {}

  std::optional<uint64_t> allocate(uint64_t size) override {
    // `size` is checked before its rounding, which wraps to 0 near 2^64.
    const uint64_t aligned = (size + 4095) & ~4095ull;
    if (size > device_->capacity() - next_base_ || next_base_ + aligned > device_->capacity()) {
      return std::nullopt;
    }
    const uint64_t base = next_base_;
    next_base_ += aligned;
    return base;
  }

  void transfer(Process& proc, bool is_write, uint64_t off, uint64_t size, uint64_t addr,
                std::function<void(Status)> done) override {
    if (is_write) {
      device_->write(off, proc.read_mem(addr, size), std::move(done));
      return;
    }
    device_->read(off, size, [&proc, addr, done = std::move(done)](Result<Payload> data) {
      if (!data.ok()) {
        done(data.error());
        return;
      }
      proc.write_mem(addr, data.value().bytes());
      done(ok_status());
    });
  }

 private:
  BlockDevice* device_;
  uint64_t next_base_ = 0;
};

}  // namespace

BaselineFs::BaselineFs(System* sys, uint32_t node, Controller& controller, BlockDevice* device)
    : BaselineFs(sys, node, controller, device, Params{}) {}

BaselineFs::BaselineFs(System* sys, uint32_t node, Controller& controller, BlockDevice* device,
                       Params params)
    : FsService(sys, node, controller, params, "baseline-fs",
                std::make_unique<DeviceBackend>(device)) {
  serve_endpoints();
}

}  // namespace fractos
