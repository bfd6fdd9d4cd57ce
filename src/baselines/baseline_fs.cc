#include "src/baselines/baseline_fs.h"

#include <utility>

#include "src/base/extent.h"

namespace fractos {

namespace {

// One 4 KiB-aligned region per file on `device`.
class DeviceBackend : public FsService::Backend {
 public:
  explicit DeviceBackend(BlockDevice* device) : device_(device), space_(device->capacity()) {}

  std::optional<uint64_t> allocate(uint64_t size) override { return space_.allocate(size, 4096); }

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
  ExtentAllocator space_;
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
