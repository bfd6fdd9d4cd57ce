#include "src/devices/gpu.h"

#include <algorithm>
#include <utility>

#include "src/base/assert.h"
#include "src/sim/metrics.h"

namespace fractos {

SimGpu::SimGpu(Network* net, uint32_t node, Params params)
    : net_(net), node_(node), params_(params), memory_(params.memory_bytes),
      publisher_(net->loop(), [this](MetricSink& out) { out.emit("gpu.launches", launches_); }) {
  pool_ = net_->node(node_).add_pool(params_.memory_bytes);
}

SimGpu::ContextId SimGpu::create_context() {
  const ContextId ctx = next_ctx_++;
  contexts_[ctx] = true;
  return ctx;
}

Status SimGpu::destroy_context(ContextId ctx) {
  if (!contexts_.contains(ctx)) {
    return ErrorCode::kNotFound;
  }
  for (auto it = allocs_.begin(); it != allocs_.end();) {
    if (it->second.ctx == ctx) {
      release(it->first, it->second.size);
      it = allocs_.erase(it);
    } else {
      ++it;
    }
  }
  contexts_.erase(ctx);
  return ok_status();
}

Result<uint64_t> SimGpu::alloc(ContextId ctx, uint64_t size) {
  if (!contexts_.contains(ctx)) {
    return ErrorCode::kNotFound;
  }
  if (size == 0) {
    return ErrorCode::kInvalidArgument;
  }
  const std::optional<uint64_t> addr = memory_.allocate(size, 256);
  if (!addr.has_value()) {
    return ErrorCode::kResourceExhausted;
  }
  allocs_[*addr] = Allocation{size, ctx};
  return *addr;
}

Status SimGpu::free(ContextId ctx, uint64_t addr) {
  auto it = allocs_.find(addr);
  if (it == allocs_.end() || it->second.ctx != ctx) {
    return ErrorCode::kNotFound;
  }
  release(addr, it->second.size);
  allocs_.erase(it);
  return ok_status();
}

void SimGpu::release(uint64_t addr, uint64_t size) {
  // The next tenant to get these bytes must not read the last one's. Zeroing is free in
  // simulated time, as SimNvme::discard is for a block volume.
  std::fill_n(net_->node(node_).pool(pool_).begin() + static_cast<ptrdiff_t>(addr), size,
              uint8_t{0});
  memory_.release(addr, size);
}

SimGpu::KernelId SimGpu::load_kernel(const std::string& name, Kernel kernel) {
  (void)name;
  const KernelId id = next_kernel_++;
  kernels_[id] = std::move(kernel);
  return id;
}

void SimGpu::launch(KernelId id, std::vector<uint64_t> args, std::function<void(Status)> done) {
  auto it = kernels_.find(id);
  if (it == kernels_.end()) {
    net_->loop()->post([done = std::move(done)]() { done(ErrorCode::kNotFound); });
    return;
  }
  // Execute the kernel body now (the data transformation is instantaneous from the
  // simulation's point of view; its COST is what the engine models).
  PoolBytes& mem = net_->node(node_).pool(pool_);
  const Duration compute = it->second(mem, args);
  const Duration total = params_.launch_overhead + compute;
  const Time start = max(net_->loop()->now(), engine_free_);
  engine_free_ = start + total;
  busy_ += total;
  ++launches_;
  struct GpuNames {
    NameId kernel_ns = intern_name("gpu.kernel_ns");
    NameId gpu = intern_name("gpu");
    NameId engine_wait = intern_name("engine-wait");
    NameId kernel = intern_name("kernel");
  };
  if (MetricsRegistry* m = net_->loop()->metrics()) {
    static const GpuNames names;
    m->observe(names.kernel_ns, static_cast<uint64_t>(total.ns()));
  }
  if (span_tracing_active()) {
    if (SpanTracer* t = net_->loop()->span_tracer()) {
      static const GpuNames names;
      if (start > net_->loop()->now()) {
        t->record(names.gpu, SpanKind::kQueue, names.engine_wait, net_->loop()->now(), start);
      }
      t->record(names.gpu, SpanKind::kDevice, names.kernel, start, engine_free_);
    }
  }
  net_->loop()->schedule_at(engine_free_, [done = std::move(done)]() { done(ok_status()); });
}

}  // namespace fractos
