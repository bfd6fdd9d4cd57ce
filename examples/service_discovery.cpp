// Service discovery through the capability-bootstrap key/value store (Section 4: "a key/value
// store to bootstrap capabilities on new Processes"), with a span tracer attached so you can
// watch every Controller step and wire transfer of the discovery.
//
// The KV store is itself an ordinary FractOS Process: publishing a service delegates its
// Request capability to the store; looking it up delegates it onward to the client. After
// discovery the store is OUT of the path — kill it and the client keeps working.
//
// Run: build/examples/service_discovery

#include <cstdio>

#include "src/core/bootstrap.h"
#include "src/sim/span.h"

using namespace fractos;

int main() {
  System sys;
  const uint32_t infra_node = sys.add_node("infra");
  const uint32_t svc_node = sys.add_node("services");
  const uint32_t app_node = sys.add_node("apps");
  Controller& ci = sys.add_controller(infra_node, Loc::kHost);
  Controller& cs = sys.add_controller(svc_node, Loc::kHost);
  Controller& ca = sys.add_controller(app_node, Loc::kHost);

  // The trusted bootstrap/discovery service.
  KvStore kv(&sys, infra_node, ci);

  // Two services publish themselves by name.
  Process& echo = sys.spawn("echo-svc", svc_node, cs);
  Process& sum = sys.spawn("sum-svc", svc_node, cs);
  const CapId echo_ep = sys.await_ok(echo.serve({}, [&echo](Process::Received r) {
    echo.request_invoke(r.cap(r.num_caps() - 1),
                        Process::Args{}.imm_u64(0, r.imm_u64(0).value_or(0)));
  }));
  const CapId sum_ep = sys.await_ok(sum.serve({}, [&sum](Process::Received r) {
    const uint64_t a = r.imm_u64(0).value_or(0);
    const uint64_t b = r.imm_u64(8).value_or(0);
    sum.request_invoke(r.cap(r.num_caps() - 1), Process::Args{}.imm_u64(0, a + b));
  }));
  std::fflush(stdout);
  auto echo_eps = kv.grant_to(echo);
  auto sum_eps = kv.grant_to(sum);
  FRACTOS_CHECK(sys.await(KvStore::put(echo, echo_eps.put, "svc.echo", echo_ep)).ok());
  FRACTOS_CHECK(sys.await(KvStore::put(sum, sum_eps.put, "svc.sum", sum_ep)).ok());
  std::printf("published svc.echo and svc.sum in the discovery store\n\n");

  // A client discovers svc.sum by name — watch the messages.
  Process& app = sys.spawn("app", app_node, ca);
  auto app_eps = kv.grant_to(app);
  SpanTracer tracer;
  sys.loop().set_span_tracer(&tracer);
  const uint64_t lookup = tracer.start_trace("app", "lookup svc.sum", sys.loop().now());
  Future<Result<CapId>> found = [&]() {
    SpanScope scope(tracer.context_of(lookup));
    return KvStore::get(app, app_eps.get, "svc.sum");
  }();
  const CapId sum_at_app = sys.await_ok(std::move(found));
  tracer.end(lookup, sys.loop().now());
  sys.loop().set_span_tracer(nullptr);
  std::printf("-- trace of the discovery lookup --\n%s-- end trace --\n\n",
              tracer.serialize().c_str());

  auto reply = sys.await_ok(app.call(sum_at_app, Process::Args{}.imm_u64(0, 19).imm_u64(8, 23)));
  std::printf("svc.sum(19, 23) = %llu\n",
              static_cast<unsigned long long>(reply.imm_u64(0).value_or(0)));

  // Unknown names fail cleanly.
  auto missing = sys.await(KvStore::get(app, app_eps.get, "svc.nope"));
  std::printf("lookup of svc.nope: %s\n", error_code_name(missing.error()));

  // The store is a directory, not an authority: kill it, the capability still works.
  sys.fail_process(kv.process());
  sys.loop().run();
  auto reply2 = sys.await_ok(app.call(sum_at_app, Process::Args{}.imm_u64(0, 1).imm_u64(8, 2)));
  std::printf("after the store died, svc.sum(1, 2) = %llu — discovery is off the data path\n",
              static_cast<unsigned long long>(reply2.imm_u64(0).value_or(0)));
  return 0;
}
