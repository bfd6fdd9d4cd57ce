// Table 3: latency of a null FractOS operation, compared to raw loopback latency.
//
// "The serving side (ping-pong server or FractOS Controller) executes on either a CPU or
// sNIC." Paper numbers: raw 2.42 / 3.68 us; FractOS 3.00 / 4.50 us.

#include "bench/bench_util.h"
#include "src/core/system.h"
#include "src/fabric/queue_pair.h"

namespace fractos {
namespace {

using bench::Table;
using bench::fmt_us;

// ibv_rc_pingpong equivalent: a raw queue-pair echo server, no FractOS.
double raw_loopback_us(Loc server_loc) {
  EventLoop loop;
  Network net(&loop);
  const uint32_t node = net.add_node("n0");
  QueuePair client(&net, Endpoint{node, Loc::kHost});
  QueuePair server(&net, Endpoint{node, server_loc});
  QueuePair::connect(client, server);
  server.set_receive_handler([&server](Payload b) {
    server.send(Traffic::kControl, std::move(b));
  });
  Samples rtt;
  bool got = false;
  client.set_receive_handler([&](Payload) { got = true; });
  for (int i = 0; i < 100; ++i) {
    got = false;
    const Time start = loop.now();
    client.send(Traffic::kControl, std::vector<uint8_t>(8));
    loop.run_until([&]() { return got; });
    rtt.add(loop.now() - start);
  }
  return rtt.mean();
}

struct NullResult {
  double mean_us = 0;
  double stddev_us = 0;
};

NullResult fractos_null_us(Loc ctrl_loc) {
  System sys;
  const uint32_t node = sys.add_node("n0");
  Controller& ctrl = sys.add_controller(node, ctrl_loc);
  Process& p = sys.spawn("app", node, ctrl);
  Summary s;
  for (int i = 0; i < 1000; ++i) {
    const Time start = sys.loop().now();
    FRACTOS_CHECK(sys.await(p.null_op()).ok());
    s.add(sys.loop().now() - start);
  }
  return NullResult{s.mean(), s.stddev()};
}

}  // namespace
}  // namespace fractos

int main() {
  using namespace fractos;
  std::printf("Table 3: Latency of a null FractOS operation vs raw loopback\n");
  std::printf("(paper: raw 2.42/3.68 us, FractOS 3.00/4.50 us for CPU/sNIC)\n");

  Table t("Table 3 — null-operation latency", {"configuration", "latency", "stddev"});
  t.row({"Raw loopback w/ server @ CPU", fmt_us(raw_loopback_us(Loc::kHost)), "-"});
  t.row({"Raw loopback w/ server @ sNIC", fmt_us(raw_loopback_us(Loc::kSnic)), "-"});
  const auto cpu = fractos_null_us(Loc::kHost);
  const auto snic = fractos_null_us(Loc::kSnic);
  t.row({"FractOS @ CPU", fmt_us(cpu.mean_us), fmt_us(cpu.stddev_us)});
  t.row({"FractOS @ sNIC", fmt_us(snic.mean_us), fmt_us(snic.stddev_us)});
  t.print();
  return 0;
}
