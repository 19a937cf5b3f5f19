// Micro-benchmarks (google-benchmark): simulation-kernel throughput — idle
// and loaded network ticks, and whole-CMP cycles per second. These are the
// numbers that budget the fig6/fig7 sweeps.
#include <benchmark/benchmark.h>

#include <memory>

#include "cmp/system.hpp"
#include "common/rng.hpp"
#include "noc/network.hpp"
#include "wire/link_design.hpp"
#include "workloads/synthetic_app.hpp"

using namespace tcmp;

namespace {

void BM_NetworkTickIdle(benchmark::State& state) {
  noc::NocConfig cfg;
  cfg.channels = noc::make_channels(wire::paper_het_link(4));
  StatRegistry stats;
  noc::Network net(cfg, &stats);
  net.set_deliver([](NodeId, const protocol::CoherenceMsg&) {});
  Cycle now{0};
  for (auto _ : state) {
    net.begin_cycle(++now);
    net.tick_partition(0, now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NetworkTickIdle);

void BM_NetworkTickLoaded(benchmark::State& state) {
  noc::NocConfig cfg;
  cfg.channels = noc::make_channels(wire::baseline_link());
  StatRegistry stats;
  noc::Network net(cfg, &stats);
  net.set_deliver([](NodeId, const protocol::CoherenceMsg&) {});
  Rng rng(5);
  Cycle now{0};
  for (auto _ : state) {
    for (unsigned n = 0; n < 16; ++n) {
      if (!rng.chance(0.2)) continue;
      auto dst = static_cast<NodeId>(rng.next_below(16));
      if (dst == n) continue;
      protocol::CoherenceMsg msg;
      msg.type = protocol::MsgType::kGetS;
      msg.src = static_cast<NodeId>(n);
      msg.dst = dst;
      net.inject(msg, noc::kBChannel, Bytes{11}, now);
    }
    net.begin_cycle(++now);
    net.tick_partition(0, now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NetworkTickLoaded);

void BM_FullSystemStep(benchmark::State& state) {
  const auto params = workloads::app("MP3D");
  cmp::CmpSystem system(
      cmp::CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2)),
      std::make_shared<workloads::SyntheticApp>(params, 16));
  for (auto _ : state) system.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["sim_cycles_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullSystemStep);

}  // namespace
