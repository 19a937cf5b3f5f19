// Partitioned simulation core (docs/partitioning.md): the row-block plan,
// the 1-cycle synchronization-horizon floor on boundary channels, and the
// end-to-end determinism contract — equal counter maps and slack telemetry
// whatever the thread count. Golden byte-identity at --threads 1 is covered
// by the tcmpsim_golden_identity ctest (tools/golden_test.sh passes
// --threads 1 explicitly); these tests pin the K > 1 side.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cmp/config.hpp"
#include "cmp/system.hpp"
#include "common/stats.hpp"
#include "noc/channel.hpp"
#include "noc/network.hpp"
#include "obs/observer.hpp"
#include "sim/partition.hpp"
#include "wire/link_design.hpp"
#include "workloads/synthetic_app.hpp"

namespace tcmp {
namespace {

// ---- PartitionPlan -------------------------------------------------------

TEST(PartitionPlan, EvenSplitOwnsContiguousRowBlocks) {
  const sim::PartitionPlan plan(4, 4, 2);  // 4x4 mesh, K = 2
  ASSERT_EQ(plan.num_partitions(), 2u);
  EXPECT_EQ(plan.first(0), 0u);
  EXPECT_EQ(plan.first(1), 8u);   // two rows of four
  EXPECT_EQ(plan.first(2), 16u);  // one past the end
  EXPECT_EQ(plan.count(0), 8u);
  EXPECT_EQ(plan.part_of(7), 0u);
  EXPECT_EQ(plan.part_of(8), 1u);
}

TEST(PartitionPlan, RemainderRowsGoToTheFirstPartitions) {
  const sim::PartitionPlan plan(4, 7, 3);  // 7 rows over K = 3: 3 + 2 + 2
  ASSERT_EQ(plan.num_partitions(), 3u);
  EXPECT_EQ(plan.count(0), 12u);
  EXPECT_EQ(plan.count(1), 8u);
  EXPECT_EQ(plan.count(2), 8u);
  // Every node maps to the partition whose [first, first+count) contains it.
  for (unsigned n = 0; n < 28; ++n) {
    const unsigned p = plan.part_of(n);
    EXPECT_GE(n, plan.first(p));
    EXPECT_LT(n, plan.first(p + 1));
  }
}

TEST(PartitionPlan, ClampsToOnePartitionPerRow) {
  // A row is the finest grain that keeps every cross-partition link
  // vertical, so K clamps to the mesh height.
  const sim::PartitionPlan plan(8, 4, 16);
  EXPECT_EQ(plan.num_partitions(), 4u);
  const sim::PartitionPlan one(4, 1, 8);
  EXPECT_EQ(one.num_partitions(), 1u);
}

// ---- Horizon floor: a 1-cycle boundary link ------------------------------

noc::NocConfig one_cycle_mesh(unsigned width, unsigned height) {
  noc::NocConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.channels = noc::make_channels(wire::baseline_link());
  // Pin the boundary link exactly at the horizon floor: anything produced
  // in cycle t must still be unconsumable before t + 1.
  cfg.channels[0].link_cycles = 1;
  return cfg;
}

protocol::CoherenceMsg cross_partition_msg(unsigned src, unsigned dst) {
  protocol::CoherenceMsg m;
  m.type = protocol::MsgType::kGetS;
  m.src = NodeId{src};
  m.dst = NodeId{dst};
  m.line = LineAddr{0x40};
  m.requester = NodeId{src};
  return m;
}

TEST(PartitionHorizon, OneCycleLinkCrossesExactlyAtHorizon) {
  // 2x2 mesh split into two single-row partitions; node 0 -> node 2 is one
  // vertical hop across the partition boundary. Drive the partitioned
  // network through the same manual lockstep the driver uses and compare
  // against the single-partition network cycle by cycle.
  const noc::NocConfig cfg = one_cycle_mesh(2, 2);

  StatRegistry serial_stats;
  noc::Network serial(cfg, &serial_stats);
  std::vector<std::pair<unsigned, Cycle>> serial_deliveries;
  Cycle serial_now{0};
  serial.set_deliver([&](NodeId node, const protocol::CoherenceMsg&) {
    serial_deliveries.emplace_back(node.value(), serial_now);
  });

  const sim::PartitionPlan plan(2, 2, 2);
  ASSERT_EQ(plan.num_partitions(), 2u);
  StatRegistry shard0, shard1;
  noc::Network parted(cfg, plan, {&shard0, &shard1});
  std::vector<std::pair<unsigned, Cycle>> parted_deliveries;
  Cycle parted_now{0};
  parted.set_deliver([&](NodeId node, const protocol::CoherenceMsg&) {
    parted_deliveries.emplace_back(node.value(), parted_now);
  });

  const auto msg = cross_partition_msg(0, 2);
  serial.inject(msg, 0, Bytes{8}, serial_now);
  parted.inject(msg, 0, Bytes{8}, parted_now);

  for (unsigned c = 0; c < 64 && parted_deliveries.empty(); ++c) {
    ++serial_now;
    serial.begin_cycle(serial_now);
    serial.tick_partition(0, serial_now);

    ++parted_now;
    parted.begin_cycle(parted_now);
    for (unsigned p = 0; p < 2; ++p) {
      parted.drain_boundary(p);
      parted.tick_partition(p, parted_now);
    }
    const Cycle published = parted.exchange_boundaries();
    // The horizon rule itself: nothing published at the end of cycle t may
    // carry a deadline at or before t, even on a 1-cycle link.
    if (published != kNeverCycle) {
      EXPECT_GT(published, parted_now);
    }
  }

  ASSERT_EQ(parted_deliveries.size(), 1u);
  ASSERT_EQ(serial_deliveries.size(), 1u);
  // Same destination, same simulated cycle: the boundary channel added
  // zero model latency, it only deferred the hand-off to the epilogue.
  EXPECT_EQ(parted_deliveries[0], serial_deliveries[0]);
  // The flit crossed strictly after its injection cycle (>= t + 1).
  EXPECT_GT(parted_deliveries[0].second, Cycle{1});

  EXPECT_TRUE(parted.boundaries_empty());
  EXPECT_TRUE(parted.quiescent_partition(0));
  EXPECT_TRUE(parted.quiescent_partition(1));
  EXPECT_TRUE(serial.quiescent_partition(0));
}

// ---- Counter-map identity across thread counts ---------------------------

struct RunResult {
  std::map<std::string, std::uint64_t> counters;
  Cycle cycles{};
  std::uint64_t instructions = 0;
};

RunResult run_cmp(unsigned threads, unsigned tiles = 16) {
  // Deliberately a non-golden (app, config) pairing — the goldens cover
  // MP3D-het, Barnes-baseline, Water-cheng and FFT-het; this pins a fresh
  // point of the space so the identity isn't an artifact of tuning to the
  // golden set.
  auto cfg = cmp::CmpConfig::cheng3way();
  cfg.with_tiles(tiles);
  cfg.threads = threads;
  cmp::CmpSystem system(
      cfg, std::make_shared<workloads::SyntheticApp>(
               workloads::app("FFT").scaled(0.02), cfg.n_tiles));
  EXPECT_TRUE(system.run(Cycle{50'000'000}));
  RunResult r;
  r.counters = system.merged_stats().counters();
  r.cycles = system.total_cycles();
  r.instructions = system.total_instructions();
  return r;
}

/// Full map equality — same key set, same values — not just totals. Reports
/// any divergent counter by name for debuggability.
void expect_same_run(const RunResult& one, const RunResult& k, unsigned threads) {
  EXPECT_EQ(one.cycles, k.cycles);
  EXPECT_EQ(one.instructions, k.instructions);
  ASSERT_FALSE(one.counters.empty());
  for (const auto& [name, value] : one.counters) {
    auto it = k.counters.find(name);
    ASSERT_NE(it, k.counters.end())
        << "counter missing at K=" << threads << ": " << name;
    EXPECT_EQ(it->second, value)
        << "counter diverges at K=" << threads << ": " << name;
  }
  EXPECT_EQ(one.counters.size(), k.counters.size());
}

TEST(PartitionIdentity, CounterMapsEqualAcrossThreadCounts) {
  expect_same_run(run_cmp(1), run_cmp(4), 4);
}

// An 8x8 mesh at K = 3 splits into uneven 3/3/2 row blocks, so boundary
// rows, the remainder rule and cross-partition traffic all differ from the
// 4x4 case above.
TEST(PartitionIdentity, CounterMapsEqualAcrossThreadCountsAt64Tiles) {
  expect_same_run(run_cmp(1, 64), run_cmp(3, 64), 3);
}

// ---- Slack telemetry identity across thread counts -----------------------

struct SlackRun {
  std::string table;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::vector<std::uint64_t>> histogram_bins;
};

SlackRun run_slack(unsigned threads) {
  auto cfg =
      cmp::CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2));
  cfg.threads = threads;
  cmp::CmpSystem system(
      cfg, std::make_shared<workloads::SyntheticApp>(
               workloads::app("MP3D").scaled(0.02), cfg.n_tiles));
  // K = 1 carries slack telemetry on the attached observer; K > 1 on one
  // SlackTelemetry shard per partition.
  std::unique_ptr<obs::Observer> observer;
  if (threads == 1) {
    observer =
        std::make_unique<obs::Observer>(obs::ObsConfig{}, &system.stats());
    system.attach_observer(observer.get());
  } else {
    system.enable_slack_telemetry();
  }
  EXPECT_TRUE(system.run(Cycle{50'000'000}));
  SlackRun r;
  std::ostringstream table;
  system.write_slack_table(table);
  r.table = table.str();
  const StatRegistry& stats = system.merged_stats();
  for (const auto& [name, value] : stats.counters()) {
    if (name.rfind("slack.", 0) == 0) r.counters[name] = value;
  }
  for (const auto& [name, h] : stats.histograms()) {
    if (name.rfind("slack.", 0) == 0) r.histogram_bins[name] = h.bins();
  }
  system.attach_observer(nullptr);
  return r;
}

TEST(PartitionIdentity, SlackTelemetryEqualAcrossThreadCounts) {
  // One beneficiary probe (the previous cycle's stall snapshot) at every K:
  // the slack classification, and with it every slack.* stat and the
  // --slack-report table, must not depend on the partition count.
  const SlackRun one = run_slack(1);
  const SlackRun four = run_slack(4);
  ASSERT_FALSE(one.histogram_bins.empty());
  EXPECT_NE(one.table.find("blocking"), std::string::npos);
  EXPECT_EQ(one.table, four.table);
  EXPECT_EQ(one.counters, four.counters);
  EXPECT_EQ(one.histogram_bins, four.histogram_bins);
}

}  // namespace
}  // namespace tcmp
