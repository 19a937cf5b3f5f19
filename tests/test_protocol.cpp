// Protocol unit/integration tests: L1 + directory over an idealized message
// fabric. The fabric delivers messages with configurable (optionally
// randomized) per-message delays, which exercises exactly the reorderings the
// heterogeneous two-channel network can produce.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hpp"
#include "param_bytes.hpp"
#include "protocol_test_fabric.hpp"

namespace tcmp::protocol {
namespace {

TEST(Protocol, ColdReadGrantsExclusive) {
  TestFabric f;
  const LineAddr line{0x40};
  f.access(0, line, false);
  f.run_until_quiescent();
  EXPECT_EQ(f.l1(0).state_of(line), L1State::kE);
  EXPECT_EQ(f.dir(f.home_of(line)).dir_state_of(line), DirState::kExclusive);
  EXPECT_EQ(f.dir(f.home_of(line)).owner_of(line), 0);
}

TEST(Protocol, SilentExclusiveToModifiedOnWrite) {
  TestFabric f;
  const LineAddr line{0x41};
  f.access(2, line, false);
  EXPECT_EQ(f.l1(2).state_of(line), L1State::kE);
  EXPECT_EQ(f.access(2, line, true), Cycle{0});  // hit: silent E->M
  EXPECT_EQ(f.l1(2).state_of(line), L1State::kM);
}

TEST(Protocol, SecondReaderTriggersForwardAndSharing) {
  TestFabric f;
  const LineAddr line{0x42};
  f.access(0, line, false);
  f.access(1, line, false);
  f.run_until_quiescent();
  EXPECT_EQ(f.l1(0).state_of(line), L1State::kS);
  EXPECT_EQ(f.l1(1).state_of(line), L1State::kS);
  EXPECT_EQ(f.dir(f.home_of(line)).dir_state_of(line), DirState::kShared);
  EXPECT_EQ(f.stats().counter_value("dir.cache_to_cache"), 1u);
}

TEST(Protocol, ReadAfterModifiedForwardsDirtyData) {
  TestFabric f;
  const LineAddr line{0x43};
  f.access(0, line, false);
  f.access(0, line, true);  // E -> M
  f.access(5, line, false);
  f.run_until_quiescent();
  EXPECT_EQ(f.l1(0).state_of(line), L1State::kS);
  EXPECT_EQ(f.l1(5).state_of(line), L1State::kS);
  // The revision carried dirty data; the paper's Fig. 4 example (legs 1, 2,
  // 3a, 3b) is exactly this flow.
  EXPECT_EQ(f.stats().counter_value("l1.forwards_serviced"), 1u);
}

TEST(Protocol, WriteInvalidatesSharers) {
  TestFabric f;
  const LineAddr line{0x44};
  f.access(0, line, false);
  f.access(1, line, false);
  f.access(2, line, false);
  f.run_until_quiescent();
  f.access(3, line, true);
  f.run_until_quiescent();
  EXPECT_EQ(f.l1(3).state_of(line), L1State::kM);
  EXPECT_EQ(f.l1(0).state_of(line), std::nullopt);
  EXPECT_EQ(f.l1(1).state_of(line), std::nullopt);
  EXPECT_EQ(f.l1(2).state_of(line), std::nullopt);
  EXPECT_EQ(f.dir(f.home_of(line)).owner_of(line), 3);
  EXPECT_EQ(f.stats().counter_value("dir.invalidations_sent"), 3u);
}

TEST(Protocol, UpgradeGrantedToSharer) {
  TestFabric f;
  const LineAddr line{0x45};
  f.access(0, line, false);
  f.access(1, line, false);  // both S now
  f.run_until_quiescent();
  f.access(1, line, true);   // S -> M via Upgrade
  f.run_until_quiescent();
  EXPECT_EQ(f.l1(1).state_of(line), L1State::kM);
  EXPECT_EQ(f.l1(0).state_of(line), std::nullopt);
  EXPECT_EQ(f.stats().counter_value("dir.upgrades_granted"), 1u);
}

TEST(Protocol, WriteWriteMigration) {
  TestFabric f;
  const LineAddr line{0x46};
  f.access(0, line, true);
  f.access(1, line, true);
  f.run_until_quiescent();
  EXPECT_EQ(f.l1(0).state_of(line), std::nullopt);
  EXPECT_EQ(f.l1(1).state_of(line), L1State::kM);
  EXPECT_EQ(f.dir(f.home_of(line)).owner_of(line), 1);
}

TEST(Protocol, L1EvictionWritesBackModified) {
  TestFabric::Options opt;
  opt.l1_sets = 2;
  opt.l1_ways = 1;  // tiny L1: conflict evictions guaranteed
  TestFabric f(opt);
  // Two lines in the same L1 set (set = line & 1).
  const LineAddr a{0x10}, b{0x30};  // both even set? set_of uses low bits
  ASSERT_EQ(a.value() % 2, b.value() % 2);
  f.access(0, a, true);
  f.access(0, b, true);  // evicts a (PutM)
  f.run_until_quiescent();
  EXPECT_EQ(f.l1(0).state_of(a), std::nullopt);
  EXPECT_EQ(f.l1(0).state_of(b), L1State::kM);
  EXPECT_EQ(f.dir(f.home_of(a)).dir_state_of(a), DirState::kInvalid);
  EXPECT_EQ(f.stats().counter_value("dir.puts_accepted"), 1u);
}

TEST(Protocol, CleanExclusiveEvictionSendsHint) {
  TestFabric::Options opt;
  opt.l1_sets = 2;
  opt.l1_ways = 1;
  TestFabric f(opt);
  const LineAddr a{0x10}, b{0x30};
  f.access(0, a, false);  // E, clean
  f.access(0, b, false);  // evicts a (PutE)
  f.run_until_quiescent();
  EXPECT_EQ(f.dir(f.home_of(a)).dir_state_of(a), DirState::kInvalid);
  EXPECT_EQ(f.stats().counter_value("dir.puts_accepted"), 1u);
}

TEST(Protocol, MissDeferredBehindOwnWriteback) {
  TestFabric::Options opt;
  opt.l1_sets = 2;
  opt.l1_ways = 1;
  TestFabric f(opt);
  const LineAddr a{0x10}, b{0x30};
  f.access(0, a, true);
  f.access(0, b, true);  // a's PutM now in flight
  // Immediately re-request a: must defer until the PutAck drains, then fill.
  f.access(0, a, false);
  f.run_until_quiescent();
  EXPECT_EQ(f.l1(0).state_of(a), L1State::kE);
  EXPECT_GE(f.stats().counter_value("l1.deferred_misses"), 1u);
}

TEST(Protocol, L2EvictionRecallsOwner) {
  TestFabric::Options opt;
  opt.nodes = 2;
  opt.l2_sets = 1;
  opt.l2_ways = 1;  // one-line L2 slice per home: every new line recalls
  opt.l1_sets = 64;
  TestFabric f(opt);
  // Two different lines with the same home 0 (line % 2 == 0).
  const LineAddr a{0x10}, b{0x20};
  ASSERT_EQ(f.home_of(a), f.home_of(b));
  f.access(0, a, true);                 // core 0 owns a (M)
  f.access(1, b, false);                // forces L2 eviction of a -> Recall
  f.run_until_quiescent();
  EXPECT_EQ(f.l1(0).state_of(a), std::nullopt);  // recalled
  EXPECT_EQ(f.l1(1).state_of(b), L1State::kE);
  EXPECT_GE(f.stats().counter_value("dir.recalls"), 1u);
  EXPECT_GE(f.stats().counter_value("mem.writebacks"), 1u);  // a was dirty
}

TEST(Protocol, L2EvictionInvalidatesSharers) {
  TestFabric::Options opt;
  opt.nodes = 4;
  opt.l2_sets = 1;
  opt.l2_ways = 1;
  opt.l1_sets = 64;
  TestFabric f(opt);
  const LineAddr a{0x10}, b{0x20};  // homes: 0x10 % 4 = 0 ... need same home
  ASSERT_EQ(f.home_of(a), f.home_of(b));
  f.access(0, a, false);
  f.access(1, a, false);
  f.access(2, a, false);
  f.run_until_quiescent();
  f.access(3, b, false);  // evicts a: Invs to 0,1,2 collected at home
  f.run_until_quiescent();
  EXPECT_EQ(f.l1(0).state_of(a), std::nullopt);
  EXPECT_EQ(f.l1(1).state_of(a), std::nullopt);
  EXPECT_EQ(f.l1(2).state_of(a), std::nullopt);
  EXPECT_EQ(f.dir(0).dir_state_of(a), std::nullopt);  // gone from L2
}

// --- randomized stress with reordering: the heavy validation ---

struct StressCase {
  unsigned nodes;
  unsigned lines;      ///< distinct lines in play
  unsigned ops;        ///< per core
  Cycle min_delay, max_delay;
  std::uint64_t seed;
};

void PrintTo(const StressCase& c, std::ostream* os) {
  test::print_field_bytes(c, os, c.nodes, c.lines, c.ops, c.min_delay,
                          c.max_delay, c.seed);
}

class ProtocolStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(ProtocolStress, RandomSharingRemainsCoherent) {
  const StressCase& c = GetParam();
  TestFabric::Options opt;
  opt.nodes = c.nodes;
  opt.l1_sets = 8;
  opt.l1_ways = 2;
  opt.l2_sets = 16;
  opt.l2_ways = 4;
  opt.min_delay = c.min_delay;
  opt.max_delay = c.max_delay;
  opt.seed = c.seed;
  TestFabric f(opt);

  Rng rng(c.seed * 7919 + 1);
  std::set<LineAddr> touched;
  // Interleave: each "round", every core performs one blocking access.
  for (unsigned op = 0; op < c.ops; ++op) {
    for (unsigned core = 0; core < c.nodes; ++core) {
      const LineAddr line{1 + rng.next_below(c.lines)};
      const bool write = rng.chance(0.4);
      touched.insert(line);
      f.access(core, line, write);
    }
  }
  f.run_until_quiescent();
  f.check_invariants(touched);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolStress,
    ::testing::Values(
        StressCase{4, 8, 200, Cycle{1}, Cycle{1}, 1},     // in-order delivery
        StressCase{4, 8, 200, Cycle{1}, Cycle{30}, 2},    // heavy reordering
        StressCase{16, 32, 100, Cycle{1}, Cycle{25}, 3},  // full CMP, reordering
        StressCase{16, 6, 150, Cycle{1}, Cycle{40}, 4},   // hot contention on 6 lines
        StressCase{8, 64, 120, Cycle{2}, Cycle{20}, 5},   // capacity pressure (L2 recalls)
        StressCase{16, 128, 80, Cycle{1}, Cycle{15}, 6},  // many lines, L1+L2 evictions
        StressCase{2, 3, 500, Cycle{1}, Cycle{50}, 7},    // two cores fighting, max reorder
        StressCase{16, 200, 100, Cycle{1}, Cycle{60}, 9},   // L2 thrashing + extreme reorder
        StressCase{4, 100, 300, Cycle{1}, Cycle{45}, 10},   // few cores, heavy capacity
        StressCase{16, 32, 100, Cycle{1}, Cycle{25}, 42}));

// The rare race paths must actually fire under stress — otherwise the stress
// suite would pass vacuously.
TEST(ProtocolStress, RacePathsAreExercised) {
  TestFabric::Options opt;
  opt.nodes = 8;
  opt.l1_sets = 4;
  opt.l1_ways = 1;   // constant evictions
  opt.l2_sets = 8;
  opt.l2_ways = 2;   // constant recalls
  opt.min_delay = Cycle{1};
  opt.max_delay = Cycle{50};  // heavy reordering
  opt.seed = 1234;
  TestFabric f(opt);
  Rng rng(99);
  std::set<LineAddr> touched;
  for (unsigned op = 0; op < 400; ++op) {
    for (unsigned core = 0; core < opt.nodes; ++core) {
      // Hot contended lines (busy-queueing, forwards) plus a large cold pool
      // (L1 evictions and L2 recalls).
      const LineAddr line{rng.chance(0.4) ? 1 + rng.next_below(8)
                                            : 16 + rng.next_below(400)};
      touched.insert(line);
      f.access(core, line, rng.chance(0.5));
    }
  }
  f.run_until_quiescent();
  f.check_invariants(touched);
  // Every tricky path fired at least once.
  EXPECT_GT(f.stats().counter_value("dir.recalls"), 0u);
  // Put/forward and put/recall crossings: either the ack was held (put
  // arrived during the busy window) or the put arrived after resolution.
  EXPECT_GT(f.stats().counter_value("dir.stale_puts") +
                f.stats().counter_value("dir.held_put_acks"),
            0u);
  EXPECT_GT(f.stats().counter_value("l1.forwards_serviced_in_evict"), 0u);
  EXPECT_GT(f.stats().counter_value("l1.stale_invs"), 0u);
  EXPECT_GT(f.stats().counter_value("dir.queued_on_busy"), 0u);
}

// Serial access latency sanity: a warm remote access costs fabric + L2
// round trips, far below the 400-cycle memory latency.
TEST(Protocol, AccessLatencyIncludesFabricAndL2) {
  TestFabric f;  // 3-cycle fabric delay each way, 8-cycle L2
  const LineAddr line{0x40};  // home = 0
  f.access(0, line, false);  // cold fill from memory, core 0 gets E
  f.run_until_quiescent();
  // GetS -> home (3) -> L2 (8) -> FwdGetS -> owner (3) -> Data (3).
  const Cycle t = f.access(4, line, false);
  EXPECT_GE(t.value(), 14u);
  EXPECT_LE(t.value(), 40u);
}

TEST(Protocol, MemoryLatencyDominatesColdMiss) {
  TestFabric::Options opt;
  TestFabric f(opt);
  const Cycle t = f.access(0, LineAddr{0x1000}, false);
  EXPECT_GE(t.value(), 400u);  // Table 4 memory access time
  EXPECT_LE(t.value(), 430u);
}

}  // namespace
}  // namespace tcmp::protocol
