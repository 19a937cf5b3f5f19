// Unit + property tests for the address compression schemes. The central
// invariant: for ANY interleaving of destinations and addresses, running the
// receiver in sender order reconstructs exactly the original address.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "compression/compressor.hpp"
#include "compression/dbrc.hpp"
#include "compression/hw_cost.hpp"
#include "compression/scheme.hpp"
#include "compression/stride.hpp"
#include "compression/trivial.hpp"
#include "param_bytes.hpp"

namespace tcmp::compression {
namespace {

constexpr unsigned kNodes = 16;

TEST(SchemeConfig, NamesMatchPaperSpelling) {
  EXPECT_EQ(SchemeConfig::dbrc(4, 2).name(), "4-entry DBRC (2B LO)");
  EXPECT_EQ(SchemeConfig::dbrc(16, 1).name(), "16-entry DBRC (1B LO)");
  EXPECT_EQ(SchemeConfig::stride(2).name(), "2-byte Stride");
  EXPECT_EQ(SchemeConfig::perfect(3).name(), "Perfect (3B VL)");
}

TEST(SchemeConfig, VlWidthMatchesPaperSection43) {
  // "from 11 bytes to 4-5 bytes depending on the size of the uncompressed
  // low order bits" — 1B LO -> 4B VL, 2B LO -> 5B VL, perfect -> 3B VL.
  EXPECT_EQ(SchemeConfig::dbrc(16, 1).vl_width_bytes(), 4u);
  EXPECT_EQ(SchemeConfig::dbrc(4, 2).vl_width_bytes(), 5u);
  EXPECT_EQ(SchemeConfig::stride(2).vl_width_bytes(), 5u);
  EXPECT_EQ(SchemeConfig::perfect(3).vl_width_bytes(), 3u);
  EXPECT_EQ(SchemeConfig::perfect(4).vl_width_bytes(), 4u);
  EXPECT_EQ(SchemeConfig::perfect(5).vl_width_bytes(), 5u);
}

// --- Stride ---

TEST(Stride, FirstMessageIsUncompressed) {
  StrideSender s(2, kNodes);
  const Encoding e = s.compress(NodeId{3}, LineAddr{0x1000});
  EXPECT_FALSE(e.compressed);
  EXPECT_TRUE(e.install);
}

TEST(Stride, SmallDeltaCompresses) {
  StrideSender s(2, kNodes);
  s.compress(NodeId{3}, LineAddr{0x1000});
  const Encoding e = s.compress(NodeId{3}, LineAddr{0x1010});
  EXPECT_TRUE(e.compressed);
  EXPECT_EQ(s.hits(), 1u);
}

TEST(Stride, NegativeDeltaCompresses) {
  StrideSender s(2, kNodes);
  StrideReceiver r(2, kNodes);
  r.decode(NodeId{0}, s.compress(NodeId{0}, LineAddr{0x1000}), LineAddr{0x1000});
  const Encoding e = s.compress(NodeId{0}, LineAddr{0x0FF0});
  ASSERT_TRUE(e.compressed);
  EXPECT_EQ(r.decode(NodeId{0}, e, LineAddr{}), LineAddr{0x0FF0});
}

TEST(Stride, LargeDeltaFallsBack) {
  StrideSender s(1, kNodes);
  s.compress(NodeId{0}, LineAddr{0x1000});
  // > 127: misses the 1-byte window
  const Encoding e = s.compress(NodeId{0}, LineAddr{0x1000 + 200});
  EXPECT_FALSE(e.compressed);
}

TEST(Stride, BaseIsPerDestination) {
  StrideSender s(2, kNodes);
  s.compress(NodeId{0}, LineAddr{0x1000});
  s.compress(NodeId{1}, LineAddr{0x900000});
  // Destination 0's base is still 0x1000.
  EXPECT_TRUE(s.compress(NodeId{0}, LineAddr{0x1001}).compressed);
}

TEST(Stride, FitsBoundaries) {
  EXPECT_TRUE(StrideSender::fits(127, 1));
  EXPECT_FALSE(StrideSender::fits(128, 1));
  EXPECT_TRUE(StrideSender::fits(-128, 1));
  EXPECT_FALSE(StrideSender::fits(-129, 1));
  EXPECT_TRUE(StrideSender::fits(32767, 2));
  EXPECT_FALSE(StrideSender::fits(32768, 2));
  EXPECT_TRUE(StrideSender::fits(-32768, 2));
  EXPECT_FALSE(StrideSender::fits(-32769, 2));
}

// --- DBRC ---

TEST(Dbrc, FirstAccessInstallsThenHits) {
  DbrcSender s(4, 2, kNodes);
  const Encoding first = s.compress(NodeId{5}, LineAddr{0xABCD1234});
  EXPECT_FALSE(first.compressed);
  EXPECT_TRUE(first.install);
  // Same high-order region:
  const Encoding second = s.compress(NodeId{5}, LineAddr{0xABCD1235});
  EXPECT_TRUE(second.compressed);
  EXPECT_EQ(second.index, first.index);
}

TEST(Dbrc, IdealizedMirrorsCompressAcrossDestinations) {
  DbrcSender s(4, 2, kNodes, /*idealized_mirrors=*/true);
  s.compress(NodeId{5}, LineAddr{0xABCD1234});
  // Same region, new destination: with synchronized mirrors the hit
  // compresses immediately.
  EXPECT_TRUE(s.compress(NodeId{6}, LineAddr{0xABCD1234}).compressed);
}

TEST(Dbrc, EntryIsSharedButDestValidIsNot) {
  DbrcSender s(4, 2, kNodes, /*idealized_mirrors=*/false);
  s.compress(NodeId{5}, LineAddr{0xABCD1234});
  // Same region, new destination: entry exists but dest 6 must be installed.
  const Encoding e = s.compress(NodeId{6}, LineAddr{0xABCD1234});
  EXPECT_FALSE(e.compressed);
  EXPECT_TRUE(e.install);
  // Now both destinations hit.
  EXPECT_TRUE(s.compress(NodeId{5}, LineAddr{0xABCD0001}).compressed);
  EXPECT_TRUE(s.compress(NodeId{6}, LineAddr{0xABCD0002}).compressed);
}

TEST(Dbrc, LruEviction) {
  DbrcSender s(2, 2, kNodes);
  s.compress(NodeId{0}, LineAddr{0x0A0000});  // region A -> entry 0
  s.compress(NodeId{0}, LineAddr{0x0B0000});  // region B -> entry 1
  s.compress(NodeId{0}, LineAddr{0x0A0001});  // touch A (B becomes LRU)
  s.compress(NodeId{0}, LineAddr{0x0C0000});  // region C evicts B
  // A still resident:
  EXPECT_TRUE(s.compress(NodeId{0}, LineAddr{0x0A0002}).compressed);
  // B was evicted:
  EXPECT_FALSE(s.compress(NodeId{0}, LineAddr{0x0B0001}).compressed);
}

TEST(Dbrc, ReceiverReconstructsCompressedAddress) {
  DbrcSender s(4, 1, kNodes);
  DbrcReceiver r(4, 1, kNodes);
  const LineAddr a1{0x123456};
  const LineAddr a2{0x123478};
  // Install (sender node 2 -> receiver 7):
  r.decode(NodeId{2}, s.compress(NodeId{7}, a1), a1);
  const Encoding e = s.compress(NodeId{7}, a2);
  ASSERT_TRUE(e.compressed);
  EXPECT_EQ(r.decode(NodeId{2}, e, LineAddr{}), a2);
}

TEST(Dbrc, CoverageIsHighForClusteredStream) {
  DbrcSender s(4, 2, kNodes);
  Rng rng(1);
  // Addresses clustered in 2 regions of 64K lines each: near-perfect coverage
  // after warmup with 4 entries.
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t base = rng.chance(0.5) ? 0x10000000 : 0x20000000;
    s.compress(static_cast<NodeId>(rng.next_below(kNodes)),
               LineAddr{base + rng.next_below(65536)});
  }
  const double coverage =
      static_cast<double>(s.hits()) / static_cast<double>(s.hits() + s.misses());
  EXPECT_GT(coverage, 0.95);
}

TEST(Dbrc, CoverageIsLowForScatteredStreamWithSmallCache) {
  DbrcSender s(4, 1, kNodes);
  Rng rng(2);
  // Addresses scattered over 1M lines: 4 entries x 256-line regions can't keep up.
  for (int i = 0; i < 10000; ++i) {
    s.compress(static_cast<NodeId>(rng.next_below(kNodes)),
               LineAddr{rng.next_below(1 << 20)});
  }
  const double coverage =
      static_cast<double>(s.hits()) / static_cast<double>(s.hits() + s.misses());
  EXPECT_LT(coverage, 0.30);
}

// --- Round-trip property over every scheme ---

struct RoundTripCase {
  SchemeConfig cfg;
  std::uint64_t seed;
};

void PrintTo(const RoundTripCase& c, std::ostream* os) {
  test::print_field_bytes(c, os, c.cfg.kind, c.cfg.entries, c.cfg.low_bytes,
                          c.cfg.idealized_mirrors, c.seed);
}

class RoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(RoundTrip, ReceiverAlwaysReconstructsSenderAddress) {
  const auto& [cfg, seed] = GetParam();
  // One sender; one decompressor per destination tile, each observing only
  // the messages addressed to it — exactly the real network-interface setup.
  CompressorPair first = make_compressor(cfg, kNodes);
  auto& sender = *first.sender;
  std::vector<std::unique_ptr<ReceiverDecompressor>> receivers;
  receivers.push_back(std::move(first.receiver));
  for (unsigned i = 1; i < kNodes; ++i)
    receivers.push_back(make_compressor(cfg, kNodes).receiver);

  Rng rng(seed);
  const NodeId self{3};  // sender identity as seen by receivers
  for (int i = 0; i < 20000; ++i) {
    const auto dst = static_cast<NodeId>(rng.next_below(kNodes));
    // Mix clustered and scattered addresses, plus occasional extremes.
    LineAddr line;
    switch (rng.next_below(4)) {
      case 0: line = LineAddr{0x40000000 + rng.next_below(4096)}; break;
      case 1: line = LineAddr{rng.next_below(std::uint64_t{1} << 32)}; break;
      case 2: line = LineAddr{0x7FFFFFFFFFFFFFull - rng.next_below(128)}; break;
      default: line = LineAddr{rng.next_below(256)}; break;
    }
    const Encoding enc = sender.compress(dst, line);
    const LineAddr decoded = receivers[dst]->decode(self, enc, line);
    ASSERT_EQ(decoded, line) << cfg.name() << " iteration " << i;
  }
}

// Conservative (non-idealized) DBRC: the mode whose mirror state must truly
// round-trip point-to-point.
SchemeConfig conservative_dbrc(unsigned entries, unsigned low_bytes) {
  SchemeConfig cfg = SchemeConfig::dbrc(entries, low_bytes);
  cfg.idealized_mirrors = false;
  return cfg;
}

INSTANTIATE_TEST_SUITE_P(
    ConservativeDbrc, RoundTrip,
    ::testing::Values(RoundTripCase{conservative_dbrc(4, 1), 31},
                      RoundTripCase{conservative_dbrc(4, 2), 32},
                      RoundTripCase{conservative_dbrc(16, 1), 33},
                      RoundTripCase{conservative_dbrc(16, 2), 34},
                      RoundTripCase{conservative_dbrc(64, 1), 35},
                      RoundTripCase{conservative_dbrc(64, 2), 36}));

INSTANTIATE_TEST_SUITE_P(
    Schemes, RoundTrip,
    ::testing::Values(RoundTripCase{SchemeConfig::stride(1), 11},
                      RoundTripCase{SchemeConfig::stride(2), 12},
                      RoundTripCase{SchemeConfig::dbrc(4, 1), 13},
                      RoundTripCase{SchemeConfig::dbrc(4, 2), 14},
                      RoundTripCase{SchemeConfig::dbrc(16, 1), 15},
                      RoundTripCase{SchemeConfig::dbrc(16, 2), 16},
                      RoundTripCase{SchemeConfig::dbrc(64, 1), 17},
                      RoundTripCase{SchemeConfig::dbrc(64, 2), 18},
                      RoundTripCase{SchemeConfig::perfect(3), 19},
                      RoundTripCase{SchemeConfig::none(), 20}));

// A single receiver instance must track many senders independently.
TEST(RoundTrip, MultipleSendersThroughOneReceiver) {
  const SchemeConfig cfg = SchemeConfig::dbrc(4, 2);
  std::vector<std::unique_ptr<SenderCompressor>> senders;
  auto pair = make_compressor(cfg, kNodes);
  auto& receiver = *pair.receiver;
  senders.push_back(std::move(pair.sender));
  for (unsigned i = 1; i < kNodes; ++i)
    senders.push_back(make_compressor(cfg, kNodes).sender);

  Rng rng(99);
  for (int i = 0; i < 30000; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(kNodes));
    const LineAddr line{(std::uint64_t{src} << 24) + rng.next_below(1 << 18)};
    const Encoding enc = senders[src]->compress(/*dst=*/NodeId{0}, line);
    ASSERT_EQ(receiver.decode(src, enc, line), line);
  }
}

// --- hardware cost ---

TEST(HwCost, StorageMatchesTable1SizeColumn) {
  EXPECT_EQ(scheme_hw_cost(SchemeConfig::dbrc(4, 2), kNodes).storage_bytes_per_core,
            1088u);
  EXPECT_EQ(scheme_hw_cost(SchemeConfig::dbrc(16, 2), kNodes).storage_bytes_per_core,
            4352u);
  EXPECT_EQ(scheme_hw_cost(SchemeConfig::dbrc(64, 2), kNodes).storage_bytes_per_core,
            17408u);
  EXPECT_EQ(scheme_hw_cost(SchemeConfig::stride(2), kNodes).storage_bytes_per_core,
            272u);
}

TEST(HwCost, AreaMatchesTable1) {
  const auto dbrc4 = scheme_hw_cost(SchemeConfig::dbrc(4, 2), kNodes);
  EXPECT_NEAR(units::to_mm2(dbrc4.area_per_core), 0.0723, 0.0723 * 0.05);
  const auto stride = scheme_hw_cost(SchemeConfig::stride(2), kNodes);
  EXPECT_NEAR(units::to_mm2(stride.area_per_core), 0.0257, 0.0257 * 0.05);
}

TEST(HwCost, PerfectAndNoneAreFree) {
  EXPECT_EQ(scheme_hw_cost(SchemeConfig::perfect(3), kNodes).area_per_core.value(),
            0.0);
  EXPECT_EQ(scheme_hw_cost(SchemeConfig::none(), kNodes).area_per_core.value(), 0.0);
}

TEST(HwCost, AccessCountersAdvance) {
  auto pair = make_compressor(SchemeConfig::dbrc(4, 2), kNodes);
  pair.sender->compress(NodeId{0}, LineAddr{0x100});
  pair.sender->compress(NodeId{0}, LineAddr{0x101});
  EXPECT_EQ(pair.sender->accesses().lookups, 2u);
  EXPECT_GE(pair.sender->accesses().updates, 1u);
}

}  // namespace
}  // namespace tcmp::compression
