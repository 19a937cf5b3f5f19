// Event-scheduled kernel tests: wake-calendar ordering/coalescing and lazy
// stale drain, next_wake clamping and hot-component early exit, the
// ScheduledEvent adapter, and system-level guarantees — a sleepy core's next
// wake is exactly its fill deadline, dead-cycle skipping is bit-identical
// to the per-cycle loop, and on a mostly-dead machine the driver steps only
// a small share of the cycles it simulates.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cmp/system.hpp"
#include "sim/kernel.hpp"
#include "sim/profiler.hpp"
#include "sim/scheduled.hpp"
#include "workloads/synthetic_app.hpp"

namespace tcmp::sim {
namespace {

/// Mock component with a settable next event; counts next_event() calls so
/// tests can observe the kernel's scan early-exit.
class MockScheduled final : public Scheduled {
 public:
  explicit MockScheduled(Cycle next, bool quiet = true)
      : next_(next), quiet_(quiet) {}
  [[nodiscard]] Cycle next_event() const override {
    ++calls_;
    return next_;
  }
  [[nodiscard]] bool quiescent() const override { return quiet_; }
  void set_next(Cycle next) { next_ = next; }
  void set_quiescent(bool q) { quiet_ = q; }
  [[nodiscard]] unsigned calls() const { return calls_; }

 private:
  Cycle next_;
  bool quiet_;
  mutable unsigned calls_ = 0;
};

TEST(SimKernel, EmptyKernelIsDeadAndQuiescent) {
  SimKernel kernel;
  EXPECT_EQ(kernel.next_wake(Cycle{0}), kNeverCycle);
  EXPECT_TRUE(kernel.quiescent());
}

TEST(SimKernel, CalendarReturnsWakesInOrder) {
  SimKernel kernel;
  kernel.wake(Cycle{20});
  kernel.wake(Cycle{5});
  kernel.wake(Cycle{10});
  EXPECT_EQ(kernel.next_wake(Cycle{0}), Cycle{5});
  EXPECT_EQ(kernel.next_wake(Cycle{5}), Cycle{10});
  EXPECT_EQ(kernel.next_wake(Cycle{10}), Cycle{20});
  EXPECT_EQ(kernel.next_wake(Cycle{20}), kNeverCycle);
}

TEST(SimKernel, CalendarDrainsStaleEntriesLazily) {
  SimKernel kernel;
  kernel.wake(Cycle{3});
  kernel.wake(Cycle{4});
  kernel.wake(Cycle{50});
  EXPECT_EQ(kernel.calendar_size(), 3u);
  // Entries at or before `now` are already satisfied: dropped on query.
  EXPECT_EQ(kernel.next_wake(Cycle{10}), Cycle{50});
  EXPECT_EQ(kernel.calendar_size(), 1u);
}

TEST(SimKernel, CalendarCoalescesDuplicateTop) {
  SimKernel kernel;
  kernel.wake(Cycle{7});
  kernel.wake(Cycle{7});
  kernel.wake(Cycle{7});
  EXPECT_EQ(kernel.calendar_size(), 1u);
  // A different top defeats the cheap coalescing — both entries stay, and
  // both resolve correctly.
  kernel.wake(Cycle{5});
  kernel.wake(Cycle{7});
  EXPECT_EQ(kernel.calendar_size(), 3u);
  EXPECT_EQ(kernel.next_wake(Cycle{0}), Cycle{5});
  EXPECT_EQ(kernel.next_wake(Cycle{6}), Cycle{7});
}

TEST(SimKernel, ClampsPastComponentEventsToNextCycle) {
  SimKernel kernel;
  MockScheduled hot(kEveryCycle);
  kernel.add_component(&hot);
  EXPECT_EQ(kernel.next_wake(Cycle{100}), Cycle{101});
  hot.set_next(Cycle{50});  // stale (<= now): still means "act now"
  EXPECT_EQ(kernel.next_wake(Cycle{100}), Cycle{101});
  hot.set_next(Cycle{101});  // exactly next cycle
  EXPECT_EQ(kernel.next_wake(Cycle{100}), Cycle{101});
}

TEST(SimKernel, TakesMinOverComponentsAndCalendar) {
  SimKernel kernel;
  MockScheduled a(Cycle{40});
  MockScheduled b(Cycle{30});
  kernel.add_component(&a);
  kernel.add_component(&b);
  EXPECT_EQ(kernel.next_wake(Cycle{10}), Cycle{30});
  kernel.wake(Cycle{25});
  EXPECT_EQ(kernel.next_wake(Cycle{10}), Cycle{25});
  b.set_next(kNeverCycle);
  EXPECT_EQ(kernel.next_wake(Cycle{26}), Cycle{40});
}

TEST(SimKernel, HotComponentShortCircuitsTheScan) {
  SimKernel kernel;
  MockScheduled first(kEveryCycle);
  MockScheduled second(Cycle{500});
  kernel.add_component(&first);
  kernel.add_component(&second);
  EXPECT_EQ(kernel.next_wake(Cycle{0}), Cycle{1});
  EXPECT_EQ(first.calls(), 1u);
  EXPECT_EQ(second.calls(), 0u);  // registration order = scan priority
  // An imminent calendar wake short-circuits even the first component.
  kernel.wake(Cycle{2});
  EXPECT_EQ(kernel.next_wake(Cycle{1}), Cycle{2});
  EXPECT_EQ(first.calls(), 1u);
}

TEST(SimKernel, QuiescentNeedsAllComponentsQuietAndEmptyCalendar) {
  SimKernel kernel;
  MockScheduled quiet(kNeverCycle, /*quiet=*/true);
  MockScheduled busy(kNeverCycle, /*quiet=*/false);
  kernel.add_component(&quiet);
  EXPECT_TRUE(kernel.quiescent());
  kernel.wake(Cycle{5});
  EXPECT_FALSE(kernel.quiescent());  // outstanding wake = in-flight work
  EXPECT_EQ(kernel.next_wake(Cycle{5}), kNeverCycle);
  EXPECT_TRUE(kernel.quiescent());  // drained lazily by the query
  kernel.add_component(&busy);
  EXPECT_FALSE(kernel.quiescent());
}

TEST(SimKernel, ScheduledEventAdapterForwardsToFunction) {
  Cycle due{123};
  auto next = [&due] { return due; };
  ScheduledEvent<decltype(next)> event(next);
  SimKernel kernel;
  kernel.add_component(&event);
  EXPECT_EQ(kernel.next_wake(Cycle{0}), Cycle{123});
  due = Cycle{456};
  EXPECT_EQ(kernel.next_wake(Cycle{200}), Cycle{456});
  EXPECT_TRUE(event.quiescent());
}

/// Core 0 issues one remote load then finishes; every other core is done
/// from the start. The cleanest possible "sleepy core" machine: after the
/// miss goes out, nothing in the system has work until the fill deadline.
class SingleLoadWorkload final : public core::Workload {
 public:
  core::Op next(unsigned core) override {
    if (core != 0 || issued_) return core::Op::done();
    issued_ = true;
    return core::Op::load(LineAddr{1});  // home = tile 1: a remote miss
  }
  [[nodiscard]] std::string name() const override { return "single-load"; }

 private:
  bool issued_ = false;
};

TEST(EventKernelSystem, SleepyCoreWakesExactlyAtFillDeadline) {
  cmp::CmpSystem system(cmp::CmpConfig::baseline(),
                        std::make_shared<SingleLoadWorkload>());
  // Step until the machine goes deeply dead: core 0 blocked on a miss whose
  // home directory is waiting on the 400-cycle memory pipe. (Shorter dead
  // gaps — link flights, the L2 access pipe — come first; skip past those.)
  Cycle nxt{0};
  for (unsigned i = 0; i < 1000; ++i) {
    system.step();
    nxt = system.kernel().next_wake(system.total_cycles());
    if (nxt > system.total_cycles() + 100) break;
  }
  ASSERT_GT(nxt, system.total_cycles() + 100) << "machine never went dead";
  EXPECT_TRUE(system.core(0).blocked());
  // The next wake is exactly the earliest directory pipeline deadline — the
  // memory fill feeding the sleepy core — not a cycle earlier or later.
  Cycle fill_deadline = kNeverCycle;
  for (unsigned t = 0; t < 16; ++t) {
    fill_deadline = std::min(fill_deadline, system.directory(t).next_event());
  }
  EXPECT_EQ(nxt, fill_deadline);
  ASSERT_NE(fill_deadline, kNeverCycle);

  // Skipping across the dead span reaches the same completion cycle as the
  // per-cycle loop.
  cmp::CmpSystem percycle(cmp::CmpConfig::baseline(),
                          std::make_shared<SingleLoadWorkload>());
  for (unsigned i = 0; i < 100'000 && !percycle.finished(); ++i) percycle.step();
  ASSERT_TRUE(percycle.finished());
  ASSERT_TRUE(system.run(Cycle{100'000}));
  EXPECT_EQ(system.total_cycles(), percycle.total_cycles());
  EXPECT_EQ(system.total_instructions(), percycle.total_instructions());
}

/// Everything merged_stats() reports, in comparable form.
struct StatsView {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::vector<std::uint64_t>> histogram_bins;
  std::map<std::string, std::pair<std::uint64_t, double>> histogram_scalars;
};

StatsView view_of(const StatRegistry& stats) {
  StatsView v;
  for (const auto& [name, value] : stats.counters()) v.counters[name] = value;
  for (const auto& [name, h] : stats.histograms()) {
    v.histogram_bins[name] = h.bins();
    v.histogram_scalars[name] = {h.scalar().count(), h.scalar().sum()};
  }
  return v;
}

/// Dead-cycle skipping against the dense per-cycle loop, through the one
/// cycle driver at `threads` partitions.
void expect_dead_cycle_skipping_identical(unsigned threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  const auto params = workloads::app("MP3D").scaled(0.05);
  auto run_mode = [&](bool skipping) {
    auto cfg = cmp::CmpConfig::baseline();
    cfg.threads = threads;
    cmp::CmpSystem system(
        cfg, std::make_shared<workloads::SyntheticApp>(params, 16));
    EXPECT_EQ(system.num_partitions(), threads);
    system.set_dead_cycle_skipping(skipping);
    EXPECT_TRUE(system.run(Cycle{200'000'000}));
    return std::make_tuple(system.total_cycles(), system.total_instructions(),
                           view_of(system.merged_stats()));
  };
  const auto event = run_mode(true);
  const auto loop = run_mode(false);
  EXPECT_EQ(std::get<0>(event), std::get<0>(loop));
  EXPECT_EQ(std::get<1>(event), std::get<1>(loop));
  // Every merged counter and histogram matches exactly — including the
  // blocked-cycle accounting that advance_idle bulk-replicates.
  EXPECT_EQ(std::get<2>(event).counters, std::get<2>(loop).counters);
  EXPECT_EQ(std::get<2>(event).histogram_bins,
            std::get<2>(loop).histogram_bins);
  EXPECT_EQ(std::get<2>(event).histogram_scalars,
            std::get<2>(loop).histogram_scalars);
}

TEST(EventKernelSystem, DeadCycleSkippingIsBitIdentical) {
  for (const unsigned threads : {1u, 4u}) {
    expect_dead_cycle_skipping_identical(threads);
  }
}

/// Restricts a workload to its first `n_active` cores (the rest finish
/// immediately). A blocking in-order core has MLP 1, so `n_active` bounds
/// the number of concurrent misses in the whole machine.
class ActiveSubsetWorkload final : public core::Workload {
 public:
  ActiveSubsetWorkload(std::shared_ptr<core::Workload> inner, unsigned n_active)
      : inner_(std::move(inner)), n_active_(n_active) {}

  core::Op next(unsigned core) override {
    return core < n_active_ ? inner_->next(core) : core::Op::done();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool has_warmup() const override { return inner_->has_warmup(); }
  [[nodiscard]] std::uint64_t code_lines() const override {
    return inner_->code_lines();
  }

 private:
  std::shared_ptr<core::Workload> inner_;
  unsigned n_active_;
};

/// Share of simulated cycles the driver actually stepped, on `n_active`
/// cores missing into a cache-busting footprint behind `memory_latency`.
/// A stepped (live) cycle is one lap of the self-profiler's `network`
/// scope — the same count perfbench reports as sim.live_cycle_frac. The
/// count is deterministic, so unlike a wall-clock speedup it is a bound
/// that holds on any host.
double live_cycle_frac(std::uint64_t ops, unsigned n_active,
                       Cycle memory_latency) {
  workloads::AppParams p;
  p.name = "dead-cycles";
  p.ops_per_core = ops;
  p.warmup_frac = 0.0;
  p.spatial_locality = 0.1;
  p.line_dwell = 1.0;
  p.private_lines = 1 << 16;
  p.shared_frac = 0.05;
  p.compute_per_mem = 0.0;
  auto cfg = cmp::CmpConfig::baseline();
  cfg.l2.memory_latency = memory_latency;
  cmp::CmpSystem system(
      cfg, std::make_shared<ActiveSubsetWorkload>(
               std::make_shared<workloads::SyntheticApp>(p, cfg.n_tiles),
               n_active));
  SelfProfiler prof;
  system.set_profiler(&prof);
  EXPECT_TRUE(system.run());
  std::uint64_t live = 0;
  for (const auto& row : prof.rows()) {
    if (row.name == "network") live = row.laps;
  }
  return static_cast<double>(live) /
         static_cast<double>(system.total_cycles().value());
}

// One core missing into a 2000-cycle memory: over 99% of cycles are dead
// (measured 34,993 live of 3,853,455). Without skipping the share is 1.
TEST(EventKernelSystem, IdleMachineStepsFewCycles) {
  EXPECT_LT(live_cycle_frac(2000, 1, Cycle{2000}), 0.0125);
}

// Two blocking cores behind the Table-4 400-cycle memory: most cycles are
// dead (measured 135,253 live of 1,453,707).
TEST(EventKernelSystem, MemoryBoundMachineStepsFewCycles) {
  EXPECT_LT(live_cycle_frac(4000, 2, Cycle{400}), 0.125);
}

}  // namespace
}  // namespace tcmp::sim
