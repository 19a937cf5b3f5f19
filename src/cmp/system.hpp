// Full-CMP assembly and simulation driver: n_tiles tiles (core + L1 + L2/
// directory slice + NIC, 16 up to 256+ via CmpConfig::with_tiles) over the
// (possibly heterogeneous) mesh, plus a global barrier controller. Parallel
// parameter sweeps still run one CmpSystem per configuration
// (bench/bench_util.hpp provides the sweep driver).
//
// Timing is event-scheduled (sim/kernel.hpp): every component implements the
// Scheduled contract, and run() jumps the clock across globally dead cycles
// instead of ticking an idle machine. Every live cycle executes the same
// component sequence as the plain per-cycle loop, so results are
// bit-identical to it (docs/kernel.md).
//
// One cycle driver serves every CmpConfig::threads = K. The tile array is
// split into K contiguous row-block partitions (sim/partition.hpp), each with
// its own SimKernel wake calendar and StatRegistry shard; K = 1 is the
// one-partition case, run on the calling thread with no worker and no spin
// barrier. A live cycle is a serial prologue, one parallel phase per
// partition (on K threads in cycle lockstep when K > 1), then a serial
// epilogue. Cross-partition interaction is message-only: NoC flits/credits
// ride boundary channels swapped once per cycle under the >= 1-cycle link
// synchronization horizon, barrier arrivals are recorded as events and
// replayed serially in tile order, and the slack beneficiary probe reads a
// double-buffered stall snapshot from the previous cycle. Simulation results
// are deterministic and independent of K: the reports and counter maps —
// slack telemetry included — are equal at any K (docs/partitioning.md).
#pragma once

#include <array>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include <string>

#include "cmp/config.hpp"
#include "common/stats.hpp"
#include "core/core_model.hpp"
#include "core/workload.hpp"
#include "het/nic.hpp"
#include "noc/network.hpp"
#include "obs/flight_recorder.hpp"
#include "protocol/delay_queue.hpp"
#include "protocol/directory.hpp"
#include "protocol/icache.hpp"
#include "protocol/l1_cache.hpp"
#include "sim/kernel.hpp"
#include "sim/partition.hpp"

namespace tcmp::obs {
class Observer;
class SlackTelemetry;
}
namespace tcmp::sim {
class SelfProfiler;
}

namespace tcmp::cmp {

class CmpSystem {
 public:
  CmpSystem(const CmpConfig& cfg, std::shared_ptr<core::Workload> workload);
  /// Unregisters the post-mortem abort hook, if one was installed.
  ~CmpSystem();
  CmpSystem(const CmpSystem&) = delete;
  CmpSystem& operator=(const CmpSystem&) = delete;

  /// Run until every core finished and the machine drained, or `max_cycles`
  /// elapsed. Returns true when the workload completed. Skips globally dead
  /// cycles via the event kernel (see set_dead_cycle_skipping).
  bool run(Cycle max_cycles = Cycle{500'000'000});

  /// Single simulation step (tests, the sampling driver). Always advances
  /// exactly one cycle; the partition phases run in index order on the
  /// calling thread, which the double-buffered boundary state makes
  /// equivalent to the threaded run.
  void step();

  /// Disable/enable dead-cycle skipping in run(). Results are bit-identical
  /// either way; the per-cycle loop exists as a determinism cross-check
  /// (EventKernelSystem.DeadCycleSkippingIsBitIdentical).
  void set_dead_cycle_skipping(bool on) { dead_cycle_skipping_ = on; }
  [[nodiscard]] bool dead_cycle_skipping() const { return dead_cycle_skipping_; }

  /// The event kernel (tests: wake-calendar and next-wake behavior): partition
  /// 0's, which at K = 1 is the only one; each partition owns its own.
  [[nodiscard]] sim::SimKernel& kernel() { return parts_[0]->kernel; }
  [[nodiscard]] const sim::SimKernel& kernel() const { return parts_[0]->kernel; }
  /// Partitions the tile array is split into (the effective K).
  [[nodiscard]] unsigned num_partitions() const { return n_parts_; }

  /// Measured cycles (excludes the functional-warmup phase, if any).
  [[nodiscard]] Cycle cycles() const { return now_ - measure_start_; }
  [[nodiscard]] Cycle total_cycles() const { return now_; }
  [[nodiscard]] bool warmup_done() const { return warmup_done_; }
  /// Every core done and the machine drained (see drained()).
  [[nodiscard]] bool finished() const;
  [[nodiscard]] std::uint64_t total_instructions() const;
  [[nodiscard]] std::uint64_t compression_accesses() const;
  /// Instruction / compression-access counts for the measured phase only.
  [[nodiscard]] std::uint64_t measured_instructions() const {
    return total_instructions() - warmup_instructions_;
  }
  [[nodiscard]] std::uint64_t measured_compression_accesses() const {
    return compression_accesses() - warmup_compression_accesses_;
  }

  [[nodiscard]] const CmpConfig& config() const { return cfg_; }
  [[nodiscard]] const StatRegistry& stats() const { return stats_; }
  [[nodiscard]] StatRegistry& stats() { return stats_; }
  /// Registry view for reports and exports: at K = 1 the registry itself; at
  /// K > 1 the partition shards folded together in partition-index order
  /// (StatRegistry::merge_from). The merge is recomputed on every call —
  /// references into a previous return value do not survive the next one —
  /// so call it at report time, not per cycle.
  [[nodiscard]] const StatRegistry& merged_stats() const;
  [[nodiscard]] core::Workload& workload() { return *workload_; }

  // Component access for tests and examples. These hand out references into
  // tile-owned state, which is exactly what the tile-escape lint polices:
  // they are sanctioned for single-threaded drivers (tests, examples,
  // verify scans) only and must never be called from sweep worker threads
  // or, later, across partition boundaries (docs/static-analysis.md).
  // tcmplint: tile-seam (single-threaded test/verify access)
  [[nodiscard]] protocol::L1Cache& l1(unsigned tile) { return *tiles_[tile]->l1; }
  // tcmplint: tile-seam (single-threaded test/verify access)
  [[nodiscard]] protocol::Directory& directory(unsigned tile) {
    return *tiles_[tile]->dir;
  }
  // tcmplint: tile-seam (single-threaded test/verify access)
  [[nodiscard]] core::Core& core(unsigned tile) { return *tiles_[tile]->core; }
  // tcmplint: tile-seam (single-threaded test/verify access)
  [[nodiscard]] het::TileNic& nic(unsigned tile) { return *tiles_[tile]->nic; }
  [[nodiscard]] noc::Network& network() { return *network_; }
  [[nodiscard]] const noc::Network& network() const { return *network_; }

  /// Human-readable machine-state snapshot (deadlock triage, debugging):
  /// per-core progress and block reasons, outstanding protocol transactions,
  /// network occupancy.
  void dump_state(std::ostream& out) const;

  /// Observe every remote (mesh-traversing) message at injection time.
  /// Used by the compression-coverage bench to capture address streams.
  using MsgHook = std::function<void(const protocol::CoherenceMsg&)>;
  void set_remote_msg_hook(MsgHook hook) { remote_hook_ = std::move(hook); }

  /// Install a periodic global check (the coherence-lint scanner): `check`
  /// runs every `interval` cycles at the end of step(); returning false
  /// aborts the run (aborted() turns true and run() stops). Interval 0 or a
  /// null function uninstalls.
  using PeriodicCheck = std::function<bool(Cycle)>;
  void set_periodic_check(Cycle interval, PeriodicCheck check);
  /// True when a periodic check failed; run() returns false from then on.
  [[nodiscard]] bool aborted() const { return aborted_; }

  /// Wire a message-lifecycle / telemetry observer into every component
  /// (network, routers, NICs, L1s, directories) and register the directory
  /// occupancy gauges. Null detaches. The observer must outlive the system
  /// (or be detached first). At levels >= kTimeseries this also enables the
  /// slack/criticality telemetry (obs/slack.hpp): messages are tagged at
  /// injection and realized slack is measured at core unstall; the observer's
  /// telemetry becomes partition 0's slack sink. Observers are a
  /// single-threaded feature: attaching one requires threads == 1 (their
  /// trace/window state is shared across tiles). At K > 1 the only supported
  /// telemetry is the sharded slack path below.
  void attach_observer(obs::Observer* obs);

  /// Slack telemetry without an observer (K > 1): one SlackTelemetry shard
  /// per partition, registered on that partition's registry shard under the
  /// same stat names, so the report-time merge reassembles the
  /// distributions a K = 1 observer records. Call before run().
  void enable_slack_telemetry();
  /// Write the slack class x wire table (tcmpsim --slack-report): finalizes
  /// every partition's slack sink and reads the merged registry view. No-op
  /// when slack telemetry is off.
  void write_slack_table(std::ostream& out);

  /// Attach an opt-in host-time self-profiler (sim/profiler.hpp; threads ==
  /// 1): run() switches to an instrumented loop that attributes wall time per
  /// driver section and per kernel phase (pull scan / dead-cycle skip). Null
  /// detaches (the unprofiled loop carries zero instrumentation). Results
  /// are bit-identical either way.
  void set_profiler(sim::SelfProfiler* prof);
  [[nodiscard]] sim::SelfProfiler* profiler() const { return prof_; }
  /// Profiler table plus the kernel's per-component pull-scan attribution.
  void write_self_profile(std::ostream& out) const;

  /// The always-on flight recorder: a bounded ring of recent
  /// message-lifecycle events per tile (obs/flight_recorder.hpp).
  [[nodiscard]] const obs::FlightRecorder& flight_recorder() const {
    return flight_;
  }
  /// Arm the crash post-mortem: on a TCMP_CHECK/TCMP_DCHECK abort (via the
  /// common/abort.hpp hooks) or an explicit dump_postmortem() call — e.g.
  /// after a coherence-lint abort — the flight recorder is dumped to `path`.
  /// Empty disarms.
  void set_postmortem_path(std::string path);
  [[nodiscard]] const std::string& postmortem_path() const {
    return postmortem_path_;
  }
  /// Dump the flight recorder to the armed path now (lint-abort path).
  /// Returns false when disarmed or the file could not be written.
  bool dump_postmortem() const;

  // --- Checkpoint/restore (docs/checkpointing.md) --------------------------
  // A checkpoint is taken between cycles and captures every bit of
  // simulation-visible state: cores, caches, directories, NIC compressor /
  // sequence state, routers, wake calendars, stat shards, RNGs, barrier
  // controller, and the workload's cursors (the workload must report
  // can_snapshot()). A restored run continues byte-identically to the
  // uninterrupted one at the same --threads K; the fingerprint refuses a
  // snapshot taken under a different config, workload, or K. Runtime
  // attachments (observer, periodic check, profiler, postmortem path) are
  // deliberately NOT captured — they are re-made by the driver.
  void save_checkpoint(std::ostream& out);
  void load_checkpoint(std::istream& in);
  /// Config/workload identity baked into the snapshot header.
  [[nodiscard]] std::string snapshot_fingerprint() const;

 private:
  /// One body for both archive directions (save/load_checkpoint dispatch).
  template <typename Ar>
  void snapshot_io(Ar& ar);

  friend class SampledRun;  // the sampling driver (cmp/sampling.cpp) drives
                            // fence/drain/warm phases through private state
  struct Tile {
    std::unique_ptr<protocol::L1Cache> l1;
    std::unique_ptr<protocol::ICache> l1i;
    std::unique_ptr<protocol::Directory> dir;
    std::unique_ptr<core::Core> core;
    std::unique_ptr<het::TileNic> nic;
    /// Tile-internal messages (L1 <-> local L2 slice) bypass the mesh.
    /// FIFO pipe: pushed with the constant local latency at non-decreasing
    /// now_, so deadlines are monotone.
    protocol::FifoDelayQueue<protocol::CoherenceMsg> loopback;
  };

  /// A core's barrier arrival or done transition observed during the
  /// parallel phase; replayed serially in tile order.
  struct BarrierEvent {
    unsigned core = 0;
    std::uint32_t id = 0;   ///< barrier id (arrivals only)
    bool done = false;      ///< true: done transition, false: barrier arrival
  };

  /// One partition's private simulation state (docs/partitioning.md). At
  /// K = 1 there is exactly one, whose shard aliases stats_.
  struct Partition {
    /// The partition's tiles (a contiguous row block, in tile order) and the
    /// id of the first one.
    std::span<const std::unique_ptr<Tile>> tiles;
    unsigned first_tile = 0;
    sim::SimKernel kernel;
    std::unique_ptr<StatRegistry> owned_shard;  ///< null for partition 0
    StatRegistry* shard = nullptr;              ///< == &stats_ for partition 0
    /// Interned per-shard handles for the driver-level message counters
    /// (route_outgoing runs on the owning partition's thread).
    std::array<CounterRef, protocol::kNumMsgTypes> msg_counters{};
    CounterRef local_count;
    CounterRef remote_count;
    CounterRef remote_bytes;
    /// Adapter exposing Network::next_event_partition to the kernel.
    std::unique_ptr<sim::Scheduled> net_event;
    /// Barrier arrivals / done transitions recorded (tile-ordered) during
    /// the parallel phase, replayed serially (replay_barrier_events).
    std::vector<BarrierEvent> events;
    /// The partition's slack sink: the attached observer's telemetry at
    /// K = 1, owned_slack at K > 1 (enable_slack_telemetry); null when slack
    /// telemetry is off.
    std::unique_ptr<obs::SlackTelemetry> owned_slack;
    obs::SlackTelemetry* slack = nullptr;
    // Epilogue inputs, written by the owning thread at the end of its
    // parallel phase and read serially between the barriers.
    bool finished = false;
    Cycle next_wake{0};
  };

  void route_outgoing(NodeId tile, protocol::CoherenceMsg msg);
  void deliver_local(NodeId tile, const protocol::CoherenceMsg& msg);
  /// Slack telemetry: was the core that benefits from `msg` (the requester
  /// whose miss it serves) stalled waiting for it? Reads the previous
  /// cycle's published stall snapshot: the beneficiary may live in another
  /// partition, and one probe for every K keeps the classification
  /// K-invariant (docs/partitioning.md).
  [[nodiscard]] bool beneficiary_stalled(const protocol::CoherenceMsg& msg) const;
  /// The slack telemetry sink for events on `tile` (null when slack is off).
  [[nodiscard]] obs::SlackTelemetry* slack_for(unsigned tile) const {
    return parts_[part_of_[tile]]->slack;
  }
  [[nodiscard]] std::vector<std::string> wire_class_names() const;
  // --- The cycle driver (docs/partitioning.md) ----------------------------
  /// run() body, compiled with or without self-profiler laps (the
  /// unprofiled variant carries no instrumentation; results are
  /// bit-identical in both). K - 1 worker threads plus this thread as the
  /// partition-0 worker and coordinator, two spin-barrier waits per live
  /// cycle; at K = 1 no worker and no barrier.
  template <bool kProfiled>
  bool run_loop(Cycle max_cycles);
  /// Serial prologue of a live cycle: advance the clock, take a due
  /// time-series sample, publish the clock to the network.
  template <bool kProfiled>
  void prologue();
  /// Partition p's share of one live cycle: drain boundary events, tick the
  /// partition's routers/lanes, pop loopbacks, tick directories and cores
  /// (recording barrier events), publish the stall snapshot. With
  /// `lookahead` (the run loop) it also computes the partition's finished
  /// flag and, when dead-cycle skipping is on, its next wake.
  template <bool kProfiled>
  void parallel_phase(unsigned p, bool lookahead);
  /// Between the cycle's barriers: barrier-event replay, stall-snapshot
  /// publish, periodic check, boundary exchange. Returns the earliest next
  /// live cycle (kNeverCycle when nothing is pending) and sets
  /// epilogue_finished_; both read the parallel phases' lookahead.
  template <bool kProfiled>
  Cycle serial_epilogue();
  /// Replay the parallel phase's barrier arrivals / done transitions (at
  /// least one was recorded) in tile order, reproducing a serial tile-order
  /// tick's mid-cycle releases (undo the provisionally blocked ticks,
  /// release, re-tick). Returns true when any release happened.
  bool replay_barrier_events();
  /// Tile-order handling of one barrier arrival during replay.
  void replay_arrival(unsigned core, std::uint32_t id);
  /// Partition p's memory system and network quiescent (cores not checked).
  [[nodiscard]] bool partition_drained(unsigned p) const;
  [[nodiscard]] bool partition_finished(unsigned p) const;
  /// Every partition drained and no boundary event in flight.
  [[nodiscard]] bool drained() const;
  /// Barrier controller, serial side. The one arrival routine (replay and
  /// the sampling fast-forward): record `core` at barrier `id`; returns true
  /// when, with `done` cores finished, the barrier is complete — the caller
  /// releases it.
  bool barrier_arrive(unsigned core, std::uint32_t id, unsigned done);
  /// A pending barrier that every core not among the `done` has reached.
  [[nodiscard]] bool barrier_complete(unsigned done) const {
    return waiting_ > 0 && waiting_ + done == cfg_.n_tiles;
  }
  [[nodiscard]] unsigned done_cores() const;
  /// Core barrier handler: queues the arrival for the serial replay, or
  /// handles it in place for a core re-ticked inside the replay.
  void on_barrier(unsigned core, std::uint32_t id);
  void release_barrier();
  void end_warmup();
  /// Jump the clock to `target`, bulk-accounting the blocked-core cycles the
  /// per-cycle loop would have accrued. Only valid when every cycle in
  /// (now_, target] is globally dead.
  void advance_idle(Cycle target);

  CmpConfig cfg_;
  // Serialized through the per-partition shard pointers in the checkpoint's
  // stats section, which alias this registry.
  // tcmplint: snapshot-exempt (saved via the aliasing per-partition shards)
  StatRegistry stats_;
  // tcmplint: snapshot-exempt (config-derived; rebuilt by the constructor)
  sim::PartitionPlan plan_;
  unsigned n_parts_ = 1;
  // tcmplint: snapshot-exempt (derived from plan_; rebuilt by the ctor)
  std::vector<unsigned> part_of_;  ///< [tile] owning partition
  std::vector<std::unique_ptr<Partition>> parts_;
  /// Merge cache behind merged_stats() (K > 1 report path).
  // tcmplint: snapshot-exempt (cache; recomputed on demand after restore)
  mutable StatRegistry merged_;
  // tcmplint: snapshot-exempt (config toggle, not simulation state)
  bool dead_cycle_skipping_ = true;
  /// Hoisted per-cycle conditions: the next cycle at which the time-series
  /// sampler / the periodic check may fire (kNeverCycle when detached).
  /// step() compares against these instead of re-testing obs_ != nullptr and
  /// now_ % check_interval_ every cycle; both are also kernel wake sources.
  // tcmplint: snapshot-exempt (re-derived by attach_observer after restore)
  Cycle obs_sample_due_{kNeverCycle};
  // tcmplint: snapshot-exempt (re-anchored by load_checkpoint)
  Cycle check_due_{kNeverCycle};
  // tcmplint: snapshot-exempt (kernel wake registration; attach re-creates)
  std::unique_ptr<sim::Scheduled> obs_event_;
  // tcmplint: snapshot-exempt (kernel wake registration; attach re-creates)
  std::unique_ptr<sim::Scheduled> check_event_;
  // tcmplint: snapshot-exempt (runtime attachment; set_periodic_check)
  Cycle check_interval_{0};
  // tcmplint: snapshot-exempt (runtime attachment; set_periodic_check)
  PeriodicCheck periodic_check_;
  // tcmplint: snapshot-exempt (save_checkpoint refuses aborted runs)
  bool aborted_ = false;
  // Interned stat handles for the serially-handled barrier controller
  // (shard 0; the per-message counters live in Partition::msg_counters).
  CounterRef barrier_arrivals_;
  CounterRef barriers_completed_;
  std::shared_ptr<core::Workload> workload_;
  // tcmplint: snapshot-exempt (runtime attachment, re-installed after restore)
  MsgHook remote_hook_;
  obs::Observer* obs_ = nullptr;
  /// Always-on bounded message-lifecycle history (crash post-mortems).
  // tcmplint: snapshot-exempt (host-side debugging ring, never sim input)
  obs::FlightRecorder flight_;
  // tcmplint: snapshot-exempt (host-side crash plumbing, never sim input)
  std::string postmortem_path_;
  // tcmplint: snapshot-exempt (process-local abort registration)
  std::uint64_t abort_token_ = 0;  ///< common/abort.hpp registration
  /// Opt-in self-profiler and its registered scope ids (set_profiler).
  sim::SelfProfiler* prof_ = nullptr;
  // tcmplint: snapshot-exempt (profiler scope ids; set_profiler re-registers)
  unsigned sc_obs_ = 0, sc_net_ = 0, sc_loopback_ = 0, sc_dirs_ = 0,
           sc_cores_ = 0, sc_barrier_ = 0, sc_check_ = 0, sc_drain_ = 0,
           sc_scan_ = 0, sc_idle_ = 0;
  std::unique_ptr<noc::Network> network_;
  std::vector<std::unique_ptr<Tile>> tiles_;
  Cycle now_{0};

  // Barrier controller. This state is touched only serially (the parallel
  // phase records events; replay_barrier_events applies them).
  std::vector<bool> at_barrier_;
  unsigned waiting_ = 0;
  std::uint32_t pending_barrier_id_ = 0;
  /// True inside replay_barrier_events: on_barrier handles arrivals of
  /// re-ticked cores in place instead of queueing them.
  // tcmplint: snapshot-exempt (epilogue scratch, false between cycles)
  bool replaying_ = false;
  // replay_barrier_events working state (serial epilogue only): scratch that
  // is always consumed before the between-cycles checkpoint boundary.
  // tcmplint: snapshot-exempt (epilogue scratch, idle between cycles)
  unsigned replay_done_count_ = 0;
  // tcmplint: snapshot-exempt (epilogue scratch, idle between cycles)
  std::vector<bool> replay_retick_;
  // tcmplint: snapshot-exempt (epilogue scratch, idle between cycles)
  bool replay_any_action_ = false;
  // tcmplint: snapshot-exempt (epilogue scratch, recomputed every cycle)
  bool epilogue_finished_ = false;
  /// Double-buffered per-tile stall snapshots for the slack probe: the
  /// parallel phase writes next (own tiles only, while slack telemetry is
  /// on), the serial epilogue swaps, beneficiary_stalled reads published.
  std::vector<core::StallSnapshot> stall_published_;
  std::vector<core::StallSnapshot> stall_next_;

  // Warmup/measurement boundary.
  Cycle measure_start_{0};
  bool warmup_done_ = false;
  std::uint64_t warmup_instructions_ = 0;
  std::uint64_t warmup_compression_accesses_ = 0;
};

}  // namespace tcmp::cmp
