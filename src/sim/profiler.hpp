// Kernel self-profiling: opt-in scoped host-time attribution for the
// event-scheduled run loop ("where did the wall-clock go?").
//
// The profiler is lap-based rather than scope-based: the driver calls lap(id)
// at the end of each section of its loop body, and the interval since the
// previous lap is attributed to that section. Consecutive laps share one
// clock read per boundary (half the cost of begin/end pairs) and cover the
// loop body contiguously — every nanosecond between start_run() and
// stop_run() lands in exactly one scope, so attribution is ~100% minus clock
// jitter (the acceptance bar is >= 95%).
//
// When no profiler is attached the driver compiles the unprofiled loop with
// zero instrumentation (CmpSystem templates its run loop on a compile-time
// flag), so the disabled overhead is exactly zero instructions: an
// unprofiled run costs the same with or without this class.
//
// Scopes are registered once (register_scope) and addressed by dense index
// thereafter; no strings on the hot path. Host time is wall time
// (steady_clock), deliberately outside the simulated-time type system.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tcmp::sim {

class SelfProfiler {
 public:
  using Clock = std::chrono::steady_clock;

  /// Register a named attribution scope; returns its dense id. Call before
  /// start_run(); names need not be unique (rows are reported per id).
  unsigned register_scope(std::string name);

  /// Begin the profiled region: starts the total timer and the lap cursor.
  void start_run() {
    run_begin_ = Clock::now();
    last_mark_ = run_begin_;
  }

  /// End the profiled region. Idempotent per start_run.
  void stop_run() { run_end_ = Clock::now(); }

  /// Attribute the interval since the previous lap (or start_run) to
  /// `scope`, and restart the cursor. Hot path: one clock read, two adds.
  void lap(unsigned scope) {
    const Clock::time_point t = Clock::now();
    Scope& s = scopes_[scope];
    s.spent += t - last_mark_;
    ++s.laps;
    last_mark_ = t;
  }

  /// Total wall time between start_run and stop_run, in nanoseconds.
  [[nodiscard]] std::uint64_t total_nanos() const;
  /// Sum of every scope's attributed time, in nanoseconds.
  [[nodiscard]] std::uint64_t attributed_nanos() const;
  /// attributed / total (0 when never run).
  [[nodiscard]] double attribution_fraction() const;

  struct Row {
    std::string name;
    std::uint64_t nanos = 0;
    std::uint64_t laps = 0;
    double share = 0.0;  ///< fraction of total wall time
  };
  /// Per-scope rows, sorted by attributed time (descending), plus the
  /// implicit "unattributed" remainder row when it is nonzero.
  [[nodiscard]] std::vector<Row> rows() const;

  /// Human-readable "where the wall-clock went" table.
  void write_table(std::ostream& out) const;

 private:
  struct Scope {
    std::string name;
    Clock::duration spent{};
    std::uint64_t laps = 0;
  };

  std::vector<Scope> scopes_;
  Clock::time_point run_begin_{};
  Clock::time_point run_end_{};
  Clock::time_point last_mark_{};
};

}  // namespace tcmp::sim
