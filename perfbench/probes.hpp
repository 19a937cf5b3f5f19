// Bench-side instrumentation for perfbench: everything here wraps the
// simulator's public API from outside, so the program under test carries no
// benchmark code.
//
//   SpanLog           in-memory spans (name, start, end, parent) recorded
//                     around the calls into each layer during the traced
//                     run, written out as JSON when the benchmark ends.
//   CountingWorkload  forwarding core::Workload that counts the ops it hands
//                     out (the instruction-conservation oracle) and, when
//                     timed, the host time spent inside the inner next().
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the log was created
    double end = 0.0;
    int parent = -1;     ///< index of the enclosing span, -1 at top level
  };

  int begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), seconds_since(origin_), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end = seconds_since(origin_);
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the part its direct
  /// children cover, summed over every span of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) by_name[spans_[i].name] += self[i];
    return by_name;
  }

  void write_json(std::ostream& out) const {
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_s\":" << s.start << ",\"end_s\":" << s.end
          << ",\"parent\":" << s.parent << "}";
    }
    out << "\n],\"self_s\":{";
    bool first = true;
    for (const auto& [name, secs] : self_seconds()) {
      out << (first ? "" : ",") << "\"" << name << "\":" << secs;
      first = false;
    }
    out << "}}\n";
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log records nothing (the untraced runs).
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name)
      : log_(log), id_(log ? log->begin(std::move(name)) : -1) {}
  ~SpanScope() {
    if (log_) log_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

class CountingWorkload final : public tcmp::core::Workload {
 public:
  CountingWorkload(std::shared_ptr<tcmp::core::Workload> inner, unsigned n_cores,
                   bool timed)
      : inner_(std::move(inner)),
        cores_(n_cores),
        timed_(timed),
        has_warmup_(inner_->has_warmup()) {}

  tcmp::core::Op next(unsigned core) override {
    PerCore& pc = cores_[core];
    tcmp::core::Op op;
    if (timed_) {
      const Clock::time_point t0 = Clock::now();
      op = inner_->next(core);
      pc.nanos += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
              .count());
    } else {
      op = inner_->next(core);
    }
    std::uint64_t instr = 0;
    switch (op.kind) {
      case tcmp::core::OpKind::kCompute: instr = op.count; break;
      case tcmp::core::OpKind::kLoad:
      case tcmp::core::OpKind::kStore: instr = 1; break;
      case tcmp::core::OpKind::kBarrier:
        if (op.count == tcmp::core::kWarmupBarrierId) pc.measuring = true;
        break;
      case tcmp::core::OpKind::kDone: return op;
    }
    ++pc.ops;
    pc.instructions += instr;
    if (pc.measuring || !has_warmup_) pc.measured_instructions += instr;
    return op;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool has_warmup() const override { return inner_->has_warmup(); }
  [[nodiscard]] std::uint64_t code_lines() const override {
    return inner_->code_lines();
  }

  /// Ops handed out (kDone excluded).
  [[nodiscard]] std::uint64_t ops() const { return sum(&PerCore::ops); }
  /// Compute counts plus one per load/store handed out.
  [[nodiscard]] std::uint64_t instructions() const {
    return sum(&PerCore::instructions);
  }
  /// The same, counting only ops after each core's warmup barrier.
  [[nodiscard]] std::uint64_t measured_instructions() const {
    return sum(&PerCore::measured_instructions);
  }
  /// Host time spent inside the inner workload's next() (timed mode only).
  [[nodiscard]] std::uint64_t nanos() const { return sum(&PerCore::nanos); }

 private:
  /// One cache line per core: under the partitioned driver each core's
  /// next() runs on the thread that owns its tile.
  struct alignas(64) PerCore {
    std::uint64_t ops = 0;
    std::uint64_t instructions = 0;
    std::uint64_t measured_instructions = 0;
    std::uint64_t nanos = 0;
    bool measuring = false;
  };

  [[nodiscard]] std::uint64_t sum(std::uint64_t PerCore::*field) const {
    std::uint64_t total = 0;
    for (const PerCore& pc : cores_) total += pc.*field;
    return total;
  }

  std::shared_ptr<tcmp::core::Workload> inner_;
  std::vector<PerCore> cores_;
  bool timed_;
  bool has_warmup_;
};

}  // namespace perfbench
