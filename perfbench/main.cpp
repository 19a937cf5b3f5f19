// perfbench — the repository's end-to-end benchmark (see README.md in this
// directory). One process runs one workload for a fixed host-time budget,
// checks every simulation it times, and prints one JSON result line last.
//
//   perfbench --workload paper16|mesh256|sampled-replay --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--commit ID]
//   perfbench --self-test --work-dir DIR
//
// --trace 0 reports the end-to-end metrics (host time with no probes
// attached); --trace 1 runs the same workload once untraced and once with
// spans, the kernel self-profiler and op timing attached, and reports the
// per-layer metrics plus the tracing overhead.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cmp/report.hpp"
#include "cmp/sampling.hpp"
#include "cmp/system.hpp"
#include "compression/compressor.hpp"
#include "het/wire_policy.hpp"
#include "probes.hpp"
#include "protocol/coherence_msg.hpp"
#include "sim/profiler.hpp"
#include "workloads/synthetic_app.hpp"
#include "workloads/trace_io.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace tcmp;
using perfbench::Clock;
using perfbench::CountingWorkload;
using perfbench::seconds_since;
using perfbench::SpanLog;
using perfbench::SpanScope;

namespace {

// --- Workload sizing ---------------------------------------------------------
// Scales are chosen so one pass of each workload takes a few seconds on a
// 4-core host, giving several passes (and a median) per run.
constexpr double kPaperScale = 0.05;
constexpr double kMeshScale = 0.05;
constexpr unsigned kMeshTiles = 256;
constexpr unsigned kMeshThreads = 3;
constexpr double kReplayScale = 20.0;
constexpr double kSelfTestScale = 0.05;
constexpr std::size_t kMinSetups = 5;
const char* const kReplayApp = "Ocean-cont";

cmp::SamplingConfig sampling_spec() {
  cmp::SamplingConfig s;
  s.warmup = Cycle{1'000};
  s.detail = 1'000;
  s.period = 19'000;
  return s;
}

cmp::CmpConfig baseline_config(unsigned tiles, unsigned threads) {
  cmp::CmpConfig cfg = cmp::CmpConfig::baseline();
  cfg.with_tiles(tiles);
  cfg.threads = threads;
  return cfg;
}

cmp::CmpConfig het_config(unsigned tiles, unsigned threads) {
  cmp::CmpConfig cfg =
      cmp::CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2));
  cfg.with_tiles(tiles);
  cfg.threads = threads;
  return cfg;
}

/// Seed 0 keeps each application's own seed, so the runs equal what
/// `tcmpsim --app X` simulates; any other seed derives fresh inputs.
workloads::AppParams seeded(workloads::AppParams p, std::uint64_t seed,
                            double scale) {
  p = p.scaled(scale);
  if (seed != 0) p.seed += seed * 0x9E3779B97F4A7C15ULL;
  return p;
}

// --- One simulation run --------------------------------------------------------

/// What a run attaches besides the simulator itself. All null/false for the
/// timed end-to-end passes.
struct Probe {
  SpanLog* spans = nullptr;
  bool time_ops = false;   ///< CountingWorkload times the inner next()
  bool profile = false;    ///< attach sim::SelfProfiler (K = 1 only)
  bool capture = false;    ///< capture remote addresses for the compressor replay
};

/// Host-time and work totals gathered by the probes of one or more runs.
struct Layers {
  std::map<std::string, std::uint64_t> scope_nanos;
  std::uint64_t profiled_nanos = 0;
  double min_attribution = 1.0;
  std::uint64_t live_cycles = 0, sim_cycles = 0, polls = 0, hot_exits = 0,
                scans = 0;
  std::uint64_t flit_hops = 0, router_traversals = 0, l2_accesses = 0,
                l1_accesses = 0, l1_misses = 0, instructions = 0,
                blocked_cycles = 0, core_cycles = 0;
  std::uint64_t compressed = 0, uncompressed = 0, vl_msgs = 0, b_msgs = 0;
  std::uint64_t gen_nanos = 0, gen_ops = 0, replay_nanos = 0, replay_ops = 0;
  std::uint64_t replayed_msgs = 0, replay_compress_nanos = 0;

  [[nodiscard]] double scope_s(std::initializer_list<const char*> names) const {
    std::uint64_t n = 0;
    for (const char* s : names) {
      auto it = scope_nanos.find(s);
      if (it != scope_nanos.end()) n += it->second;
    }
    return static_cast<double>(n) * 1e-9;
  }
};

struct RunSpec {
  std::string label;  ///< "<app>/<config>"
  cmp::CmpConfig cfg;
  std::function<std::shared_ptr<core::Workload>()> make_workload;
  bool trace_workload = false;  ///< ops come from a .tct replay, not a generator
  bool sampled = false;
};

struct RunRecord {
  std::string label;
  std::string failure;  ///< empty when every check passed
  double setup_s = 0.0, run_s = 0.0;
  std::uint64_t cycles = 0;  ///< measured cycles (sampled: the estimate)
  cmp::RunResult result;
  std::optional<cmp::SamplingResult> sampling;
};

struct CapturedMsg {
  NodeId src, dst;
  unsigned cls;
  LineAddr line;
  bool measured;  ///< injected after the warmup boundary
};

/// Replay captured remote-message addresses through fresh compressor pairs
/// (one sender per source and class, one receiver per destination and
/// class, as the NICs hold them). The sender sees the same per-source
/// sequence as in the simulation, so the compressed count must equal the
/// simulator's counter (when given), and every decode must return the sent
/// address.
std::string replay_compressors(const std::vector<CapturedMsg>& msgs,
                               const cmp::CmpConfig& cfg,
                               std::optional<std::uint64_t> sim_compressed,
                               Layers& layers) {
  const unsigned n = cfg.n_tiles;
  std::vector<compression::CompressorPair> pairs;
  pairs.reserve(std::size_t{n} * compression::kNumMsgClasses);
  for (unsigned i = 0; i < n * compression::kNumMsgClasses; ++i) {
    pairs.push_back(compression::make_compressor(cfg.scheme, n));
  }
  std::uint64_t compressed = 0;
  bool round_trip = true;
  const Clock::time_point t0 = Clock::now();
  for (const CapturedMsg& m : msgs) {
    auto& sender = *pairs[m.src * compression::kNumMsgClasses + m.cls].sender;
    auto& receiver = *pairs[m.dst * compression::kNumMsgClasses + m.cls].receiver;
    const compression::Encoding enc = sender.compress(m.dst, m.line);
    if (enc.compressed && m.measured) ++compressed;
    round_trip &= receiver.decode(m.src, enc, m.line) == m.line;
  }
  layers.replay_compress_nanos += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  layers.replayed_msgs += msgs.size();
  if (!round_trip) return "compressor replay decoded a wrong address";
  if (sim_compressed && compressed != *sim_compressed) {
    return "compressor replay compressed " + std::to_string(compressed) +
           " addresses, the simulator " + std::to_string(*sim_compressed);
  }
  return {};
}

void add_counters(const StatRegistry& st, std::uint64_t cycles, unsigned tiles,
                  Layers& L) {
  for (const auto& [name, v] : st.counters()) {
    if (name.starts_with("noc.") && name.ends_with(".flit_hops")) L.flit_hops += v;
    if (name.starts_with("noc.") && name.ends_with(".router_traversals"))
      L.router_traversals += v;
  }
  L.l2_accesses += st.counter_value("l2.accesses");
  L.l1_accesses += st.counter_value("l1.accesses");
  L.l1_misses += st.counter_value("l1.read_misses") +
                 st.counter_value("l1.write_misses") +
                 st.counter_value("l1.upgrade_misses");
  L.blocked_cycles += st.counter_value("core.blocked_cycles");
  L.core_cycles += cycles * tiles;
  L.compressed += st.counter_value("compression.compressed");
  L.uncompressed += st.counter_value("compression.uncompressed");
  L.vl_msgs += st.counter_value("het.vl_messages");
  L.b_msgs += st.counter_value("het.b_messages");
}

RunRecord execute(const RunSpec& spec, const Probe& probe, Layers* layers) {
  RunRecord rec;
  rec.label = spec.label;
  SpanScope run_span(probe.spans, spec.label);
  const unsigned tiles = spec.cfg.n_tiles;

  const Clock::time_point t0 = Clock::now();
  std::shared_ptr<CountingWorkload> wl;
  std::unique_ptr<cmp::CmpSystem> sys;
  {
    SpanScope s(probe.spans, "cmp.construct");
    wl = std::make_shared<CountingWorkload>(spec.make_workload(), tiles,
                                            probe.time_ops);
    sys = std::make_unique<cmp::CmpSystem>(spec.cfg, wl);
  }
  rec.setup_s = seconds_since(t0);

  // The self-profiler instruments run(); SampledRun drives the system
  // through its own phases, so sampled runs are never profiled.
  const bool profile = probe.profile && !spec.sampled;
  sim::SelfProfiler prof;
  if (profile) sys->set_profiler(&prof);
  std::vector<CapturedMsg> captured;
  const bool capture = probe.capture && spec.cfg.scheme.enabled();
  if (capture) {
    cmp::CmpSystem* s = sys.get();
    const compression::SchemeConfig scheme = spec.cfg.scheme;
    const wire::LinkStyle style = spec.cfg.link.style;
    sys->set_remote_msg_hook([&captured, s, scheme, style](
                                 const protocol::CoherenceMsg& m) {
      if (!het::wants_compression(m.type, scheme, style)) return;
      captured.push_back(CapturedMsg{
          m.src, m.dst,
          static_cast<unsigned>(protocol::compression_class(m.type)), m.line,
          s->warmup_done()});
    });
  }

  bool completed = false;
  std::unique_ptr<cmp::SampledRun> sampled;
  const Clock::time_point t1 = Clock::now();
  {
    SpanScope s(probe.spans, spec.sampled ? "cmp.sampled_run" : "cmp.run");
    if (spec.sampled) {
      sampled = std::make_unique<cmp::SampledRun>(*sys, sampling_spec());
      completed = sampled->run();
    } else {
      completed = sys->run();
    }
  }
  rec.run_s = seconds_since(t1);
  sys->set_remote_msg_hook(nullptr);

  // Checks: the run finished with the network drained, and the simulator
  // retired exactly the instructions the workload handed out.
  if (!completed || !sys->finished() || sys->aborted()) {
    rec.failure = "did not finish and drain";
  } else if (spec.sampled &&
             sampled->result().total_instructions != wl->measured_instructions()) {
    rec.failure = "sampled run retired " +
                  std::to_string(sampled->result().total_instructions) +
                  " measured instructions, the workload handed out " +
                  std::to_string(wl->measured_instructions());
  } else if (!spec.sampled && sys->total_instructions() != wl->instructions()) {
    rec.failure = "simulator retired " + std::to_string(sys->total_instructions()) +
                  " instructions, the workload handed out " +
                  std::to_string(wl->instructions());
  }

  {
    SpanScope s(probe.spans, "cmp.make_result");
    rec.result = sampled ? cmp::make_sampled_result(*sys, *sampled)
                         : cmp::make_result(*sys);
  }
  rec.cycles = rec.result.cycles.value();
  if (sampled) rec.sampling = sampled->result();

  if (layers != nullptr) {
    Layers& L = *layers;
    if (probe.time_ops) {
      (spec.trace_workload ? L.replay_nanos : L.gen_nanos) += wl->nanos();
      (spec.trace_workload ? L.replay_ops : L.gen_ops) += wl->ops();
    }
    if (profile) {
      for (const auto& row : prof.rows()) {
        L.scope_nanos[row.name] += row.nanos;
        if (row.name == "network") L.live_cycles += row.laps;
        if (row.name == "kernel.scan") L.scans += row.laps;
      }
      L.profiled_nanos += prof.total_nanos();
      L.min_attribution = std::min(L.min_attribution, prof.attribution_fraction());
      for (const auto& s : sys->kernel().scan_stats()) {
        L.polls += s.polls;
        L.hot_exits += s.hot_exits;
      }
      L.sim_cycles += sys->total_cycles().value();
      L.instructions += sys->measured_instructions();
      add_counters(sys->merged_stats(), sys->cycles().value(), tiles, L);
    }
    if (capture && rec.failure.empty()) {
      SpanScope s(probe.spans, "compression.replay");
      // A sampled run's registry holds only its last window, so only the
      // full-detail runs can be held to the simulator's compressed count.
      std::optional<std::uint64_t> sim_compressed;
      if (!spec.sampled) {
        sim_compressed = sys->merged_stats().counter_value("compression.compressed");
      }
      rec.failure = replay_compressors(captured, spec.cfg, sim_compressed, L);
    }
  }
  return rec;
}

// --- Workloads -----------------------------------------------------------------

/// One pass: the workload's set-up plus its list of simulation runs.
struct PassResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<RunRecord> runs;
};

/// Generate the sampled-replay input: each core's SyntheticApp stream pulled
/// directly into a .tct file (per-core streams do not depend on
/// interleaving, so no simulation is needed).
std::uint64_t generate_trace(const std::string& path, const workloads::AppParams& p,
                             unsigned n_cores, Layers* layers) {
  workloads::SyntheticApp app(p, n_cores);
  workloads::TraceRecorder rec(path, n_cores, app.has_warmup(), app.code_lines());
  std::uint64_t gen_nanos = 0;
  for (unsigned c = 0; c < n_cores; ++c) {
    for (;;) {
      core::Op op;
      if (layers != nullptr) {
        const Clock::time_point t0 = Clock::now();
        op = app.next(c);
        gen_nanos += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
                .count());
      } else {
        op = app.next(c);
      }
      if (op.kind == core::OpKind::kDone) break;
      rec.record(c, op);
    }
  }
  rec.close();
  if (layers != nullptr) {
    layers->gen_nanos += gen_nanos;
    layers->gen_ops += rec.events_recorded();
  }
  return rec.events_recorded();
}

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual double scale() const = 0;
  [[nodiscard]] virtual unsigned threads() const = 0;
  /// Set-up work done once per pass before the runs (trace generation).
  virtual void setup(Layers* /*layers*/, SpanLog* /*spans*/) {}
  [[nodiscard]] virtual std::vector<RunSpec> runs() const = 0;

  PassResult pass(const Probe& probe, Layers* layers) {
    PassResult p;
    SpanScope span(probe.spans, "pass");
    const Clock::time_point t0 = Clock::now();
    {
      SpanScope s(probe.spans, "setup");
      setup(layers, probe.spans);
    }
    p.setup_s = seconds_since(t0);
    for (const RunSpec& spec : runs()) {
      p.runs.push_back(execute(spec, probe, layers));
      p.setup_s += p.runs.back().setup_s;
      p.run_s += p.runs.back().run_s;
    }
    return p;
  }

  /// A set-up alone, for the set-up-time median: the pass's set-up plus the
  /// construction of every system it runs.
  double setup_only() {
    const Clock::time_point t0 = Clock::now();
    setup(nullptr, nullptr);
    for (const RunSpec& spec : runs()) {
      cmp::CmpSystem sys(spec.cfg, std::make_shared<CountingWorkload>(
                                       spec.make_workload(), spec.cfg.n_tiles, false));
    }
    return seconds_since(t0);
  }
};

/// Synthetic apps x {baseline, het}, simulated directly: `paper16` (the 13
/// Table-4 apps on 16 tiles, K = 1) and `mesh256` (FFT on 256 tiles under
/// the partitioned driver).
class SyntheticSweep final : public Workload {
 public:
  SyntheticSweep(std::vector<workloads::AppParams> apps, unsigned tiles,
                 unsigned threads, double scale, std::uint64_t seed)
      : apps_(std::move(apps)), tiles_(tiles), threads_(threads), scale_(scale),
        seed_(seed) {}
  double scale() const override { return scale_; }
  unsigned threads() const override { return threads_; }
  std::vector<RunSpec> runs() const override {
    std::vector<RunSpec> v;
    for (const auto& app : apps_) {
      const workloads::AppParams p = seeded(app, seed_, scale_);
      for (const auto& cfg :
           {baseline_config(tiles_, threads_), het_config(tiles_, threads_)}) {
        const unsigned tiles = tiles_;
        v.push_back(RunSpec{
            app.name + (cfg.scheme.enabled() ? "/het" : "/baseline"), cfg,
            [p, tiles] { return std::make_shared<workloads::SyntheticApp>(p, tiles); },
            false, false});
      }
    }
    return v;
  }

 private:
  std::vector<workloads::AppParams> apps_;
  unsigned tiles_, threads_;
  double scale_;
  std::uint64_t seed_;
};

std::unique_ptr<Workload> make_mesh256(std::uint64_t seed, unsigned threads) {
  return std::make_unique<SyntheticSweep>(
      std::vector<workloads::AppParams>{workloads::app("FFT")}, kMeshTiles, threads,
      kMeshScale, seed);
}

/// A long Ocean-cont op stream generated into a .tct file, replayed under
/// SMARTS interval sampling (or, for the traced run's truth, full detail).
class SampledReplay final : public Workload {
 public:
  SampledReplay(std::uint64_t seed, std::string path)
      : params_(seeded(workloads::app(kReplayApp), seed, kReplayScale)),
        path_(std::move(path)) {}
  double scale() const override { return kReplayScale; }
  unsigned threads() const override { return 1; }
  void setup(Layers* layers, SpanLog* spans) override {
    SpanScope s(spans, "workloads.generate");
    events_ = generate_trace(path_, params_, 16, layers);
  }
  std::vector<RunSpec> runs() const override { return replay_runs(true); }
  /// The het replay at full detail (the sampled estimate's truth).
  [[nodiscard]] RunSpec full_detail_het() const { return replay_runs(false)[1]; }
  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::vector<RunSpec> replay_runs(bool sampled) const {
    std::vector<RunSpec> v;
    const std::string path = path_;
    for (const auto& cfg : {baseline_config(16, 1), het_config(16, 1)}) {
      v.push_back(RunSpec{
          std::string(kReplayApp) + (sampled ? "-sampled/" : "-full/") +
              (cfg.scheme.enabled() ? "het" : "baseline"),
          cfg,
          [path] { return std::make_shared<workloads::BinaryTraceWorkload>(path); },
          true, sampled});
    }
    return v;
  }

  workloads::AppParams params_;
  std::string path_;
  std::uint64_t events_ = 0;
};

// --- Pass summaries --------------------------------------------------------------

struct SimSummary {
  std::uint64_t sim_cycles = 0;
  double norm_exec = 0.0, norm_link = 0.0, norm_full = 0.0;
};

/// Runs come in (baseline, het) pairs; the norm_* metrics are the mean over
/// pairs of het/baseline, as the paper's Figs. 6 and 7 average them.
SimSummary summarize(const std::vector<RunRecord>& runs) {
  SimSummary s;
  unsigned pairs = 0;
  for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
    const cmp::RunResult& b = runs[i].result;
    const cmp::RunResult& h = runs[i + 1].result;
    s.norm_exec += static_cast<double>(h.cycles.value()) /
                   static_cast<double>(b.cycles.value());
    s.norm_link += h.link_ed2p() / b.link_ed2p();
    s.norm_full += h.full_cmp_ed2p() / b.full_cmp_ed2p();
    ++pairs;
  }
  for (const RunRecord& r : runs) s.sim_cycles += r.cycles;
  if (pairs > 0) {
    s.norm_exec /= pairs;
    s.norm_link /= pairs;
    s.norm_full /= pairs;
  }
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

// --- Output ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt_number(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  }
  return buf;
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
         fmt_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}}";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string work_dir = ".";
  std::string commit = "unknown";
};

/// Bookkeeping of correctness checks across a process: one simulation run
/// is one operation; a run with any failed check is one failed operation.
struct Tally {
  std::uint64_t attempted = 0, failed = 0;
  void add(const std::vector<RunRecord>& runs) {
    for (const RunRecord& r : runs) {
      ++attempted;
      if (!r.failure.empty()) {
        ++failed;
        std::printf("CHECK FAILED %s: %s\n", r.label.c_str(), r.failure.c_str());
      }
    }
  }
  /// Same-seed passes must repeat every simulated result exactly.
  void add_repeat(const std::vector<RunRecord>& first,
                  const std::vector<RunRecord>& again) {
    for (std::size_t i = 0; i < again.size() && i < first.size(); ++i) {
      if (again[i].cycles != first[i].cycles ||
          again[i].result.full_cmp_ed2p() != first[i].result.full_cmp_ed2p()) {
        ++failed;
        std::printf("CHECK FAILED %s: repeat pass simulated %llu cycles, first "
                    "pass %llu\n",
                    again[i].label.c_str(),
                    static_cast<unsigned long long>(again[i].cycles),
                    static_cast<unsigned long long>(first[i].cycles));
      }
    }
  }
};

void print_runs(const std::vector<RunRecord>& runs) {
  for (const RunRecord& r : runs) {
    std::printf("run %-28s cycles=%llu setup_s=%.4f run_s=%.4f%s\n",
                r.label.c_str(), static_cast<unsigned long long>(r.cycles),
                r.setup_s, r.run_s, r.failure.empty() ? "" : " FAILED");
  }
}

void print_paper_comparison(const SimSummary& s) {
  // Paper values (ICPP'08, 4-entry DBRC with 2-byte LO over VL-Wires):
  // Fig. 6 top ~0.92, Fig. 6 bottom 0.62-0.70, Fig. 7 0.74.
  struct Row {
    const char* name;
    double measured, paper_lo, paper_hi;
  };
  const Row rows[] = {{"norm_exec_time", s.norm_exec, 0.92, 0.92},
                      {"norm_link_ed2p", s.norm_link, 0.62, 0.70},
                      {"norm_full_ed2p", s.norm_full, 0.74, 0.74}};
  for (const Row& r : rows) {
    const double mid = 0.5 * (r.paper_lo + r.paper_hi);
    std::printf("paper %-15s measured=%.4f paper=%.2f-%.2f error=%+.1f%%\n", r.name,
                r.measured, r.paper_lo, r.paper_hi, 100.0 * (r.measured - mid) / mid);
  }
  std::printf("paper note: the link-ED2P undershoot of the paper's value is the "
              "documented leakage-dominated overshoot of the reduction "
              "(EXPERIMENTS.md, Fig. 6 bottom); reduced scale also shrinks the "
              "execution-time gain.\n");
}

// --- Modes -----------------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "paper16") {
    return std::make_unique<SyntheticSweep>(workloads::all_apps(), 16, 1, kPaperScale,
                                            o.seed);
  }
  if (o.workload == "mesh256") return make_mesh256(o.seed, kMeshThreads);
  if (o.workload == "sampled-replay") {
    return std::make_unique<SampledReplay>(
        o.seed, o.work_dir + "/sampled-replay-" + std::to_string(o.seed) + ".tct");
  }
  return nullptr;
}

/// Sum over the pass's runs of each run's median over passes: a burst of
/// host noise that hits one run of one pass does not move the result.
double sum_of_run_medians(const std::vector<PassResult>& passes) {
  double total = 0.0;
  for (std::size_t r = 0; r < passes.front().runs.size(); ++r) {
    std::vector<double> v;
    for (const PassResult& p : passes) v.push_back(p.runs[r].run_s);
    total += median(v);
  }
  return total;
}

/// --trace 0: repeat passes until the time budget is spent; report medians.
std::vector<Metric> measure_end_to_end(Workload& w, const Options& o, Tally& tally,
                                       SimSummary& sim) {
  std::vector<PassResult> passes;
  std::vector<double> setups;
  const Clock::time_point t0 = Clock::now();
  do {
    PassResult p = w.pass(Probe{}, nullptr);
    tally.add(p.runs);
    if (passes.empty()) {
      print_runs(p.runs);
    } else {
      tally.add_repeat(passes.front().runs, p.runs);
    }
    setups.push_back(p.setup_s);
    std::printf("pass %zu setup_s=%.4f run_s=%.4f\n", passes.size() + 1, p.setup_s,
                p.run_s);
    passes.push_back(std::move(p));
  } while (seconds_since(t0) * (1.0 + 1.0 / static_cast<double>(passes.size())) <=
           o.seconds);
  // Set-up is short and noisy: take at least kMinSetups samples.
  while (setups.size() < kMinSetups) setups.push_back(w.setup_only());
  sim = summarize(passes.front().runs);
  const double setup_s = median(setups);
  const double run_s = sum_of_run_medians(passes);
  const double ok_frac = tally.attempted == 0
                             ? 0.0
                             : static_cast<double>(tally.attempted - tally.failed) /
                                   static_cast<double>(tally.attempted);
  std::printf("passes=%zu\n", passes.size());
  return {{"setup_s", setup_s, "s"},
          {"run_s", run_s, "s"},
          {"sim_kcps", static_cast<double>(sim.sim_cycles) / 1e3 / run_s, "kcycles/s"},
          {"peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MB"},
          {"ok_frac", ok_frac, "frac"},
          {"sim_cycles", static_cast<double>(sim.sim_cycles), "cycles"},
          {"norm_exec_time", sim.norm_exec, "ratio"},
          {"norm_link_ed2p", sim.norm_link, "ratio"},
          {"norm_full_ed2p", sim.norm_full, "ratio"}};
}

/// --trace 1: an untraced pass, a traced pass, and the workload's extra
/// attribution runs; report the per-layer metrics.
std::vector<Metric> measure_layers(Workload& w, const Options& o, Tally& tally,
                                   SpanLog& spans) {
  Layers L;
  const PassResult plain = w.pass(Probe{}, nullptr);
  tally.add(plain.runs);
  print_runs(plain.runs);

  // The traced pass: spans, op timing, and (at K = 1) the self-profiler and
  // the remote-address capture for the compressor replay.
  const bool k1 = w.threads() == 1;
  Probe traced{&spans, true, k1, k1};
  const PassResult tp = w.pass(traced, &L);
  tally.add(tp.runs);
  tally.add_repeat(plain.runs, tp.runs);
  const double overhead_s = tp.run_s - plain.run_s;

  double partition_speedup = 0.0, partition_eff = 0.0;
  double windows = 0, detail_frac = 0, sampling_speedup = 0, cycle_error = 0,
         ci_covers = 0, trace_bytes_per_op = 0;

  if (o.workload == "mesh256") {
    // Attribution at K = 1 (the self-profiler instruments the single-kernel
    // loop), plus the K = 1 / K = 3 wall ratio from unprofiled passes.
    const std::unique_ptr<Workload> k1w = make_mesh256(o.seed, 1);
    const PassResult serial = k1w->pass(Probe{&spans, false, false, false}, nullptr);
    const PassResult profiled = k1w->pass(Probe{&spans, false, true, true}, &L);
    tally.add(serial.runs);
    tally.add(profiled.runs);
    tally.add_repeat(plain.runs, serial.runs);  // K-invariance: K = 1 == K = 3
    tally.add_repeat(plain.runs, profiled.runs);
    partition_speedup = serial.run_s / plain.run_s;
    partition_eff = partition_speedup / kMeshThreads;
  }
  if (o.workload == "sampled-replay") {
    auto& sr = static_cast<SampledReplay&>(w);
    // Truth for the sampled estimate: the same trace at full detail,
    // unprofiled for the wall-time ratio, profiled for the layer split.
    const RunSpec full = sr.full_detail_het();
    RunRecord truth = execute(full, Probe{&spans, false, false, false}, nullptr);
    const RunRecord profiled = execute(full, Probe{&spans, false, true, true}, &L);
    tally.add({truth, profiled});
    const RunRecord& het = plain.runs[1];
    const cmp::SamplingResult& sres = *het.sampling;
    windows = static_cast<double>(sres.windows);
    detail_frac = static_cast<double>(sres.detailed_total_instructions) /
                  static_cast<double>(sres.total_instructions);
    sampling_speedup = truth.run_s / het.run_s;
    cycle_error = std::fabs(static_cast<double>(het.cycles) -
                            static_cast<double>(truth.cycles)) /
                  static_cast<double>(truth.cycles);
    const double truth_cpi = static_cast<double>(truth.cycles) /
                             static_cast<double>(truth.result.instructions);
    ci_covers = std::fabs(truth_cpi - sres.cpi_window_mean) <= sres.cpi_ci95 ? 1 : 0;
    std::printf("sampling: windows=%llu estimate=%llu truth=%llu error=%.4f "
                "cpi=%.4f window_mean=%.4f ci95=%.4f truth_cpi=%.4f covers=%d\n",
                static_cast<unsigned long long>(sres.windows),
                static_cast<unsigned long long>(het.cycles),
                static_cast<unsigned long long>(truth.cycles), cycle_error, sres.cpi,
                sres.cpi_window_mean, sres.cpi_ci95, truth_cpi,
                static_cast<int>(ci_covers));
    trace_bytes_per_op = static_cast<double>(std::filesystem::file_size(sr.path())) /
                         static_cast<double>(sr.events());
  }

  // The self-profiler's laps tile run(), so it must account for nearly all
  // of each profiled run's wall time.
  if (L.min_attribution < 0.95) {
    ++tally.failed;
    std::printf("CHECK FAILED self-profile attributed only %.4f of run()\n",
                L.min_attribution);
  }

  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double noc_s = L.scope_s({"network"});
  const double proto_s = L.scope_s({"directories", "loopback"});
  const double l2 = static_cast<double>(L.l2_accesses);
  const double hops = static_cast<double>(L.flit_hops);
  std::printf("traced: run_s=%.4f untraced run_s=%.4f overhead_s=%.4f "
              "profile attribution (min over runs)=%.4f\n",
              tp.run_s, plain.run_s, overhead_s, L.min_attribution);
  return {
      {"noc.host_s", noc_s, "s"},
      {"noc.host_share", ratio(noc_s, static_cast<double>(L.profiled_nanos) * 1e-9),
       "frac"},
      {"noc.flit_hops", hops, "count"},
      {"noc.router_traversals", static_cast<double>(L.router_traversals), "count"},
      {"noc.host_ns_per_flit_hop", ratio(noc_s * 1e9, hops), "ns"},
      {"protocol.host_s", proto_s, "s"},
      {"protocol.l2_accesses", l2, "count"},
      {"protocol.l1_miss_ratio",
       ratio(static_cast<double>(L.l1_misses), static_cast<double>(L.l1_accesses)),
       "frac"},
      {"protocol.host_ns_per_l2_access", ratio(proto_s * 1e9, l2), "ns"},
      {"core.host_s", L.scope_s({"cores"}), "s"},
      {"core.instructions", static_cast<double>(L.instructions), "count"},
      {"core.blocked_frac",
       ratio(static_cast<double>(L.blocked_cycles), static_cast<double>(L.core_cycles)),
       "frac"},
      {"compression.coverage",
       ratio(static_cast<double>(L.compressed),
             static_cast<double>(L.compressed + L.uncompressed)),
       "frac"},
      {"compression.ns_per_msg",
       ratio(static_cast<double>(L.replay_compress_nanos),
             static_cast<double>(L.replayed_msgs)),
       "ns"},
      {"het.vl_frac",
       ratio(static_cast<double>(L.vl_msgs), static_cast<double>(L.vl_msgs + L.b_msgs)),
       "frac"},
      {"sim.scan_s", L.scope_s({"kernel.scan"}), "s"},
      {"sim.live_cycle_frac",
       ratio(static_cast<double>(L.live_cycles), static_cast<double>(L.sim_cycles)),
       "frac"},
      {"sim.polls_per_live_cycle",
       ratio(static_cast<double>(L.polls), static_cast<double>(L.live_cycles)),
       "count"},
      {"sim.hot_exit_ratio",
       ratio(static_cast<double>(L.hot_exits), static_cast<double>(L.scans)), "frac"},
      {"cmp.driver_s",
       L.scope_s({"barrier", "drain.check", "periodic.check", "idle.skip", "obs.sample"}),
       "s"},
      {"cmp.partition_speedup", partition_speedup, "ratio"},
      {"cmp.partition_efficiency", partition_eff, "frac"},
      {"cmp.sampling_windows", windows, "count"},
      {"cmp.sampling_detail_frac", detail_frac, "frac"},
      {"cmp.sampling_speedup", sampling_speedup, "ratio"},
      {"cmp.sampling_cycle_error", cycle_error, "frac"},
      {"cmp.sampling_ci_covers", ci_covers, "count"},
      {"workloads.gen_ns_per_op",
       ratio(static_cast<double>(L.gen_nanos), static_cast<double>(L.gen_ops)), "ns"},
      {"workloads.ops", static_cast<double>(L.gen_ops), "count"},
      {"workloads.replay_ns_per_op",
       ratio(static_cast<double>(L.replay_nanos), static_cast<double>(L.replay_ops)),
       "ns"},
      {"workloads.trace_bytes_per_op", trace_bytes_per_op, "bytes"},
      {"bench.trace_overhead_s", overhead_s, "s"},
      {"bench.profile_attribution", L.min_attribution, "frac"},
  };
}

/// Record -> replay oracle for the set-up generator: a small full-detail
/// replay of a generated .tct must reproduce the synthetic run's report.
int self_test(const Options& o) {
  const std::string path = o.work_dir + "/self-test.tct";
  int failures = 0;
  for (const char* name : {"Ocean-cont", "FFT", "MP3D"}) {
    const workloads::AppParams p = workloads::app(name).scaled(kSelfTestScale);
    generate_trace(path, p, 16, nullptr);
    const cmp::CmpConfig cfg = het_config(16, 1);
    cmp::CmpSystem synth(cfg, std::make_shared<workloads::SyntheticApp>(p, 16));
    cmp::CmpSystem replay(cfg, std::make_shared<workloads::BinaryTraceWorkload>(path));
    const bool ok_runs = synth.run() && replay.run();
    const cmp::RunResult a = cmp::make_result(synth);
    const cmp::RunResult b = cmp::make_result(replay);
    const bool same = ok_runs && a.cycles == b.cycles &&
                      a.instructions == b.instructions &&
                      synth.merged_stats().counters() == replay.merged_stats().counters() &&
                      a.link_ed2p() == b.link_ed2p() &&
                      a.full_cmp_ed2p() == b.full_cmp_ed2p();
    std::printf("self-test record->replay %-11s synthetic cycles=%llu replay "
                "cycles=%llu counters %s: %s\n",
                name, static_cast<unsigned long long>(a.cycles.value()),
                static_cast<unsigned long long>(b.cycles.value()),
                synth.merged_stats().counters() == replay.merged_stats().counters()
                    ? "equal"
                    : "differ",
                same ? "PASS" : "FAIL");
    failures += same ? 0 : 1;
  }
  std::filesystem::remove(path);
  return failures == 0 ? 0 : 1;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--self-test") {
      o.self_test = true;
    } else if (a == "--workload" && (v = value())) {
      o.workload = v;
    } else if (a == "--seed" && (v = value())) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = value())) {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = value())) {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--work-dir" && (v = value())) {
      o.work_dir = v;
    } else if (a == "--commit" && (v = value())) {
      o.commit = v;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper16|mesh256|sampled-replay "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] [--commit ID]\n"
                 "       perfbench --self-test [--work-dir DIR]\n");
    return 2;
  }
  std::filesystem::create_directories(o.work_dir);
  if (o.self_test) return self_test(o);

  std::unique_ptr<Workload> w = make_workload(o);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  const unsigned nproc = host_cpus();
  if (w->threads() > nproc) {
    std::fprintf(stderr,
                 "refusing to run: %s needs %u threads but only %u CPUs are "
                 "available (an oversubscribed benchmark measures the wrong "
                 "thing)\n",
                 o.workload.c_str(), w->threads(), nproc);
    return 3;
  }
  char provenance[512];
  std::snprintf(provenance, sizeof provenance,
                "{\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
                "\"threads\": %u, \"scale\": %g, \"seconds\": %g, \"trace\": %d, "
                "\"build_type\": \"%s\", \"commit\": \"%s\"}",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed), nproc,
                w->threads(), w->scale(), o.seconds, o.trace ? 1 : 0,
                PERFBENCH_BUILD_TYPE, o.commit.c_str());
  std::printf("provenance %s\n", provenance);

  Tally tally;
  SpanLog spans;
  std::vector<Metric> metrics;
  if (o.trace) {
    metrics = measure_layers(*w, o, tally, spans);
    const std::string span_path = o.work_dir + "/spans-" + o.workload + "-" +
                                  std::to_string(o.seed) + ".json";
    std::ofstream out(span_path);
    spans.write_json(out);
    std::printf("spans: %zu written to %s\n", spans.spans().size(), span_path.c_str());
  } else {
    SimSummary sim;
    metrics = measure_end_to_end(*w, o, tally, sim);
    if (o.workload == "paper16") print_paper_comparison(sim);
  }
  if (auto* sr = dynamic_cast<SampledReplay*>(w.get())) {
    std::filesystem::remove(sr->path());
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %s %s\n", m.name.c_str(), fmt_number(m.value).c_str(),
                m.unit.c_str());
  }
  const bool correct = tally.failed == 0;
  const std::string result =
      result_json(correct, tally.attempted, tally.failed, metrics);
  // Every result is kept with its provenance beside the run's other files.
  std::ofstream(o.work_dir + "/result-" + o.workload + "-" + std::to_string(o.seed) +
                "-trace" + (o.trace ? "1" : "0") + ".json")
      << "{\"provenance\": " << provenance << ", \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
