// End-to-end slack/criticality telemetry (ROADMAP item 3 groundwork).
//
// Every protocol message is tagged at injection with the *requesting core's
// state* (CritClass): a message serving a core that is blocked at the head of
// its in-order pipeline is kBlockingDemand; a critical-path message whose
// beneficiary core is not currently stalled (e.g. the full Data line after a
// PartialReply already resumed it, or an InvAck racing a DataExcl that has
// not arrived yet) is kOverlapTolerant; replacement traffic and its acks are
// kAckWriteback.
//
// Realized slack is then measured at the consumer: the cycles between a
// reply's delivery at the destination tile and the moment its core actually
// unstalls. A reply that arrives while other constituents of the same miss
// are still outstanding (DataExcl waiting on InvAcks, the early InvAcks
// themselves) realizes positive slack — it could have been delivered that
// many cycles later with zero performance cost, which is exactly the signal
// a criticality-aware wire scheduler needs. Messages that cannot end a stall
// at their destination (requests/acks into a directory, invalidations,
// writebacks) are counted as nonblocking: their slack is unbounded.
//
// Distributions land in the StatRegistry as "slack.<class>.<wire>"
// histograms plus "slack.<class>.<wire>.nonblocking" counters — per
// criticality class x wire class (VL / B / the channel names of the attached
// network) — and are therefore zeroed at the warmup boundary and exported by
// the canonical metrics plane like every other stat. The "slack." prefix
// keeps them out of the golden text reports, which only print "noc."
// histograms.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "protocol/coherence_msg.hpp"

namespace tcmp::obs {

/// Requesting-core state at injection time (stamped into
/// CoherenceMsg::slack_class).
enum class CritClass : std::uint8_t {
  kBlockingDemand = 0,   ///< beneficiary core is stalled on this line now
  kOverlapTolerant = 1,  ///< critical-path message, but the core is not stalled
  kAckWriteback = 2,     ///< replacement traffic / acks off the critical path
};
inline constexpr unsigned kNumCritClasses = 3;

[[nodiscard]] const char* to_string(CritClass c);

/// Classify a message given its type and whether the beneficiary core is
/// stalled. Pure function of the Fig. 4 criticality table plus the core
/// state; the caller (CmpSystem) knows the beneficiary and probes its
/// previous-cycle stall snapshot.
[[nodiscard]] inline CritClass classify(protocol::MsgType t,
                                        bool beneficiary_stalled) {
  if (!protocol::is_critical(t)) return CritClass::kAckWriteback;
  return beneficiary_stalled ? CritClass::kBlockingDemand
                             : CritClass::kOverlapTolerant;
}

/// True when a message of this (type, destination unit) can end a stall at
/// its destination core: data/permission replies and requester-bound
/// inv-acks into an L1, and instruction-fetch replies into an L1I. Only
/// these park for realized-slack measurement; everything else resolves as
/// nonblocking at delivery.
[[nodiscard]] bool can_unstall_dst(protocol::MsgType t, protocol::Unit unit);

class SlackTelemetry {
 public:
  /// Register the per (class x wire) distribution stats. `wire_names` are
  /// the attached network's channel names in channel-index order ("VL",
  /// "B", ...). Until init() the telemetry is disabled and every hook is a
  /// no-op the caller must guard (CmpSystem keeps a null pointer until
  /// attach).
  void init(StatRegistry* stats, const std::vector<std::string>& wire_names);

  [[nodiscard]] bool enabled() const { return !cells_.empty(); }
  [[nodiscard]] unsigned num_wire_classes() const { return n_wires_; }

  /// A message was delivered at `tile`. `parked` = the caller determined the
  /// destination core is stalled on the message's line (or on an ifetch, for
  /// L1I deliveries) AND can_unstall_dst holds — the realized slack resolves
  /// at the matching on_unstall. Otherwise the message counts as nonblocking.
  void on_delivered(NodeId tile, const protocol::CoherenceMsg& msg, bool parked,
                    Cycle now);

  /// The data-side fill for `line` unstalled `tile`'s core at `now`.
  void on_unstall(NodeId tile, LineAddr line, Cycle now);
  /// The ifetch fill unstalled `tile`'s core at `now`.
  void on_unstall_ifetch(NodeId tile, Cycle now);

  /// Flush still-parked deliveries (the run ended before their core
  /// unstalled) into the nonblocking counters so every delivery is
  /// accounted exactly once.
  void finalize();

  /// Human-readable class x wire distribution table (tcmpsim --slack-report).
  void write_table(std::ostream& out) const;

  /// Samples recorded into the (class, wire) slack histogram so far.
  [[nodiscard]] std::uint64_t resolved(CritClass c, unsigned wire) const;
  /// Deliveries resolved as nonblocking for (class, wire) so far.
  [[nodiscard]] std::uint64_t nonblocking(CritClass c, unsigned wire) const;

 private:
  struct Cell {
    HistogramRef slack;        ///< realized slack in cycles
    CounterRef nonblocking;    ///< deliveries with unbounded slack
    std::string name;          ///< "<class>.<wire>" (report labels)
  };
  struct Pending {
    Cycle delivered{};
    std::uint8_t cls = 0;
    std::uint8_t wire = 0;
  };

  [[nodiscard]] Cell& cell(std::uint8_t cls, std::uint8_t wire) {
    return cells_[cls * n_wires_ + std::min<unsigned>(wire, n_wires_ - 1)];
  }
  [[nodiscard]] const Cell& cell(std::uint8_t cls, std::uint8_t wire) const {
    return cells_[cls * n_wires_ + std::min<unsigned>(wire, n_wires_ - 1)];
  }
  [[nodiscard]] static std::uint64_t key(NodeId tile, LineAddr line) {
    // Same folding trick as the observer's miss spans: (tile, line) is
    // unique among parked stalls (one blocking miss per in-order core).
    return (static_cast<std::uint64_t>(tile) + 1) << 48 ^ line.value();
  }

  unsigned n_wires_ = 0;
  std::vector<Cell> cells_;  ///< [class * n_wires_ + wire]
  /// Parked data-side deliveries keyed by (tile, line). A miss can have
  /// several constituents in flight (DataExcl + InvAcks), so each key holds
  /// a small vector.
  std::unordered_map<std::uint64_t, std::vector<Pending>> pending_;
  /// Parked ifetch deliveries per tile (one ifetch outstanding per core).
  std::vector<std::vector<Pending>> pending_ifetch_;
};

}  // namespace tcmp::obs
