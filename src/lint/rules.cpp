// The lint passes.  Each rule_* function appends its findings to the
// report in deterministic order; run_lint() sequences the passes in rule
// id order, so a report is sorted by (rule, locus) by construction.

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "liplib/graph/analysis.hpp"
#include "liplib/graph/equalize.hpp"
#include "liplib/graph/mcr.hpp"
#include "liplib/lint/lint.hpp"

namespace liplib::lint {

namespace {

using graph::ChannelId;
using graph::NodeId;
using graph::NodeKind;
using graph::RsKind;
using graph::Topology;

std::string port_ref(const Topology& topo, NodeId node, std::size_t port) {
  return topo.node(node).name + "." + std::to_string(port);
}

std::string channel_label(const Topology& topo, ChannelId c) {
  const auto& ch = topo.channel(c);
  return port_ref(topo, ch.from.node, ch.from.port) + " -> " +
         port_ref(topo, ch.to.node, ch.to.port);
}

std::string node_list(const Topology& topo, const std::vector<NodeId>& ids) {
  std::string out;
  for (NodeId v : ids) {
    if (!out.empty()) out += ", ";
    out += topo.node(v).name;
  }
  return out;
}

/// The strongly connected components of the node graph restricted to the
/// channels accepted by `keep` that contain a directed cycle (size > 1,
/// or a kept self-loop), each sorted by node id, ordered by their
/// smallest node id.
std::vector<std::vector<NodeId>> cyclic_components(
    const Topology& topo, const std::function<bool(ChannelId)>& keep) {
  std::vector<bool> self_loop(topo.nodes().size(), false);
  for (ChannelId c = 0; c < topo.channels().size(); ++c) {
    const auto& ch = topo.channel(c);
    if (ch.from.node == ch.to.node && keep(c)) self_loop[ch.from.node] = true;
  }
  std::vector<std::vector<NodeId>> cyclic;
  for (auto& comp : topo.process_sccs(keep)) {
    if (comp.size() > 1 || self_loop[comp.front()]) {
      std::sort(comp.begin(), comp.end());
      cyclic.push_back(std::move(comp));
    }
  }
  std::sort(cyclic.begin(), cyclic.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return cyclic;
}

/// Channels driven by each output port of `v` (its fanout widths).
std::vector<std::size_t> port_widths(const Topology& topo, NodeId v) {
  std::vector<std::size_t> width(topo.node(v).num_outputs, 0);
  for (ChannelId c : topo.channels_from(v)) ++width[topo.channel(c).from.port];
  return width;
}

// ---- LIP001: dangling ports ----------------------------------------------

void rule_dangling(const Topology& topo, std::vector<Diagnostic>& out) {
  for (NodeId v = 0; v < topo.nodes().size(); ++v) {
    const auto& node = topo.node(v);
    for (std::size_t p = 0; p < node.num_inputs; ++p) {
      if (!topo.channel_into({v, p})) {
        out.push_back({"LIP001", Severity::kError, v, std::nullopt,
                       "input port " + std::to_string(p) + " of " + node.name +
                           " is not driven",
                       {}});
      }
    }
    const auto width = port_widths(topo, v);
    for (std::size_t p = 0; p < node.num_outputs; ++p) {
      if (width[p] == 0) {
        out.push_back({"LIP001", Severity::kError, v, std::nullopt,
                       "output port " + std::to_string(p) + " of " + node.name +
                           " drives nothing",
                       {}});
      }
    }
  }
}

// ---- LIP002: fanout beyond the 32-branch protocol cap --------------------

void rule_fanout(const Topology& topo, std::vector<Diagnostic>& out) {
  for (NodeId v = 0; v < topo.nodes().size(); ++v) {
    const auto& node = topo.node(v);
    const auto width = port_widths(topo, v);
    for (std::size_t p = 0; p < node.num_outputs; ++p) {
      if (width[p] > 32) {
        out.push_back({"LIP002", Severity::kError, v, std::nullopt,
                       "output port " + std::to_string(p) + " of " + node.name +
                           " fans out to " + std::to_string(width[p]) +
                           " branches; the protocol engines track pending "
                           "consumers in a 32-bit mask (at most 32)",
                       {}});
      }
    }
  }
}

// ---- LIP003: missing relay station between shells ------------------------

void rule_missing_station(const Topology& topo, std::vector<Diagnostic>& out) {
  for (ChannelId c = 0; c < topo.channels().size(); ++c) {
    const auto& ch = topo.channel(c);
    const bool shell_to_shell =
        topo.node(ch.from.node).kind == NodeKind::kProcess &&
        topo.node(ch.to.node).kind == NodeKind::kProcess;
    if (!shell_to_shell || !ch.stations.empty()) continue;
    FixIt fix;
    fix.kind = FixIt::Kind::kInsertStation;
    fix.channel = c;
    fix.index = 0;
    fix.count = 1;
    fix.station = RsKind::kHalf;
    fix.description = "insert a half relay station into channel " +
                      channel_label(topo, c);
    out.push_back({"LIP003", Severity::kError, std::nullopt, c,
                   "channel " + topo.node(ch.from.node).name + " -> " +
                       topo.node(ch.to.node).name +
                       " connects two shells with no relay station (the "
                       "protocol requires at least one memory element "
                       "between shells)",
                   {std::move(fix)}});
  }
}

// ---- LIP004: source feeds sink directly ----------------------------------

void rule_source_to_sink(const Topology& topo, std::vector<Diagnostic>& out) {
  for (ChannelId c = 0; c < topo.channels().size(); ++c) {
    const auto& ch = topo.channel(c);
    if (topo.node(ch.from.node).kind == NodeKind::kSource &&
        topo.node(ch.to.node).kind == NodeKind::kSink) {
      out.push_back({"LIP004", Severity::kWarning, std::nullopt, c,
                     "channel " + topo.node(ch.from.node).name + " -> " +
                         topo.node(ch.to.node).name +
                         " connects a source directly to a sink",
                     {}});
    }
  }
}

// ---- LIP005: half relay station on a cycle (coarse hazard cue) -----------

void rule_half_on_cycle(const Topology& topo, std::vector<Diagnostic>& out) {
  const auto on_cycle = topo.channels_on_cycles();
  for (ChannelId c = 0; c < topo.channels().size(); ++c) {
    if (on_cycle[c] && topo.channel(c).num_half() > 0) {
      out.push_back({"LIP005", Severity::kInfo, std::nullopt, c,
                     "channel " + topo.node(topo.channel(c).from.node).name +
                         " -> " + topo.node(topo.channel(c).to.node).name +
                         " lies on a cycle and contains a half relay "
                         "station: potential deadlock; run skeleton "
                         "screening",
                     {}});
    }
  }
}

// ---- LIP006: combinational stop cycle (latent stop latch) ----------------
//
// A directed cycle all of whose relay stations are half has a fully
// combinational stop path: under saturation the stop wires latch and the
// cycle deadlocks.  The paper's token-conservation argument decides
// reachability statically: from reset a cycle of S shells holds exactly S
// valid tokens among S + H register positions (H = half-station slots on
// the cycle), so the latch closes from reset only when H = 0; with
// H >= 1 it is reachable only under worst-case occupancy (soft errors,
// saturated traffic).

void rule_stop_cycles(const Topology& topo, std::vector<Diagnostic>& out) {
  const auto latches = cyclic_components(
      topo, [&](ChannelId c) { return topo.channel(c).num_full() == 0; });
  if (latches.empty()) return;

  // Reset-reachable marker: nodes on a cycle with *no* stations at all.
  const auto bare = cyclic_components(
      topo, [&](ChannelId c) { return topo.channel(c).num_stations() == 0; });
  std::vector<bool> reset_reachable(topo.nodes().size(), false);
  for (const auto& comp : bare) {
    for (NodeId v : comp) reset_reachable[v] = true;
  }

  std::vector<bool> member(topo.nodes().size(), false);
  for (const auto& comp : latches) {
    for (NodeId v : comp) member[v] = true;

    // Intra-component stop-transparent channels, and the cheapest cure:
    // substitute the first half station of the lowest such channel.
    std::size_t half_slots = 0;
    bool from_reset = false;
    std::optional<ChannelId> cure_channel;
    std::optional<ChannelId> any_channel;
    for (NodeId v : comp) {
      for (ChannelId c : topo.channels_from(v)) {
        const auto& ch = topo.channel(c);
        if (ch.num_full() > 0 || !member[ch.to.node]) continue;
        half_slots += ch.num_half();
        any_channel = std::min(any_channel.value_or(c), c);
        if (ch.num_half() > 0) {
          cure_channel = std::min(cure_channel.value_or(c), c);
        }
      }
    }
    for (NodeId v : comp) {
      from_reset = from_reset || reset_reachable[v];
      member[v] = false;
    }

    FixIt fix;
    if (cure_channel) {
      fix.kind = FixIt::Kind::kSubstituteStation;
      fix.channel = *cure_channel;
      fix.index = 0;
      fix.station = RsKind::kFull;
      fix.description =
          "substitute the half relay station at position 0 of channel " +
          channel_label(topo, *cure_channel) +
          " with a full one (registers the stop path)";
    } else {
      fix.kind = FixIt::Kind::kInsertStation;
      fix.channel = any_channel.value_or(0);
      fix.index = 0;
      fix.station = RsKind::kFull;
      fix.description = "insert a full relay station into channel " +
                        channel_label(topo, any_channel.value_or(0)) +
                        " (registers the stop path)";
    }

    std::ostringstream msg;
    msg << "combinational stop cycle through shells " << node_list(topo, comp)
        << ": no full relay station registers the stop path";
    if (from_reset) {
      msg << "; with no station slack the stop latch closes from reset "
             "occupancy";
    } else {
      msg << "; unreachable from reset (the cycle conserves "
          << comp.size() << " token(s) in " << comp.size() + half_slots
          << " register positions) but deadlocks under worst-case occupancy";
    }
    out.push_back({"LIP006",
                   from_reset ? Severity::kError : Severity::kWarning,
                   comp.front(), std::nullopt, msg.str(), {std::move(fix)}});
  }
}

// ---- LIP007: reconvergence imbalance (predicted T = (m-i)/m) -------------

void rule_reconvergence(const Topology& topo, std::vector<Diagnostic>& out) {
  if (!topo.is_feedforward()) return;
  // Gate on the exact implicit-loop bound, not on raw station imbalance:
  // the paper's closed form counts stations only, so an equalized design
  // (where shell registers make up the difference) still shows i > 0 —
  // but its exact bound is 1 and nothing is wrong.
  Rational exact(1);
  std::vector<graph::ReconvergenceInfo> pairs;
  try {
    exact = graph::exact_implicit_loop_bound(topo);
    pairs = graph::analyze_reconvergence(topo);
  } catch (const ApiError&) {
    out.push_back({"LIP007", Severity::kInfo, std::nullopt, std::nullopt,
                   "reconvergence analysis exceeded its path budget; "
                   "imbalance not checked",
                   {}});
    return;
  }
  if (!(exact < Rational(1))) return;  // balanced: full throughput

  // One equalization plan cures every imbalance at once; attach it to
  // the first diagnostic so applying all fix-its applies it once.
  std::vector<FixIt> fixits;
  const auto plan = graph::plan_equalization(topo);
  for (ChannelId c = 0; c < plan.stations_to_add.size(); ++c) {
    if (plan.stations_to_add[c] == 0) continue;
    FixIt fix;
    fix.kind = FixIt::Kind::kAppendStations;
    fix.channel = c;
    fix.count = plan.stations_to_add[c];
    fix.station = RsKind::kFull;
    fix.description = "append " + std::to_string(plan.stations_to_add[c]) +
                      " full relay station(s) to channel " +
                      channel_label(topo, c) + " (equalization)";
    fixits.push_back(std::move(fix));
  }
  bool emitted = false;
  for (const auto& p : pairs) {
    if (p.i() == 0) continue;
    std::ostringstream msg;
    msg << "reconvergent paths from " << topo.node(p.fork).name << " to "
        << topo.node(p.join).name << " are imbalanced by " << p.i()
        << " relay station(s): predicted T = (m-i)/m = "
        << p.throughput().str() << " (exact bound " << exact.str()
        << "); equalize the branches";
    out.push_back({"LIP007", Severity::kInfo, p.join, std::nullopt, msg.str(),
                   emitted ? std::vector<FixIt>{} : std::move(fixits)});
    emitted = true;
  }
  if (!emitted) {
    out.push_back({"LIP007", Severity::kInfo, std::nullopt, std::nullopt,
                   "reconvergent paths limit throughput to " + exact.str() +
                       " (exact implicit-loop bound); equalize the branches",
                   std::move(fixits)});
  }
}

// ---- LIP008: slowest-cycle bottleneck via the exact MCR ------------------

void rule_slowest_cycle(const Topology& topo, std::vector<Diagnostic>& out) {
  const auto mcr = graph::min_cycle_ratio(topo);
  if (!mcr || !(*mcr < Rational(1))) return;
  std::optional<graph::CycleInfo> witness;
  try {
    for (const auto& c : graph::enumerate_cycles(topo)) {
      if (c.throughput == *mcr) {
        witness = c;
        break;
      }
    }
  } catch (const ApiError&) {
    // Too many cycles to enumerate a witness; report the bound alone.
  }
  std::ostringstream msg;
  if (witness) {
    msg << "slowest cycle through shells " << node_list(topo, witness->nodes)
        << ": " << witness->shells << " shell(s), " << witness->stations
        << " relay station(s); loop bound T = S/(S+R) = " << mcr->str()
        << " limits system throughput";
  } else {
    msg << "loop bound (min cycle ratio) T = " << mcr->str()
        << " limits system throughput";
  }
  out.push_back({"LIP008", Severity::kInfo,
                 witness ? std::optional<NodeId>(witness->nodes.front())
                         : std::nullopt,
                 std::nullopt, msg.str(), {}});
}

// ---- LIP009: predictable-upfront transient bound -------------------------

void rule_transient(const Topology& topo, std::vector<Diagnostic>& out) {
  std::ostringstream msg;
  msg << "steady state is reached within " << graph::transient_bound(topo)
      << " cycles (transient bound)";
  if (const auto longest = graph::longest_register_path(topo)) {
    msg << "; longest register path " << *longest;
  }
  out.push_back({"LIP009", Severity::kInfo, std::nullopt, std::nullopt,
                 msg.str(), {}});
}

}  // namespace

Report run_lint(const graph::Topology& topo, const Options& options) {
  const auto enabled = [&](const char* id) {
    return std::find(options.disabled_rules.begin(),
                     options.disabled_rules.end(),
                     id) == options.disabled_rules.end();
  };
  Report report;
  auto& out = report.diagnostics;
  if (enabled("LIP001")) rule_dangling(topo, out);
  if (enabled("LIP002")) rule_fanout(topo, out);
  if (enabled("LIP003") && options.require_station_between_shells) {
    rule_missing_station(topo, out);
  }
  if (enabled("LIP004")) rule_source_to_sink(topo, out);
  if (enabled("LIP005")) rule_half_on_cycle(topo, out);
  // With input-queued shells (station rule waived) the queues register
  // the stop path, so the stop-latch analysis does not apply.
  if (enabled("LIP006") && options.require_station_between_shells) {
    rule_stop_cycles(topo, out);
  }
  if (!options.structural_only) {
    if (enabled("LIP007")) rule_reconvergence(topo, out);
    if (enabled("LIP008")) rule_slowest_cycle(topo, out);
    if (enabled("LIP009")) rule_transient(topo, out);
  }
  return report;
}

}  // namespace liplib::lint
