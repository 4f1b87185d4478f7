#include "liplib/skeleton/skeleton.hpp"

#include <unordered_map>

#include "liplib/probe/probe.hpp"
#include "liplib/support/check.hpp"

namespace liplib::skeleton {

namespace {
constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
}

std::vector<graph::NodeId> SkeletonResult::starved_shells() const {
  std::vector<graph::NodeId> out;
  for (std::size_t i = 0; i < shell_throughput.size(); ++i) {
    if (shell_throughput[i].num() == 0) out.push_back(shell_ids[i]);
  }
  return out;
}

Skeleton::Skeleton(const graph::Topology& topo, SkeletonOptions opts)
    : topo_(topo), opts_(opts) {
  const auto report =
      topo_.validate(/*require_station_between_shells=*/opts_.input_queue_depth == 0);
  LIPLIB_EXPECT(report.ok(),
                "topology has structural errors:\n" + report.to_string());

  node_index_.assign(topo_.nodes().size(), kNoIndex);
  for (graph::NodeId v = 0; v < topo_.nodes().size(); ++v) {
    const auto& node = topo_.node(v);
    switch (node.kind) {
      case graph::NodeKind::kProcess: {
        Shell s;
        s.node = v;
        s.in_seg.assign(node.num_inputs, 0);
        s.out.resize(node.num_outputs);
        if (opts_.input_queue_depth > 0) {
          s.q_size.assign(node.num_inputs, 0);
        }
        node_index_[v] = shells_.size();
        shells_.push_back(std::move(s));
        break;
      }
      case graph::NodeKind::kSource:
        node_index_[v] = sources_.size();
        sources_.emplace_back();
        break;
      case graph::NodeKind::kSink:
        node_index_[v] = sinks_.size();
        sinks_.emplace_back();
        break;
    }
  }

  for (graph::ChannelId c = 0; c < topo_.channels().size(); ++c) {
    const auto& ch = topo_.channel(c);
    std::vector<std::size_t> ids;
    for (std::size_t h = 0; h <= ch.num_stations(); ++h) {
      ids.push_back(fwd_.size());
      fwd_.push_back(0);
      stop_.push_back(0);
    }
    const auto& from_node = topo_.node(ch.from.node);
    if (from_node.kind == graph::NodeKind::kProcess) {
      auto& port = shells_[node_index_[ch.from.node]].out[ch.from.port];
      // Pending consumers are tracked in a 32-bit mask; a wider fanout
      // would silently truncate (lip::System enforces the same limit).
      LIPLIB_EXPECT(port.branch.size() < 32,
                    "more than 32 fanout branches on output port " +
                        std::to_string(ch.from.port) + " of '" +
                        from_node.name + "'");
      port.branch.push_back(ids.front());
    } else {
      auto& port = sources_[node_index_[ch.from.node]].port;
      LIPLIB_EXPECT(port.branch.size() < 32,
                    "more than 32 fanout branches on source '" +
                        from_node.name + "'");
      port.branch.push_back(ids.front());
    }
    for (std::size_t i = 0; i < ch.num_stations(); ++i) {
      Station st;
      st.kind = ch.stations[i];
      st.in_seg = ids[i];
      st.out_seg = ids[i + 1];
      if (strict()) {
        st.occ = 1;  // the initial void is a token under the strict policy
        st.v0 = false;
      }
      stations_.push_back(st);
    }
    const auto& to_node = topo_.node(ch.to.node);
    if (to_node.kind == graph::NodeKind::kProcess) {
      shells_[node_index_[ch.to.node]].in_seg[ch.to.port] = ids.back();
    } else {
      sinks_[node_index_[ch.to.node]].in_seg = ids.back();
    }
  }
  // Initialization: shell outputs valid, sources presenting.
  for (auto& s : shells_) {
    for (auto& p : s.out) p.load_all();
  }
  for (auto& s : sources_) s.port.load_all();
}

void Skeleton::set_sink_pattern(graph::NodeId node,
                                std::vector<bool> pattern) {
  LIPLIB_EXPECT(node < topo_.nodes().size() &&
                    topo_.node(node).kind == graph::NodeKind::kSink,
                "set_sink_pattern target is not a sink");
  sinks_[node_index_[node]].pattern = std::move(pattern);
}

bool Skeleton::shell_can_fire(const Shell& s) const {
  if (opts_.input_queue_depth == 0) {
    for (std::size_t in : s.in_seg) {
      if (!fwd_[in]) return false;
    }
  } else {
    for (auto q : s.q_size) {
      if (q == 0) return false;
    }
  }
  for (const auto& port : s.out) {
    for (std::size_t b = 0; b < port.branch.size(); ++b) {
      const bool stopped = stop_[port.branch[b]];
      if (strict()) {
        if (stopped) return false;
      } else if (stopped && ((port.pend >> b) & 1u)) {
        return false;
      }
    }
  }
  return true;
}

void Skeleton::settle_stops() {
  const bool pessimistic =
      opts_.resolution == lip::StopResolution::kPessimistic;
  for (auto& s : stop_) s = pessimistic ? 1 : 0;
  for (auto& s : sinks_) {
    const bool st =
        !s.pattern.empty() && s.pattern[cycle_ % s.pattern.size()];
    stop_[s.in_seg] = st ? 1 : 0;
  }
  for (const auto& st : stations_) {
    if (st.kind == graph::RsKind::kFull) {
      stop_[st.in_seg] = st.stop_reg ? 1 : 0;
    }
  }
  const std::size_t guard = 2 * stop_.size() + 4;
  std::size_t sweeps = 0;
  bool changed = true;
  while (changed) {
    LIPLIB_ENSURE(++sweeps <= guard, "stop fixpoint failed to converge");
    changed = false;
    for (const auto& st : stations_) {
      if (st.kind != graph::RsKind::kHalf) continue;
      const bool front_valid = st.occ > 0 && st.v0;
      const bool s_eff = strict() ? (stop_[st.out_seg] != 0)
                                  : (stop_[st.out_seg] && front_valid);
      const std::uint8_t up = (st.occ > 0 && s_eff) ? 1 : 0;
      if (stop_[st.in_seg] != up) {
        stop_[st.in_seg] = up;
        changed = true;
      }
    }
    for (const auto& s : shells_) {
      const bool stalled = !shell_can_fire(s);
      for (std::size_t i = 0; i < s.in_seg.size(); ++i) {
        const std::size_t in = s.in_seg[i];
        std::uint8_t up;
        if (opts_.input_queue_depth == 0) {
          up = (stalled && fwd_[in]) ? 1 : 0;
        } else {
          up = (s.q_size[i] >= opts_.input_queue_depth && stalled) ? 1 : 0;
        }
        if (stop_[in] != up) {
          stop_[in] = up;
          changed = true;
        }
      }
    }
  }
}

void Skeleton::attach_probe(probe::Probe& probe) {
  LIPLIB_EXPECT(cycle_ == 0, "attach_probe after stepping");
  LIPLIB_EXPECT(probe_ == nullptr, "attach_probe called twice");
  LIPLIB_EXPECT(!probe.bound(), "probe is already bound to a simulator");
  LIPLIB_EXPECT(opts_.input_queue_depth == 0,
                "probe requires the paper's simplified shell "
                "(input_queue_depth == 0)");

  // Segments and stations were laid out sequentially, channel by channel
  // (see the constructor); replay that layout to recover the mapping.
  probe::Wiring w;
  w.strict = strict();
  w.segments.resize(fwd_.size());
  w.stations.resize(stations_.size());
  std::size_t seg = 0;
  std::size_t station = 0;
  for (graph::ChannelId c = 0; c < topo_.channels().size(); ++c) {
    const auto& ch = topo_.channel(c);
    const std::size_t n_st = ch.num_stations();
    for (std::size_t h = 0; h <= n_st; ++h) {
      probe::Wiring::Segment& s = w.segments[seg + h];
      s.channel = c;
      s.hop = h;
      if (h == 0) {
        const auto& from = topo_.node(ch.from.node);
        s.producer.kind = from.kind == graph::NodeKind::kProcess
                              ? probe::UnitKind::kShell
                              : probe::UnitKind::kSource;
        s.producer.index = node_index_[ch.from.node];
      } else {
        s.producer.kind = probe::UnitKind::kStation;
        s.producer.index = station + h - 1;
      }
      if (h < n_st) {
        s.consumer.kind = probe::UnitKind::kStation;
        s.consumer.index = station + h;
      } else {
        const auto& to = topo_.node(ch.to.node);
        s.consumer.kind = to.kind == graph::NodeKind::kProcess
                              ? probe::UnitKind::kShell
                              : probe::UnitKind::kSink;
        s.consumer.index = node_index_[ch.to.node];
      }
    }
    for (std::size_t k = 0; k < n_st; ++k) {
      probe::Wiring::Station& st = w.stations[station + k];
      st.channel = c;
      st.index = k;
      st.full = stations_[station + k].kind == graph::RsKind::kFull;
      st.in_seg = stations_[station + k].in_seg;
      st.out_seg = stations_[station + k].out_seg;
    }
    seg += n_st + 1;
    station += n_st;
  }
  for (const auto& s : shells_) {
    probe::Wiring::Shell sh;
    sh.node = s.node;
    sh.in_segs = s.in_seg;
    for (const auto& port : s.out) {
      sh.out_segs.insert(sh.out_segs.end(), port.branch.begin(),
                         port.branch.end());
    }
    w.shells.push_back(std::move(sh));
  }
  for (graph::NodeId v = 0; v < topo_.nodes().size(); ++v) {
    if (topo_.node(v).kind == graph::NodeKind::kSource) {
      w.sources.push_back({v});
    } else if (topo_.node(v).kind == graph::NodeKind::kSink) {
      w.sinks.push_back({v});
    }
  }

  probe.bind(topo_, std::move(w));
  probe_ = &probe;
}

void Skeleton::observe_probe() {
  std::uint8_t* valid = probe_->valid_scratch();
  std::uint8_t* stop = probe_->stop_scratch();
  for (std::size_t i = 0; i < fwd_.size(); ++i) {
    valid[i] = fwd_[i];
    stop[i] = stop_[i];
  }
  probe::Activity* act = probe_->activity_scratch();
  for (std::size_t k = 0; k < shells_.size(); ++k) {
    const Shell& s = shells_[k];
    if (shell_can_fire(s)) {
      act[k] = probe::Activity::kFired;
    } else {
      bool missing = false;
      for (std::size_t in : s.in_seg) {
        if (!fwd_[in]) {
          missing = true;
          break;
        }
      }
      act[k] = missing ? probe::Activity::kWaitingInput
                       : probe::Activity::kStoppedOutput;
    }
  }
  probe_->commit_cycle(cycle_);
}

void Skeleton::saturate_stations() {
  for (auto& st : stations_) {
    if (st.occ == 0) st.occ = 1;
    st.v0 = true;  // the front token becomes valid data
  }
}

void Skeleton::step() {
  // Phase 1: forward validity.
  for (const auto& s : shells_) {
    for (const auto& p : s.out) {
      for (std::size_t b = 0; b < p.branch.size(); ++b) {
        fwd_[p.branch[b]] = (p.pend >> b) & 1u;
      }
    }
  }
  for (const auto& s : sources_) {
    for (std::size_t b = 0; b < s.port.branch.size(); ++b) {
      fwd_[s.port.branch[b]] = (s.port.pend >> b) & 1u;
    }
  }
  for (const auto& st : stations_) {
    fwd_[st.out_seg] = (st.occ > 0 && st.v0) ? 1 : 0;
  }

  // Phase 2: stops.
  settle_stops();

  if (probe_) observe_probe();

  // Phase 3: clock edge.
  for (auto& s : shells_) {
    const bool fire = shell_can_fire(s);
    for (auto& p : s.out) {
      for (std::size_t b = 0; b < p.branch.size(); ++b) {
        if (((p.pend >> b) & 1u) && !stop_[p.branch[b]]) {
          p.pend &= ~(1u << b);
        }
      }
    }
    if (fire) {
      for (auto& p : s.out) {
        LIPLIB_ENSURE(p.pend == 0, "skeleton shell fired while pending");
        p.load_all();
      }
      if (opts_.input_queue_depth > 0) {
        for (auto& q : s.q_size) --q;
      }
      ++s.fire_count;
    }
    if (opts_.input_queue_depth > 0) {
      for (std::size_t i = 0; i < s.in_seg.size(); ++i) {
        const std::size_t in = s.in_seg[i];
        if (fwd_[in] && !stop_[in]) {
          LIPLIB_ENSURE(s.q_size[i] < opts_.input_queue_depth,
                        "skeleton shell input queue overflow");
          ++s.q_size[i];
        }
      }
    }
  }
  for (auto& st : stations_) {
    const bool in_valid = fwd_[st.in_seg] != 0;
    const bool front_valid = st.occ > 0 && st.v0;
    const bool s_eff = strict() ? (stop_[st.out_seg] != 0)
                                : (stop_[st.out_seg] && front_valid);
    const bool consumed = st.occ > 0 && !s_eff;
    if (st.kind == graph::RsKind::kFull) {
      const bool accept = !st.stop_reg && (strict() || in_valid);
      if (consumed) {
        st.v0 = st.v1;
        --st.occ;
      }
      if (accept) {
        LIPLIB_ENSURE(st.occ < 2, "skeleton full station overflow");
        (st.occ == 0 ? st.v0 : st.v1) = in_valid;
        ++st.occ;
      }
      st.stop_reg = (st.occ == 2);
    } else {
      const bool stop_up = st.occ > 0 && s_eff;
      const bool accept = !stop_up && (strict() || in_valid);
      if (consumed) st.occ = 0;
      if (accept) {
        LIPLIB_ENSURE(st.occ == 0, "skeleton half station overflow");
        st.v0 = in_valid;
        st.occ = 1;
      }
    }
  }
  for (auto& s : sources_) {
    for (std::size_t b = 0; b < s.port.branch.size(); ++b) {
      if (((s.port.pend >> b) & 1u) && !stop_[s.port.branch[b]]) {
        s.port.pend &= ~(1u << b);
      }
    }
    if (s.port.pend == 0) s.port.load_all();  // always-ready source
  }
  for (auto& s : sinks_) {
    if (fwd_[s.in_seg] && !stop_[s.in_seg]) ++s.consumed;
  }
  ++cycle_;
}

std::uint64_t Skeleton::fires(graph::NodeId process) const {
  LIPLIB_EXPECT(process < topo_.nodes().size() &&
                    topo_.node(process).kind == graph::NodeKind::kProcess,
                "node is not a process");
  return shells_[node_index_[process]].fire_count;
}

std::string Skeleton::state_signature() const {
  std::string s;
  s.reserve(shells_.size() * 4 + sources_.size() + stations_.size());
  for (const auto& sh : shells_) {
    for (const auto& p : sh.out) {
      s.push_back(static_cast<char>(p.pend & 0xff));
      s.push_back(static_cast<char>((p.pend >> 8) & 0xff));
    }
    for (auto q : sh.q_size) s.push_back(static_cast<char>(q));
  }
  for (const auto& src : sources_) {
    s.push_back(static_cast<char>(src.port.pend & 0xff));
  }
  for (const auto& st : stations_) {
    char b = static_cast<char>(st.occ);
    // Mask slot validity by occupancy: unoccupied slots are not state.
    if (st.occ > 0 && st.v0) b |= 4;
    if (st.occ > 1 && st.v1) b |= 8;
    if (st.stop_reg) b |= 16;
    s.push_back(b);
  }
  return s;
}

SkeletonResult Skeleton::analyze(std::uint64_t max_cycles,
                                 std::uint64_t env_period) {
  LIPLIB_EXPECT(env_period >= 1, "environment period must be >= 1");
  struct Snap {
    std::uint64_t cycle;
    std::vector<std::uint64_t> fires;
  };
  auto snap = [&] {
    Snap s;
    s.cycle = cycle_;
    for (const auto& sh : shells_) s.fires.push_back(sh.fire_count);
    return s;
  };
  SkeletonResult result;
  for (const auto& sh : shells_) result.shell_ids.push_back(sh.node);

  std::unordered_map<std::string, Snap> seen;
  for (std::uint64_t i = 0; i <= max_cycles; ++i) {
    std::string key = state_signature();
    key.push_back(static_cast<char>(cycle_ % env_period));
    auto [it, inserted] = seen.emplace(std::move(key), snap());
    if (!inserted) {
      const Snap& first = it->second;
      const Snap now = snap();
      result.found = true;
      result.transient = first.cycle;
      result.period = now.cycle - first.cycle;
      bool progress = false;
      for (std::size_t k = 0; k < now.fires.size(); ++k) {
        const auto delta = now.fires[k] - first.fires[k];
        if (delta > 0) progress = true;
        if (delta == 0) result.has_starved_shell = true;
        result.shell_throughput.emplace_back(
            static_cast<std::int64_t>(delta),
            static_cast<std::int64_t>(result.period));
      }
      result.deadlocked = !progress && !shells_.empty();
      return result;
    }
    step();
  }
  return result;
}

ScreeningVerdict screening_verdict(const SkeletonResult& r,
                                   std::uint64_t cycles_simulated) {
  ScreeningVerdict v;
  v.ran_to_steady_state = r.found;
  v.deadlock_found = r.deadlocked || r.has_starved_shell;
  v.transient = r.transient;
  v.period = r.period;
  v.cycles_simulated = cycles_simulated;
  v.min_throughput = r.system_throughput();
  v.starved = r.starved_shells();
  return v;
}

}  // namespace liplib::skeleton
