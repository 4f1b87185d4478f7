#include "liplib/probe/probe.hpp"

#include <algorithm>
#include <map>

#include "liplib/support/check.hpp"

namespace liplib::probe {

namespace {

const char* activity_str(Activity a) {
  switch (a) {
    case Activity::kFired: return "fire";
    case Activity::kWaitingInput: return "wait";
    case Activity::kStoppedOutput: return "stall";
  }
  return "?";
}

const char* why_str(Activity a) {
  return a == Activity::kWaitingInput ? "waiting" : "stopped";
}

const char* kind_str(UnitKind k) {
  switch (k) {
    case UnitKind::kShell: return "shell";
    case UnitKind::kSource: return "source";
    case UnitKind::kSink: return "sink";
    case UnitKind::kStation: return "station";
  }
  return "?";
}

/// Trace process id of the simulated design (the kernel probe uses 2).
constexpr std::uint64_t kTracePid = 1;

}  // namespace

Probe::Probe(ProbeConfig cfg) : cfg_(cfg) {}

Probe::~Probe() { finish_trace(); }

void Probe::bind(const graph::Topology& topo, bool strict) {
  LIPLIB_EXPECT(!bound_, "probe already bound to a simulator");
  topo_ = topo;
  bound_ = true;

  wiring_ = Wiring{};
  wiring_.strict = strict;
  std::vector<std::size_t> index(topo_.nodes().size());
  // Out branches per shell and port, flattened port-major below.
  std::vector<std::vector<std::vector<std::size_t>>> branches;
  for (graph::NodeId v = 0; v < topo_.nodes().size(); ++v) {
    const auto& node = topo_.node(v);
    if (node.kind == graph::NodeKind::kProcess) {
      index[v] = wiring_.shells.size();
      wiring_.shells.push_back(
          {v, std::vector<std::size_t>(node.num_inputs), {}});
      branches.emplace_back(node.num_outputs);
    } else {
      auto& env = node.kind == graph::NodeKind::kSource ? wiring_.sources
                                                        : wiring_.sinks;
      index[v] = env.size();
      env.push_back({v});
    }
  }
  auto endpoint = [&](graph::NodeId v, UnitKind env) {
    const bool shell = topo_.node(v).kind == graph::NodeKind::kProcess;
    return Wiring::Endpoint{shell ? UnitKind::kShell : env, index[v]};
  };
  channel_segs_.assign(topo_.channels().size(), {});
  for (graph::ChannelId c = 0; c < topo_.channels().size(); ++c) {
    const auto& ch = topo_.channel(c);
    const std::size_t n_st = ch.num_stations();
    const std::size_t seg = wiring_.segments.size();
    const std::size_t station = wiring_.stations.size();
    for (std::size_t h = 0; h <= n_st; ++h) {
      wiring_.segments.push_back(
          {c, h,
           h == 0 ? endpoint(ch.from.node, UnitKind::kSource)
                  : Wiring::Endpoint{UnitKind::kStation, station + h - 1},
           h < n_st ? Wiring::Endpoint{UnitKind::kStation, station + h}
                    : endpoint(ch.to.node, UnitKind::kSink)});
      channel_segs_[c].push_back(seg + h);
    }
    for (std::size_t k = 0; k < n_st; ++k) {
      wiring_.stations.push_back({c, k, ch.stations[k] == graph::RsKind::kFull,
                                  seg + k, seg + k + 1});
    }
    if (topo_.node(ch.from.node).kind == graph::NodeKind::kProcess) {
      branches[index[ch.from.node]][ch.from.port].push_back(seg);
    }
    if (topo_.node(ch.to.node).kind == graph::NodeKind::kProcess) {
      wiring_.shells[index[ch.to.node]].in_segs[ch.to.port] = seg + n_st;
    }
  }
  for (std::size_t k = 0; k < wiring_.shells.size(); ++k) {
    for (const auto& port : branches[k]) {
      auto& out = wiring_.shells[k].out_segs;
      out.insert(out.end(), port.begin(), port.end());
    }
  }

  valid_.assign(wiring_.segments.size(), 0);
  stop_.assign(wiring_.segments.size(), 0);
  activity_.assign(wiring_.shells.size(), Activity::kFired);

  shell_tally_.assign(wiring_.shells.size(), {});
  seg_tally_.assign(wiring_.segments.size(), {});
  unit_count_ = wiring_.shells.size() + wiring_.sources.size() +
                wiring_.sinks.size() + wiring_.stations.size();
  if (cfg_.attribution) {
    blame_.assign(wiring_.shells.size() * 3 * unit_count_, 0);
    visit_mark_.assign(wiring_.shells.size(), 0);
  }

  // Names, by unit ordinal: shells, sources, sinks, stations.
  auto base = [&](graph::ChannelId c) {
    const auto& ch = topo_.channel(c);
    return topo_.node(ch.from.node).name + "_to_" + topo_.node(ch.to.node).name;
  };
  unit_names_.clear();
  unit_names_.reserve(unit_count_);
  for (const auto& s : wiring_.shells) unit_names_.push_back(topo_.node(s.node).name);
  for (const auto& s : wiring_.sources) unit_names_.push_back(topo_.node(s.node).name);
  for (const auto& s : wiring_.sinks) unit_names_.push_back(topo_.node(s.node).name);
  for (const auto& st : wiring_.stations) {
    unit_names_.push_back(base(st.channel) + ".rs" + std::to_string(st.index));
  }

  channel_track_.clear();
  std::map<std::string, std::size_t> track_uses;
  for (graph::ChannelId c = 0; c < topo_.channels().size(); ++c) {
    std::string name = "occ " + base(c);
    if (track_uses[name]++ > 0) (name += '#') += std::to_string(c);
    channel_track_.push_back(std::move(name));
  }

  span_.assign(wiring_.shells.size(), {});
  chan_sample_.assign(topo_.channels().size(), {});

  if (cfg_.trace != nullptr) {
    cfg_.trace->name_process(kTracePid, "lid");
    for (std::size_t i = 0; i < wiring_.shells.size(); ++i) {
      cfg_.trace->name_thread(kTracePid, i + 1, unit_names_[i]);
    }
  }

  if (cfg_.observer != nullptr) cfg_.observer->on_bind(*this);
}

std::size_t Probe::unit_ordinal(const Unit& u) const {
  std::size_t off = 0;
  switch (u.kind) {
    case UnitKind::kShell:
      for (std::size_t i = 0; i < wiring_.shells.size(); ++i) {
        if (wiring_.shells[i].node == u.node) return off + i;
      }
      break;
    case UnitKind::kSource:
      off = wiring_.shells.size();
      for (std::size_t i = 0; i < wiring_.sources.size(); ++i) {
        if (wiring_.sources[i].node == u.node) return off + i;
      }
      break;
    case UnitKind::kSink:
      off = wiring_.shells.size() + wiring_.sources.size();
      for (std::size_t i = 0; i < wiring_.sinks.size(); ++i) {
        if (wiring_.sinks[i].node == u.node) return off + i;
      }
      break;
    case UnitKind::kStation:
      off = wiring_.shells.size() + wiring_.sources.size() +
            wiring_.sinks.size();
      for (std::size_t i = 0; i < wiring_.stations.size(); ++i) {
        if (wiring_.stations[i].channel == u.channel &&
            wiring_.stations[i].index == u.station) {
          return off + i;
        }
      }
      break;
  }
  throw InternalError("probe: unit not found in wiring");
}

Unit Probe::ordinal_unit(std::size_t ordinal) const {
  const std::size_t s = wiring_.shells.size();
  const std::size_t so = wiring_.sources.size();
  const std::size_t si = wiring_.sinks.size();
  Unit u;
  if (ordinal < s) {
    u.kind = UnitKind::kShell;
    u.node = wiring_.shells[ordinal].node;
  } else if (ordinal < s + so) {
    u.kind = UnitKind::kSource;
    u.node = wiring_.sources[ordinal - s].node;
  } else if (ordinal < s + so + si) {
    u.kind = UnitKind::kSink;
    u.node = wiring_.sinks[ordinal - s - so].node;
  } else {
    const auto& st = wiring_.stations[ordinal - s - so - si];
    u.kind = UnitKind::kStation;
    u.channel = st.channel;
    u.station = st.index;
  }
  return u;
}

std::string Probe::unit_name(const Unit& u) const {
  return unit_names_[unit_ordinal(u)];
}

Unit Probe::attribute(std::size_t shell, Activity why) {
  // Stamped visited set: one bump per walk, no clearing.
  ++visit_stamp_;
  visit_mark_[shell] = visit_stamp_;

  auto first_void_input = [&](std::size_t sh) -> std::size_t {
    for (std::size_t in : wiring_.shells[sh].in_segs) {
      if (!valid_[in]) return in;
    }
    return static_cast<std::size_t>(-1);
  };
  auto first_blocked_output = [&](std::size_t sh) -> std::size_t {
    for (std::size_t out : wiring_.shells[sh].out_segs) {
      if (blocking(out)) return out;
    }
    return static_cast<std::size_t>(-1);
  };
  auto shell_unit = [&](std::size_t sh) {
    Unit u;
    u.kind = UnitKind::kShell;
    u.node = wiring_.shells[sh].node;
    return u;
  };
  auto station_unit = [&](std::size_t st) {
    Unit u;
    u.kind = UnitKind::kStation;
    u.channel = wiring_.stations[st].channel;
    u.station = wiring_.stations[st].index;
    return u;
  };

  bool void_mode = (why == Activity::kWaitingInput);
  std::size_t seg = void_mode ? first_void_input(shell)
                              : first_blocked_output(shell);
  if (seg == static_cast<std::size_t>(-1)) return shell_unit(shell);

  const std::size_t guard =
      2 * wiring_.segments.size() + 2 * wiring_.shells.size() + 8;
  for (std::size_t steps = 0;; ++steps) {
    LIPLIB_ENSURE(steps <= guard, "probe blame walk failed to terminate");
    if (void_mode) {
      // Chase the void upstream to where it was produced.
      const Wiring::Endpoint& p = wiring_.segments[seg].producer;
      switch (p.kind) {
        case UnitKind::kSource: {
          Unit u;
          u.kind = UnitKind::kSource;
          u.node = wiring_.sources[p.index].node;
          return u;
        }
        case UnitKind::kStation: {
          const auto& st = wiring_.stations[p.index];
          if (!valid_[st.in_seg]) {
            seg = st.in_seg;  // the void is still arriving from upstream
            continue;
          }
          // Valid data behind a void front: the bubble sits here.
          return station_unit(p.index);
        }
        case UnitKind::kShell: {
          const std::size_t sh = p.index;
          if (visit_mark_[sh] == visit_stamp_) return shell_unit(sh);
          visit_mark_[sh] = visit_stamp_;
          if (activity_[sh] == Activity::kWaitingInput) {
            const std::size_t in = first_void_input(sh);
            if (in == static_cast<std::size_t>(-1)) return shell_unit(sh);
            seg = in;
            continue;
          }
          if (activity_[sh] == Activity::kStoppedOutput) {
            const std::size_t out = first_blocked_output(sh);
            if (out == static_cast<std::size_t>(-1)) return shell_unit(sh);
            void_mode = false;
            seg = out;
            continue;
          }
          // Fired: the void is this shell's refill latency.
          return shell_unit(sh);
        }
        default:
          throw InternalError("probe: sink as producer");
      }
    } else {
      // Chase the stop downstream to where it originates.
      const Wiring::Endpoint& c = wiring_.segments[seg].consumer;
      switch (c.kind) {
        case UnitKind::kSink: {
          Unit u;
          u.kind = UnitKind::kSink;
          u.node = wiring_.sinks[c.index].node;
          return u;
        }
        case UnitKind::kStation: {
          const auto& st = wiring_.stations[c.index];
          if (st.full) {
            // The registered stop means "I was full"; it only persists
            // while the station itself cannot drain.
            if (blocking(st.out_seg)) {
              seg = st.out_seg;
              continue;
            }
            return station_unit(c.index);  // draining congestion
          }
          seg = st.out_seg;  // half stations are stop-transparent
          continue;
        }
        case UnitKind::kShell: {
          const std::size_t sh = c.index;
          if (visit_mark_[sh] == visit_stamp_) return shell_unit(sh);
          visit_mark_[sh] = visit_stamp_;
          if (activity_[sh] == Activity::kWaitingInput) {
            const std::size_t in = first_void_input(sh);
            if (in == static_cast<std::size_t>(-1)) return shell_unit(sh);
            void_mode = true;
            seg = in;
            continue;
          }
          if (activity_[sh] == Activity::kStoppedOutput) {
            const std::size_t out = first_blocked_output(sh);
            if (out == static_cast<std::size_t>(-1)) return shell_unit(sh);
            seg = out;
            continue;
          }
          return shell_unit(sh);
        }
        default:
          throw InternalError("probe: source as consumer");
      }
    }
  }
}

void Probe::count_cycle() {
  for (std::size_t i = 0; i < seg_tally_.size(); ++i) {
    SegTally& t = seg_tally_[i];
    if (valid_[i]) ++t.valid;
    if (stop_[i]) {
      ++t.stopped;
      if (valid_[i]) ++t.stop_on_valid;
    }
  }
  for (std::size_t k = 0; k < shell_tally_.size(); ++k) {
    ++shell_tally_[k].counts[static_cast<std::size_t>(activity_[k])];
  }
}

void Probe::trace_cycle(std::uint64_t cycle) {
  TraceSink& sink = *cfg_.trace;
  for (std::size_t k = 0; k < span_.size(); ++k) {
    Span& sp = span_[k];
    const Activity a = activity_[k];
    if (sp.open && sp.act == a) continue;
    if (sp.open) {
      sink.complete_event(activity_str(sp.act), "shell", sp.start,
                          cycle - sp.start, kTracePid, k + 1);
    }
    sp = {a, cycle, true};
  }
  for (std::size_t c = 0; c < channel_segs_.size(); ++c) {
    std::uint64_t v = 0;
    std::uint64_t s = 0;
    for (std::size_t seg : channel_segs_[c]) {
      v += valid_[seg];
      s += stop_[seg];
    }
    ChanSample& last = chan_sample_[c];
    if (v != last.valid || s != last.stopped) {
      sink.counter_event(channel_track_[c], cycle, kTracePid,
                         {{"valid", v}, {"stop", s}});
      last = {v, s};
    }
  }
}

void Probe::commit_cycle(std::uint64_t cycle) {
  LIPLIB_EXPECT(bound_, "commit_cycle on an unbound probe");
  if (cfg_.counters) count_cycle();
  if (cfg_.attribution) {
    for (std::size_t k = 0; k < activity_.size(); ++k) {
      const Activity a = activity_[k];
      if (a == Activity::kFired) continue;
      const Unit culprit = attribute(k, a);
      const std::size_t why = static_cast<std::size_t>(a);
      blame_[(k * 3 + why) * unit_count_ + unit_ordinal(culprit)] += 1;
    }
  }
  if (cfg_.trace != nullptr) trace_cycle(cycle);
  ++window_cycles_;
  last_cycle_ = cycle;
  any_cycle_ = true;
  // Observers run last so blame/counter state includes this cycle.
  if (cfg_.observer != nullptr) {
    cfg_.observer->on_cycle(cycle, valid_.data(), stop_.data(),
                            activity_.data());
  }
}

void Probe::reset_window() {
  window_cycles_ = 0;
  std::fill(shell_tally_.begin(), shell_tally_.end(), ShellTally{});
  std::fill(seg_tally_.begin(), seg_tally_.end(), SegTally{});
  std::fill(blame_.begin(), blame_.end(), 0);
}

Probe::WindowCounters Probe::window_counters() const {
  WindowCounters w;
  each_counter(*this, [&](std::uint64_t c) { w.counts.push_back(c); });
  return w;
}

void Probe::advance(const WindowCounters& from, const WindowCounters& to,
                    std::uint64_t n) {
  LIPLIB_EXPECT(cfg_.trace == nullptr,
                "probe advance with a trace sink attached");
  LIPLIB_EXPECT(from.counts.size() == to.counts.size() &&
                    to.counts.size() == window_counters().counts.size(),
                "probe advance with snapshots of another probe");
  for (std::size_t i = 0; i < to.counts.size(); ++i) {
    LIPLIB_EXPECT(from.counts[i] <= to.counts[i],
                  "probe advance with snapshots out of order or across "
                  "a window reset");
  }
  std::size_t i = 0;
  each_counter(*this, [&](std::uint64_t& c) {
    c += n * (to.counts[i] - from.counts[i]);
    ++i;
  });
}

void Probe::finish_trace() {
  if (cfg_.trace == nullptr || cfg_.trace->finished()) return;
  if (any_cycle_) {
    for (std::size_t k = 0; k < span_.size(); ++k) {
      const Span& sp = span_[k];
      if (sp.open) {
        cfg_.trace->complete_event(activity_str(sp.act), "shell", sp.start,
                                   last_cycle_ + 1 - sp.start, kTracePid,
                                   k + 1);
      }
    }
  }
  cfg_.trace->finish();
}

ProbeReport Probe::report() const {
  LIPLIB_EXPECT(bound_, "report on an unbound probe");
  ProbeReport r;
  r.cycles = window_cycles_;
  for (std::size_t k = 0; k < wiring_.shells.size(); ++k) {
    ShellCount c;
    c.node = wiring_.shells[k].node;
    c.name = unit_names_[k];
    c.fired = shell_tally_[k].counts[0];
    c.waiting = shell_tally_[k].counts[1];
    c.stopped = shell_tally_[k].counts[2];
    r.shells.push_back(std::move(c));
  }
  for (std::size_t i = 0; i < wiring_.segments.size(); ++i) {
    const auto& w = wiring_.segments[i];
    SegmentCount c;
    c.channel = w.channel;
    c.hop = w.hop;
    const auto& ch = topo_.channel(w.channel);
    c.label = topo_.node(ch.from.node).name + "_to_" +
              topo_.node(ch.to.node).name + ".h" + std::to_string(w.hop);
    c.valid = seg_tally_[i].valid;
    c.voids = window_cycles_ - seg_tally_[i].valid;
    c.stopped = seg_tally_[i].stopped;
    c.stop_on_valid = seg_tally_[i].stop_on_valid;
    c.stop_on_void = seg_tally_[i].stopped - seg_tally_[i].stop_on_valid;
    r.segments.push_back(std::move(c));
  }
  for (std::size_t k = 0; !blame_.empty() && k < wiring_.shells.size(); ++k) {
    for (std::size_t why = 0; why < 3; ++why) {
      for (std::size_t u = 0; u < unit_count_; ++u) {
        const std::uint64_t n = blame_[(k * 3 + why) * unit_count_ + u];
        if (n == 0) continue;
        BlameEntry e;
        e.victim = wiring_.shells[k].node;
        e.victim_name = unit_names_[k];
        e.why = static_cast<Activity>(why);
        e.culprit = ordinal_unit(u);
        e.culprit_name = unit_names_[u];
        e.cycles = n;
        r.blame.push_back(std::move(e));
      }
    }
  }
  std::stable_sort(r.blame.begin(), r.blame.end(),
                   [](const BlameEntry& a, const BlameEntry& b) {
                     return a.cycles > b.cycles;
                   });
  return r;
}

Rational ProbeReport::throughput(graph::NodeId shell) const {
  for (const auto& s : shells) {
    if (s.node == shell) {
      if (cycles == 0) return Rational(0);
      return Rational(static_cast<std::int64_t>(s.fired),
                      static_cast<std::int64_t>(cycles));
    }
  }
  throw ApiError("probe report has no shell with node id " +
                 std::to_string(shell));
}

Rational ProbeReport::min_throughput() const {
  Rational best(1);
  for (const auto& s : shells) {
    const Rational t = throughput(s.node);
    if (t < best) best = t;
  }
  return shells.empty() ? Rational(0) : best;
}

const BlameEntry* ProbeReport::top_blame() const {
  return blame.empty() ? nullptr : &blame.front();
}

Json ProbeReport::to_json() const {
  Json j = Json::object();
  j.set("schema", "liplib.probe/1");
  j.set("cycles", cycles);
  j.set("min_throughput", min_throughput());
  Json sh = Json::array();
  for (const auto& s : shells) {
    Json e = Json::object();
    e.set("node", static_cast<std::uint64_t>(s.node));
    e.set("name", s.name);
    e.set("fired", s.fired);
    e.set("waiting", s.waiting);
    e.set("stopped", s.stopped);
    e.set("throughput", throughput(s.node));
    sh.push(std::move(e));
  }
  j.set("shells", std::move(sh));
  Json segs = Json::array();
  for (const auto& s : segments) {
    Json e = Json::object();
    e.set("channel", static_cast<std::uint64_t>(s.channel));
    e.set("hop", static_cast<std::uint64_t>(s.hop));
    e.set("label", s.label);
    e.set("valid", s.valid);
    e.set("void", s.voids);
    e.set("stop", s.stopped);
    e.set("stop_on_valid", s.stop_on_valid);
    e.set("stop_on_void", s.stop_on_void);
    segs.push(std::move(e));
  }
  j.set("segments", std::move(segs));
  Json bl = Json::array();
  for (const auto& b : blame) {
    Json e = Json::object();
    e.set("victim", b.victim_name);
    e.set("why", why_str(b.why));
    e.set("culprit", b.culprit_name);
    e.set("culprit_kind", kind_str(b.culprit.kind));
    e.set("cycles", b.cycles);
    bl.push(std::move(e));
  }
  j.set("blame", std::move(bl));
  return j;
}

// ---- KernelProbe -------------------------------------------------------

KernelProbe::KernelProbe(TraceSink* trace, std::uint64_t pid)
    : trace_(trace), pid_(pid) {
  if (trace_ != nullptr) trace_->name_process(pid_, "sim-kernel");
}

void KernelProbe::on_delta(sim::Time /*now*/, std::size_t changes,
                           std::size_t wakeups) {
  ++counters_.delta_cycles;
  counters_.signal_changes += changes;
  counters_.process_wakeups += wakeups;
}

void KernelProbe::on_time_serviced(sim::Time now, std::uint64_t deltas) {
  ++counters_.time_points;
  if (deltas > counters_.max_deltas_per_time) {
    counters_.max_deltas_per_time = deltas;
  }
  if (trace_ != nullptr) {
    trace_->counter_event("deltas", now, pid_, {{"deltas", deltas}});
  }
}

Json KernelProbe::to_json() const {
  Json j = Json::object();
  j.set("schema", "liplib.kernel-probe/1");
  j.set("time_points", counters_.time_points);
  j.set("delta_cycles", counters_.delta_cycles);
  j.set("signal_changes", counters_.signal_changes);
  j.set("process_wakeups", counters_.process_wakeups);
  j.set("max_deltas_per_time", counters_.max_deltas_per_time);
  return j;
}

}  // namespace liplib::probe
