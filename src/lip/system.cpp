#include "liplib/lip/system.hpp"

#include <algorithm>
#include <ostream>

#include "liplib/probe/probe.hpp"
#include "liplib/support/vcd.hpp"

namespace liplib::lip {

namespace detail {

/// Owns the VCD writer and the per-segment signal handles.
struct VcdTap {
  explicit VcdTap(std::ostream& os) : writer(os, "lid") {}
  VcdWriter writer;
  // Per segment: valid, data, stop signal ids (in segment order).
  std::vector<VcdWriter::SignalId> valid_id;
  std::vector<VcdWriter::SignalId> data_id;
  std::vector<VcdWriter::SignalId> stop_id;
};

}  // namespace detail

namespace {
constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
}

System::System(const graph::Topology& topo, Options opts)
    : topo_(topo), opts_(opts) {
  // With input-queued shells the queue is the memory element between
  // shells, so the station rule is waived.
  const auto report =
      topo_.validate(/*require_station_between_shells=*/opts_.input_queue_depth == 0);
  LIPLIB_EXPECT(report.ok(),
                "topology has structural errors:\n" + report.to_string());

  node_index_.assign(topo_.nodes().size(), kNoIndex);
  for (graph::NodeId v = 0; v < topo_.nodes().size(); ++v) {
    const auto& node = topo_.node(v);
    switch (node.kind) {
      case graph::NodeKind::kProcess: {
        ShellState s;
        s.node = v;
        s.in_seg.assign(node.num_inputs, 0);
        s.out.resize(node.num_outputs);
        s.in_scratch.assign(node.num_inputs, 0);
        s.out_scratch.assign(node.num_outputs, 0);
        node_index_[v] = shells_.size();
        shells_.push_back(std::move(s));
        break;
      }
      case graph::NodeKind::kSource: {
        SourceState s;
        s.node = v;
        s.behavior = SourceBehavior::counter();
        node_index_[v] = sources_.size();
        sources_.push_back(std::move(s));
        break;
      }
      case graph::NodeKind::kSink: {
        SinkState s;
        s.node = v;
        s.behavior = SinkBehavior::greedy();
        node_index_[v] = sinks_.size();
        sinks_.push_back(std::move(s));
        break;
      }
    }
  }

  channel_segs_.resize(topo_.channels().size());
  channel_stations_.resize(topo_.channels().size());
  for (graph::ChannelId c = 0; c < topo_.channels().size(); ++c) {
    const auto& ch = topo_.channel(c);
    const std::size_t hops = ch.num_stations() + 1;
    std::vector<SegId> ids;
    ids.reserve(hops);
    for (std::size_t h = 0; h < hops; ++h) {
      ids.push_back(segs_.size());
      segs_.emplace_back();
    }
    // Producer side.
    const auto& from_node = topo_.node(ch.from.node);
    if (from_node.kind == graph::NodeKind::kProcess) {
      auto& port = shells_[node_index_[ch.from.node]].out[ch.from.port];
      LIPLIB_EXPECT(port.branch.size() < 32,
                    "more than 32 fanout branches on output port " +
                        std::to_string(ch.from.port) + " of '" +
                        from_node.name + "'");
      port.branch.push_back(ids.front());
    } else {
      LIPLIB_EXPECT(from_node.kind == graph::NodeKind::kSource,
                    "sink cannot produce");
      auto& port = sources_[node_index_[ch.from.node]].port;
      LIPLIB_EXPECT(port.branch.size() < 32,
                    "more than 32 fanout branches on source '" +
                        from_node.name + "'");
      port.branch.push_back(ids.front());
    }
    // Relay station chain.
    for (std::size_t i = 0; i < ch.num_stations(); ++i) {
      Station st;
      st.kind = ch.stations[i];
      st.in_seg = ids[i];
      st.out_seg = ids[i + 1];
      if (strict()) {
        // Relay stations are initialized with non-valid outputs (paper):
        // under the strict protocol the initial void is a real token that
        // occupies one register and must drain toward the outputs.
        st.slot[0] = Token::make_void();
        st.occ = 1;
      }
      channel_stations_[c].push_back(stations_.size());
      stations_.push_back(st);
    }
    // Consumer side.
    const auto& to_node = topo_.node(ch.to.node);
    if (to_node.kind == graph::NodeKind::kProcess) {
      shells_[node_index_[ch.to.node]].in_seg[ch.to.port] = ids.back();
    } else {
      LIPLIB_EXPECT(to_node.kind == graph::NodeKind::kSink,
                    "source cannot consume");
      sinks_[node_index_[ch.to.node]].in_seg = ids.back();
    }
    channel_segs_[c] = std::move(ids);
  }
  build_settle_order();
}

void System::build_settle_order() {
  // A segment's stop is written by its consumer and read by its producer
  // when that producer is a shell or a half station: a full station's
  // upstream stop is its register, and sources read no stop.
  std::vector<StopUnit> units;
  for (std::size_t k = 0; k < shells_.size(); ++k) units.push_back({true, k});
  for (std::size_t k = 0; k < stations_.size(); ++k) {
    if (stations_[k].kind == graph::RsKind::kHalf) units.push_back({false, k});
  }
  stop_reader_.assign(segs_.size(), kNoUnit);
  for (std::uint32_t u = 0; u < units.size(); ++u) {
    if (!units[u].shell) {
      stop_reader_[stations_[units[u].index].out_seg] = u;
      continue;
    }
    for (const auto& port : shells_[units[u].index].out) {
      for (SegId seg : port.branch) stop_reader_[seg] = u;
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> edges;  // writer -> reader
  auto wire = [&](std::uint32_t writer, SegId seg) {
    if (stop_reader_[seg] != kNoUnit) {
      edges.emplace_back(writer, stop_reader_[seg]);
    }
  };
  for (std::uint32_t u = 0; u < units.size(); ++u) {
    if (!units[u].shell) {
      wire(u, stations_[units[u].index].in_seg);
      continue;
    }
    for (SegId in : shells_[units[u].index].in_seg) wire(u, in);
  }
  // Every writer precedes its readers outside combinational stop cycles,
  // and units are renumbered by their place in that order.
  const auto order = graph::writers_first(graph::EdgeIndex(
      units.size(), edges.size(), [&](std::size_t e) { return edges[e]; },
      [](std::size_t) { return true; }));
  std::vector<std::uint32_t> place(units.size());
  for (std::uint32_t k = 0; k < order.size(); ++k) {
    units_.push_back(units[order[k]]);
    place[order[k]] = k;
  }
  for (auto& reader : stop_reader_) {
    if (reader != kNoUnit) reader = place[reader];
  }
  queued_.assign(units_.size(), 0);
  pending_.reserve(segs_.size());
}

void System::bind_pearl(graph::NodeId node, std::unique_ptr<Pearl> pearl) {
  LIPLIB_EXPECT(!finalized_, "bind after finalize");
  LIPLIB_EXPECT(node < topo_.nodes().size() &&
                    topo_.node(node).kind == graph::NodeKind::kProcess,
                "bind_pearl target is not a process node");
  LIPLIB_EXPECT(pearl != nullptr, "null pearl");
  LIPLIB_EXPECT(pearl->num_inputs() == topo_.node(node).num_inputs &&
                    pearl->num_outputs() == topo_.node(node).num_outputs,
                "pearl arity does not match node " + topo_.node(node).name);
  shells_[node_index_[node]].pearl = std::move(pearl);
}

void System::bind_source(graph::NodeId node, SourceBehavior behavior) {
  LIPLIB_EXPECT(!finalized_, "bind after finalize");
  LIPLIB_EXPECT(node < topo_.nodes().size() &&
                    topo_.node(node).kind == graph::NodeKind::kSource,
                "bind_source target is not a source node");
  LIPLIB_EXPECT(behavior.value && behavior.ready,
                "source behavior has empty functions");
  sources_[node_index_[node]].behavior = std::move(behavior);
}

void System::bind_sink(graph::NodeId node, SinkBehavior behavior) {
  LIPLIB_EXPECT(!finalized_, "bind after finalize");
  LIPLIB_EXPECT(node < topo_.nodes().size() &&
                    topo_.node(node).kind == graph::NodeKind::kSink,
                "bind_sink target is not a sink node");
  LIPLIB_EXPECT(behavior.stop != nullptr, "sink behavior has empty stop");
  sinks_[node_index_[node]].behavior = std::move(behavior);
}

void System::finalize() {
  if (finalized_) return;
  for (auto& s : shells_) {
    LIPLIB_EXPECT(s.pearl != nullptr,
                  "process node " + topo_.node(s.node).name +
                      " has no pearl bound");
    if (opts_.input_queue_depth > 0) {
      s.in_q.resize(s.in_seg.size());
      for (auto& q : s.in_q) q.reserve(opts_.input_queue_depth);
    }
    // Shell output registers are initialized *valid* (paper footnote 1):
    // these tokens are what circulates in feedback loops at reset.
    for (std::size_t m = 0; m < s.out.size(); ++m) {
      s.out[m].load(Token::of(s.pearl->initial_output(m)));
    }
  }
  for (auto& s : sources_) {
    if (s.behavior.ready(0)) {
      s.port.load(Token::of(s.behavior.value(0)));
      s.emitted = 1;
    }
  }
  finalized_ = true;
}

void System::present_port(const OutPort& p) {
  for (std::size_t b = 0; b < p.branch.size(); ++b) {
    Seg& seg = segs_[p.branch[b]];
    seg.fwd = (p.pend >> b) & 1u ? Token::of(p.reg.data) : Token::make_void();
  }
}

void System::present_forward() {
  for (const auto& s : shells_) {
    for (const auto& port : s.out) present_port(port);
  }
  for (const auto& s : sources_) present_port(s.port);
  for (const auto& st : stations_) {
    segs_[st.out_seg].fwd = st.occ > 0 ? st.slot[0] : Token::make_void();
  }
}

bool System::shell_can_fire(const ShellState& s) const {
  if (opts_.input_queue_depth == 0) {
    for (SegId in : s.in_seg) {
      if (!segs_[in].fwd.valid) return false;
    }
  } else {
    for (const auto& q : s.in_q) {
      if (q.empty()) return false;
    }
  }
  for (const auto& port : s.out) {
    for (std::size_t b = 0; b < port.branch.size(); ++b) {
      const bool stopped = segs_[port.branch[b]].stop;
      if (strict()) {
        // Reference protocol: any stop blocks the shell, valid or not.
        if (stopped) return false;
      } else {
        // Paper variant: a stop only blocks if it holds a pending datum.
        if (stopped && ((port.pend >> b) & 1u)) return false;
      }
    }
  }
  return true;
}

void System::settle_stops() {
  const bool pessimistic = opts_.resolution == StopResolution::kPessimistic;

  // Every segment's stop has a unique writer — its consumer.  Roots
  // (sinks and full relay stations, whose stop is a register) are set
  // exactly; combinational writers (half relay stations, shells) start
  // at bottom (optimistic) or top (pessimistic) and settle to the least
  // or greatest fixed point of the monotone stop network.  For acyclic
  // stop networks both fixed points coincide; they differ exactly when a
  // loop closes a combinational stop cycle through half relay stations —
  // the paper's potential-deadlock configuration.
  for (auto& seg : segs_) seg.stop = pessimistic;

  for (auto& s : sinks_) {
    s.stop_now = s.behavior.stop(cycle_);
    segs_[s.in_seg].stop = s.stop_now;
  }
  for (const auto& st : stations_) {
    if (st.kind == graph::RsKind::kFull) {
      // The full relay station's upstream stop is a register: it breaks
      // the backward combinational path.
      segs_[st.in_seg].stop = st.stop_reg;
    }
  }
  // All remaining segments belong to half stations or shell inputs, the
  // units.  The ordered pass evaluates every unit once, writers first; a
  // unit whose evaluation changes a stop that an evaluated unit reads
  // queues that reader again.  Every stop rule is monotone and every stop
  // starts at an extreme value, so each stop changes at most once: at
  // most one evaluation per segment follows the pass, and the settle
  // lands on the extreme fixpoint that any evaluation order reaches.
  for (cursor_ = 0; cursor_ < units_.size(); ++cursor_) {
    eval_stop_unit(cursor_);
  }
  for (std::size_t head = 0; head < pending_.size(); ++head) {
    LIPLIB_ENSURE(head < segs_.size(), "stop fixpoint failed to converge");
    queued_[pending_[head]] = 0;
    eval_stop_unit(pending_[head]);
  }
  pending_.clear();
}

void System::eval_stop_unit(std::uint32_t unit) {
  const StopUnit u = units_[unit];
  if (!u.shell) {
    const Station& st = stations_[u.index];
    const bool front_valid = st.occ > 0 && st.slot[0].valid;
    const bool s_eff = strict() ? segs_[st.out_seg].stop
                                : (segs_[st.out_seg].stop && front_valid);
    set_stop(st.in_seg, st.occ > 0 && s_eff);
    return;
  }
  ShellState& s = shells_[u.index];
  s.fire = shell_can_fire(s);
  for (std::size_t i = 0; i < s.in_seg.size(); ++i) {
    const SegId in = s.in_seg[i];
    if (opts_.input_queue_depth == 0) {
      // Back pressure of the simplified shell: a stalled shell stops
      // the producers of its *valid* inputs (a void needs no holding
      // — shells discard voids under both policies; what "stops
      // regardless of validity" means for the strict protocol is
      // relay-station freezing and shell output blocking, not stop
      // generation on voids).
      set_stop(in, !s.fire && segs_[in].fwd.valid);
    } else {
      // Carloni-style buffered shell: back pressure only when the
      // input FIFO is full and will not drain this cycle.
      set_stop(in, s.in_q[i].size() >= opts_.input_queue_depth && !s.fire);
    }
  }
}

void System::set_stop(SegId seg, bool stop) {
  if (segs_[seg].stop == stop) return;
  segs_[seg].stop = stop;
  // A reader after the cursor is still due in the ordered pass.
  const std::uint32_t reader = stop_reader_[seg];
  if (reader == kNoUnit || reader > cursor_ || queued_[reader]) return;
  queued_[reader] = 1;
  pending_.push_back(reader);
}

void System::check_hold_invariant() {
  for (auto& seg : segs_) {
    if (seg.has_prev && seg.prev_stop && seg.prev_fwd.valid) {
      if (!(seg.fwd == seg.prev_fwd)) {
        throw ProtocolError(
            "hold-on-stop violated at cycle " + std::to_string(cycle_) +
            ": stopped datum " + seg.prev_fwd.str() + " became " +
            seg.fwd.str());
      }
    }
  }
  for (auto& seg : segs_) {
    seg.prev_fwd = seg.fwd;
    seg.prev_stop = seg.stop;
    seg.has_prev = true;
  }
}

void System::clock_edge() {
  // Shells: consume delivered outputs, then fire if possible.
  for (auto& s : shells_) {
    for (auto& port : s.out) {
      for (std::size_t b = 0; b < port.branch.size(); ++b) {
        if (((port.pend >> b) & 1u) && !segs_[port.branch[b]].stop) {
          port.pend &= ~(1u << b);  // consumer took the datum this cycle
        }
      }
    }
    if (s.fire) {
      if (opts_.input_queue_depth == 0) {
        for (std::size_t i = 0; i < s.in_seg.size(); ++i) {
          s.in_scratch[i] = segs_[s.in_seg[i]].fwd.data;
        }
      } else {
        for (std::size_t i = 0; i < s.in_q.size(); ++i) {
          s.in_scratch[i] = s.in_q[i].front();
          s.in_q[i].erase(s.in_q[i].begin());
        }
      }
      s.pearl->step(s.in_scratch, s.out_scratch);
      for (std::size_t m = 0; m < s.out.size(); ++m) {
        LIPLIB_ENSURE(s.out[m].pend == 0,
                      "shell fired with undelivered output pending");
        s.out[m].load(Token::of(s.out_scratch[m]));
      }
      ++s.fires;
      s.activity = ShellActivity::kFired;
    } else {
      bool missing_input = false;
      if (opts_.input_queue_depth == 0) {
        for (SegId in : s.in_seg) {
          if (!segs_[in].fwd.valid) missing_input = true;
        }
      } else {
        for (const auto& q : s.in_q) {
          if (q.empty()) missing_input = true;
        }
      }
      s.activity = missing_input ? ShellActivity::kWaitingInput
                                 : ShellActivity::kStoppedOutput;
    }
    // Buffered shells: absorb arriving valid tokens their stop admitted.
    if (opts_.input_queue_depth > 0) {
      for (std::size_t i = 0; i < s.in_seg.size(); ++i) {
        const Seg& seg = segs_[s.in_seg[i]];
        if (seg.fwd.valid && !seg.stop) {
          LIPLIB_ENSURE(s.in_q[i].size() < opts_.input_queue_depth,
                        "shell input queue overflow");
          s.in_q[i].push_back(seg.fwd.data);
        }
      }
    }
  }

  // Relay stations.
  for (auto& st : stations_) {
    const Token in = segs_[st.in_seg].fwd;
    const bool front_valid = st.occ > 0 && st.slot[0].valid;
    const bool s_eff = strict() ? segs_[st.out_seg].stop
                                : (segs_[st.out_seg].stop && front_valid);
    const bool consumed = st.occ > 0 && !s_eff;
    if (st.kind == graph::RsKind::kFull) {
      const bool accept = !st.stop_reg && (strict() || in.valid);
      if (consumed) {
        st.slot[0] = st.slot[1];
        --st.occ;
      }
      if (accept) {
        LIPLIB_ENSURE(st.occ < 2, "full relay station overflow");
        st.slot[st.occ] = in;
        ++st.occ;
      }
      st.stop_reg = (st.occ == 2);
    } else {
      const bool stop_up = st.occ > 0 && s_eff;  // what settle asserted
      const bool accept = !stop_up && (strict() || in.valid);
      if (consumed) st.occ = 0;
      if (accept) {
        LIPLIB_ENSURE(st.occ == 0, "half relay station overflow");
        st.slot[0] = in;
        st.occ = 1;
      }
    }
  }

  // Sources: free delivered branches, then offer the next datum.
  for (auto& s : sources_) {
    for (std::size_t b = 0; b < s.port.branch.size(); ++b) {
      if (((s.port.pend >> b) & 1u) && !segs_[s.port.branch[b]].stop) {
        s.port.pend &= ~(1u << b);
      }
    }
    if (!s.port.busy() && s.behavior.ready(cycle_ + 1)) {
      s.port.load(Token::of(s.behavior.value(s.emitted)));
      ++s.emitted;
    }
  }

  // Sinks.
  for (auto& s : sinks_) {
    const Token f = segs_[s.in_seg].fwd;
    if (trace_sinks_) s.cycle_trace.push_back(f);
    if (f.valid && !s.stop_now) {
      s.stream.push_back(f);
      ++s.count;
    }
  }

  ++cycle_;
}

void System::saturate_stations(std::uint64_t datum) {
  finalize();
  for (auto& st : stations_) {
    if (st.occ == 0) st.occ = 1;
    st.slot[0] = Token::of(datum);
  }
}

System::~System() = default;

void System::attach_vcd(std::ostream& os) {
  LIPLIB_EXPECT(cycle_ == 0, "attach_vcd after stepping");
  LIPLIB_EXPECT(vcd_ == nullptr, "attach_vcd called twice");
  vcd_ = std::make_unique<detail::VcdTap>(os);
  for (graph::ChannelId c = 0; c < topo_.channels().size(); ++c) {
    const auto& ch = topo_.channel(c);
    const std::string base = topo_.node(ch.from.node).name + "_to_" +
                             topo_.node(ch.to.node).name;
    for (std::size_t h = 0; h < channel_segs_[c].size(); ++h) {
      const std::string hop = base + "_h" + std::to_string(h);
      vcd_->valid_id.push_back(vcd_->writer.add_signal(hop + "_valid", 1));
      vcd_->data_id.push_back(vcd_->writer.add_signal(hop + "_data", 32));
      vcd_->stop_id.push_back(vcd_->writer.add_signal(hop + "_stop", 1));
    }
  }
  vcd_->writer.begin_dump();
}

void System::attach_probe(probe::Probe& probe) {
  LIPLIB_EXPECT(cycle_ == 0, "attach_probe after stepping");
  LIPLIB_EXPECT(probe_ == nullptr, "attach_probe called twice");
  LIPLIB_EXPECT(!probe.bound(), "probe is already bound to a simulator");
  LIPLIB_EXPECT(opts_.input_queue_depth == 0,
                "probe requires the paper's simplified shell "
                "(input_queue_depth == 0)");

  probe.bind(topo_, strict());
  probe_ = &probe;
}

void System::observe_probe() {
  std::uint8_t* valid = probe_->valid_scratch();
  std::uint8_t* stop = probe_->stop_scratch();
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    valid[i] = segs_[i].fwd.valid ? 1 : 0;
    stop[i] = segs_[i].stop ? 1 : 0;
  }
  probe::Activity* act = probe_->activity_scratch();
  for (std::size_t k = 0; k < shells_.size(); ++k) {
    const ShellState& s = shells_[k];
    if (s.fire) {
      act[k] = probe::Activity::kFired;
    } else {
      bool missing = false;
      for (SegId in : s.in_seg) {
        if (!segs_[in].fwd.valid) {
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

void System::collect_stats_and_vcd() {
  if (record_stats_) {
    for (auto& seg : segs_) {
      auto& st = seg.stats;
      ++st.cycles;
      if (seg.fwd.valid) {
        ++st.valid_cycles;
      } else {
        ++st.void_cycles;
      }
      if (seg.stop) {
        ++st.stop_cycles;
        if (seg.fwd.valid) {
          ++st.stop_on_valid;
        } else {
          ++st.stop_on_void;
        }
      }
    }
  }
  if (vcd_) {
    vcd_->writer.set_time(cycle_);
    // Signal ids were pushed channel by channel in segment order, which
    // is exactly the order channel_segs_ enumerates the segments.
    std::size_t k = 0;
    for (const auto& segs_of_channel : channel_segs_) {
      for (SegId id : segs_of_channel) {
        const Seg& seg = segs_[id];
        vcd_->writer.change(vcd_->valid_id[k], seg.fwd.valid ? 1 : 0);
        vcd_->writer.change(vcd_->data_id[k], seg.fwd.data);
        vcd_->writer.change(vcd_->stop_id[k], seg.stop ? 1 : 0);
        ++k;
      }
    }
  }
}

std::vector<SegmentStats> System::segment_stats(graph::ChannelId c) const {
  LIPLIB_EXPECT(c < channel_segs_.size(), "channel id out of range");
  std::vector<SegmentStats> out;
  for (SegId id : channel_segs_[c]) out.push_back(segs_[id].stats);
  return out;
}

void System::step() {
  finalize();
  present_forward();
  settle_stops();
  if (opts_.hold_monitor) check_hold_invariant();
  if (record_stats_ || vcd_) collect_stats_and_vcd();
  if (probe_) observe_probe();
  clock_edge();
}

std::vector<SegmentView> System::channel_view(graph::ChannelId c) const {
  LIPLIB_EXPECT(c < channel_segs_.size(), "channel id out of range");
  std::vector<SegmentView> out;
  for (SegId id : channel_segs_[c]) {
    out.push_back({segs_[id].fwd, segs_[id].stop});
  }
  return out;
}

std::vector<std::vector<Token>> System::station_contents(
    graph::ChannelId c) const {
  LIPLIB_EXPECT(c < channel_stations_.size(), "channel id out of range");
  std::vector<std::vector<Token>> out;
  for (std::size_t idx : channel_stations_[c]) {
    const Station& st = stations_[idx];
    std::vector<Token> slots;
    for (unsigned i = 0; i < st.occ; ++i) slots.push_back(st.slot[i]);
    out.push_back(std::move(slots));
  }
  return out;
}

const System::ShellState& System::shell_of(graph::NodeId id) const {
  LIPLIB_EXPECT(id < node_index_.size() &&
                    topo_.node(id).kind == graph::NodeKind::kProcess,
                "node is not a process");
  return shells_[node_index_[id]];
}

const System::SinkState& System::sink_of(graph::NodeId id) const {
  LIPLIB_EXPECT(id < node_index_.size() &&
                    topo_.node(id).kind == graph::NodeKind::kSink,
                "node is not a sink");
  return sinks_[node_index_[id]];
}

const std::vector<Token>& System::sink_stream(graph::NodeId sink) const {
  return sink_of(sink).stream;
}

const std::vector<Token>& System::sink_cycle_trace(graph::NodeId sink) const {
  return sink_of(sink).cycle_trace;
}

std::uint64_t System::sink_count(graph::NodeId sink) const {
  return sink_of(sink).count;
}

std::uint64_t System::shell_fire_count(graph::NodeId shell) const {
  return shell_of(shell).fires;
}

ShellActivity System::shell_activity(graph::NodeId shell) const {
  return shell_of(shell).activity;
}

std::string System::protocol_state() const {
  std::string s;
  s.reserve(shells_.size() * 4 + sources_.size() * 4 + stations_.size() * 3);
  // Pend masks keep all 32 bits: a port or source fans out to up to 32
  // branches.
  auto put_mask = [&s](std::uint32_t mask) {
    for (unsigned shift = 0; shift < 32; shift += 8) {
      s.push_back(static_cast<char>((mask >> shift) & 0xff));
    }
  };
  for (const auto& sh : shells_) {
    for (const auto& port : sh.out) put_mask(port.pend);
    for (const auto& q : sh.in_q) {
      s.push_back(static_cast<char>(q.size() & 0xff));
    }
  }
  for (const auto& src : sources_) put_mask(src.port.pend);
  for (const auto& st : stations_) {
    s.push_back(static_cast<char>(st.occ));
    char flags = 0;
    if (st.occ > 0 && st.slot[0].valid) flags |= 1;
    if (st.occ > 1 && st.slot[1].valid) flags |= 2;
    if (st.stop_reg) flags |= 4;
    s.push_back(flags);
  }
  return s;
}

std::uint64_t System::environment_period() const {
  std::uint64_t l = 1;
  for (const auto& s : sources_) l = lcm_period(l, s.behavior.period);
  for (const auto& s : sinks_) l = lcm_period(l, s.behavior.period);
  return l;
}

std::uint64_t System::total_fires() const {
  std::uint64_t n = 0;
  for (const auto& s : shells_) n += s.fires;
  return n;
}

std::uint64_t System::total_consumed() const {
  std::uint64_t n = 0;
  for (const auto& s : sinks_) n += s.count;
  return n;
}

}  // namespace liplib::lip
