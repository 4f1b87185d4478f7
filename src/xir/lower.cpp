// Lowering graph::Topology into the flattened xir IR, plus the settle
// schedule (Kahn order over the stop-dependency graph), the plane-key
// layout and the probe wiring replay shared by both engines.

#include <queue>

#include "liplib/probe/probe.hpp"
#include "liplib/support/check.hpp"
#include "liplib/xir/xir.hpp"

namespace liplib::xir {

namespace {
constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
constexpr std::uint32_t kNoUnit = static_cast<std::uint32_t>(-1);
}  // namespace

KeyLayout::KeyLayout(const Program& p)
    : n_pend(p.shell_br_seg.size()),
      n_src(p.src_br_seg.size()),
      n_st(p.num_stations()),
      num_planes(n_pend + n_src + 5 * n_st),
      num_words((num_planes + 63) / 64) {}

SettleSchedule build_settle_schedule(
    const Program& p, const std::vector<std::uint8_t>& station_dynamic) {
  LIPLIB_EXPECT(station_dynamic.size() == p.num_stations(),
                "dynamic-station flags do not match the program");
  const std::size_t n_st = p.num_stations();
  const std::size_t n_units = n_st + p.num_shells();

  // Who writes each segment's stop during the dynamic part of a settle?
  // Dynamic (kHalf in some lane) stations write their upstream segment;
  // shells write every one of their input segments.  Everything else
  // (sink patterns, full-station stop_reg) is written once, before the
  // dynamic part, and is a constant for the schedule.
  std::vector<std::uint32_t> seg_writer(p.num_segments, kNoUnit);
  for (std::size_t s = 0; s < n_st; ++s) {
    if (station_dynamic[s]) {
      seg_writer[p.st_in[s]] = static_cast<std::uint32_t>(s);
    }
  }
  for (std::size_t k = 0; k < p.num_shells(); ++k) {
    const auto unit = static_cast<std::uint32_t>(n_st + k);
    for (std::uint32_t i = p.shell_in_begin[k]; i < p.shell_in_begin[k + 1];
         ++i) {
      seg_writer[p.shell_in_seg[i]] = unit;
    }
  }

  // Dependency edges writer -> reader: a dynamic station reads the stop
  // of its downstream segment; a shell reads the stop of every out
  // branch.  (Valid bits are constants during a settle and contribute no
  // edges.)
  std::vector<std::vector<std::uint32_t>> out_edges(n_units);
  std::vector<std::uint32_t> indegree(n_units, 0);
  std::vector<std::uint8_t> is_dynamic(n_units, 1);
  auto add_edge = [&](std::size_t read_seg, std::uint32_t reader) {
    const std::uint32_t w = seg_writer[read_seg];
    if (w == kNoUnit) return;
    out_edges[w].push_back(reader);
    ++indegree[reader];
  };
  for (std::size_t s = 0; s < n_st; ++s) {
    if (!station_dynamic[s]) {
      is_dynamic[s] = 0;
      continue;
    }
    add_edge(p.st_out[s], static_cast<std::uint32_t>(s));
  }
  for (std::size_t k = 0; k < p.num_shells(); ++k) {
    const auto unit = static_cast<std::uint32_t>(n_st + k);
    for (std::uint32_t b = p.shell_br_begin[k]; b < p.shell_br_begin[k + 1];
         ++b) {
      add_edge(p.shell_br_seg[b], unit);
    }
  }

  // Kahn's algorithm.  Units it releases have all their stop inputs
  // final when visited in order, so one evaluation each computes their
  // fixpoint value; the remainder sits on (or behind) combinational stop
  // cycles and must iterate.  Both pieces are deterministic: the ready
  // queue is seeded and drained in unit-id order.
  SettleSchedule sched;
  std::queue<std::uint32_t> ready;
  for (std::uint32_t u = 0; u < n_units; ++u) {
    if (is_dynamic[u] && indegree[u] == 0) ready.push(u);
  }
  std::vector<std::uint8_t> placed(n_units, 0);
  while (!ready.empty()) {
    const std::uint32_t u = ready.front();
    ready.pop();
    sched.order.push_back(u);
    placed[u] = 1;
    for (std::uint32_t v : out_edges[u]) {
      if (--indegree[v] == 0) ready.push(v);
    }
  }
  for (std::uint32_t u = 0; u < n_units; ++u) {
    if (is_dynamic[u] && !placed[u]) sched.iterate.push_back(u);
  }
  return sched;
}

ProgramRef lower(const graph::Topology& topo, skeleton::SkeletonOptions opts) {
  const auto report = topo.validate(/*require_station_between_shells=*/true);
  LIPLIB_EXPECT(report.ok(),
                "topology has structural errors:\n" + report.to_string());

  auto prog = std::make_shared<Program>();
  Program& p = *prog;
  p.topo = topo;
  p.opts = opts;
  p.strict = opts.policy == lip::StopPolicy::kCarloniStrict;
  p.pessimistic = opts.resolution == lip::StopResolution::kPessimistic;

  p.node_index.assign(topo.nodes().size(), kNoIndex);
  for (graph::NodeId v = 0; v < topo.nodes().size(); ++v) {
    const auto& node = topo.node(v);
    switch (node.kind) {
      case graph::NodeKind::kProcess:
        p.node_index[v] = p.shell_node.size();
        p.shell_node.push_back(v);
        break;
      case graph::NodeKind::kSource:
        p.node_index[v] = p.src_node.size();
        p.src_node.push_back(v);
        break;
      case graph::NodeKind::kSink:
        p.node_index[v] = p.sink_node.size();
        p.sink_node.push_back(v);
        break;
    }
  }

  // Input-segment CSR, sized up front (slots are filled per channel).
  p.shell_in_begin.assign(p.num_shells() + 1, 0);
  for (std::size_t k = 0; k < p.num_shells(); ++k) {
    p.shell_in_begin[k + 1] =
        p.shell_in_begin[k] +
        static_cast<std::uint32_t>(topo.node(p.shell_node[k]).num_inputs);
  }
  p.shell_in_seg.assign(p.shell_in_begin.back(), 0);
  p.sink_seg.assign(p.num_sinks(), 0);

  // Branch lists accumulate per port while walking channels (channels
  // interleave ports), then flatten port-major — the exact order the
  // per-port push_back of lip::System produces.
  std::vector<std::vector<std::vector<std::uint32_t>>> shell_br(
      p.num_shells());
  for (std::size_t k = 0; k < p.num_shells(); ++k) {
    shell_br[k].resize(topo.node(p.shell_node[k]).num_outputs);
  }
  std::vector<std::vector<std::uint32_t>> src_br(p.num_sources());

  // Segments and stations, channel by channel — the same sequential
  // layout as lip::System's constructor, so segment and station ids
  // are interchangeable across engines and probe wiring.
  std::size_t next_seg = 0;
  for (graph::ChannelId c = 0; c < topo.channels().size(); ++c) {
    const auto& ch = topo.channel(c);
    const std::size_t first = next_seg;
    next_seg += ch.num_stations() + 1;
    const auto& from_node = topo.node(ch.from.node);
    if (from_node.kind == graph::NodeKind::kProcess) {
      auto& branches = shell_br[p.node_index[ch.from.node]][ch.from.port];
      LIPLIB_EXPECT(branches.size() < 32,
                    "more than 32 fanout branches on output port " +
                        std::to_string(ch.from.port) + " of '" +
                        from_node.name + "'");
      branches.push_back(static_cast<std::uint32_t>(first));
    } else {
      auto& branches = src_br[p.node_index[ch.from.node]];
      LIPLIB_EXPECT(branches.size() < 32,
                    "more than 32 fanout branches on source '" +
                        from_node.name + "'");
      branches.push_back(static_cast<std::uint32_t>(first));
    }
    for (std::size_t i = 0; i < ch.num_stations(); ++i) {
      p.st_in.push_back(static_cast<std::uint32_t>(first + i));
      p.st_out.push_back(static_cast<std::uint32_t>(first + i + 1));
      p.st_half.push_back(ch.stations[i] == graph::RsKind::kHalf ? 1 : 0);
    }
    const auto& to_node = topo.node(ch.to.node);
    const auto last = static_cast<std::uint32_t>(next_seg - 1);
    if (to_node.kind == graph::NodeKind::kProcess) {
      const std::size_t k = p.node_index[ch.to.node];
      p.shell_in_seg[p.shell_in_begin[k] + ch.to.port] = last;
    } else {
      p.sink_seg[p.node_index[ch.to.node]] = last;
      if (from_node.kind == graph::NodeKind::kSource) {
        p.src_fed_sinks.push_back(
            static_cast<std::uint32_t>(p.node_index[ch.to.node]));
      }
    }
  }
  p.num_segments = next_seg;

  // Flatten the branch lists into CSR form.
  p.shell_br_begin.assign(1, 0);
  p.shell_port_begin.assign(1, 0);
  p.port_br_begin.assign(1, 0);
  for (std::size_t k = 0; k < p.num_shells(); ++k) {
    for (const auto& port : shell_br[k]) {
      p.shell_br_seg.insert(p.shell_br_seg.end(), port.begin(), port.end());
      p.port_br_begin.push_back(
          static_cast<std::uint32_t>(p.shell_br_seg.size()));
    }
    p.shell_br_begin.push_back(
        static_cast<std::uint32_t>(p.shell_br_seg.size()));
    p.shell_port_begin.push_back(
        static_cast<std::uint32_t>(p.port_br_begin.size() - 1));
  }
  p.src_br_begin.assign(1, 0);
  for (std::size_t s = 0; s < p.num_sources(); ++s) {
    p.src_br_seg.insert(p.src_br_seg.end(), src_br[s].begin(),
                        src_br[s].end());
    p.src_br_begin.push_back(static_cast<std::uint32_t>(p.src_br_seg.size()));
  }

  p.schedule = build_settle_schedule(p, p.st_half);
  return prog;
}

void build_probe_wiring(const Program& p, probe::Wiring* out) {
  const graph::Topology& topo = p.topo;
  probe::Wiring& w = *out;
  w = probe::Wiring{};
  w.strict = p.strict;
  w.segments.resize(p.num_segments);
  w.stations.resize(p.num_stations());
  std::size_t seg = 0;
  std::size_t station = 0;
  for (graph::ChannelId c = 0; c < topo.channels().size(); ++c) {
    const auto& ch = topo.channel(c);
    const std::size_t n_st = ch.num_stations();
    for (std::size_t h = 0; h <= n_st; ++h) {
      probe::Wiring::Segment& s = w.segments[seg + h];
      s.channel = c;
      s.hop = h;
      if (h == 0) {
        const auto& from = topo.node(ch.from.node);
        s.producer.kind = from.kind == graph::NodeKind::kProcess
                              ? probe::UnitKind::kShell
                              : probe::UnitKind::kSource;
        s.producer.index = p.node_index[ch.from.node];
      } else {
        s.producer.kind = probe::UnitKind::kStation;
        s.producer.index = station + h - 1;
      }
      if (h < n_st) {
        s.consumer.kind = probe::UnitKind::kStation;
        s.consumer.index = station + h;
      } else {
        const auto& to = topo.node(ch.to.node);
        s.consumer.kind = to.kind == graph::NodeKind::kProcess
                              ? probe::UnitKind::kShell
                              : probe::UnitKind::kSink;
        s.consumer.index = p.node_index[ch.to.node];
      }
    }
    for (std::size_t k = 0; k < n_st; ++k) {
      probe::Wiring::Station& st = w.stations[station + k];
      st.channel = c;
      st.index = k;
      st.full = p.st_half[station + k] == 0;
      st.in_seg = p.st_in[station + k];
      st.out_seg = p.st_out[station + k];
    }
    seg += n_st + 1;
    station += n_st;
  }
  for (std::size_t k = 0; k < p.num_shells(); ++k) {
    probe::Wiring::Shell sh;
    sh.node = p.shell_node[k];
    for (std::uint32_t i = p.shell_in_begin[k]; i < p.shell_in_begin[k + 1];
         ++i) {
      sh.in_segs.push_back(p.shell_in_seg[i]);
    }
    for (std::uint32_t b = p.shell_br_begin[k]; b < p.shell_br_begin[k + 1];
         ++b) {
      sh.out_segs.push_back(p.shell_br_seg[b]);
    }
    w.shells.push_back(std::move(sh));
  }
  for (graph::NodeId v = 0; v < topo.nodes().size(); ++v) {
    if (topo.node(v).kind == graph::NodeKind::kSource) {
      w.sources.push_back({v});
    } else if (topo.node(v).kind == graph::NodeKind::kSink) {
      w.sinks.push_back({v});
    }
  }
}

}  // namespace liplib::xir
