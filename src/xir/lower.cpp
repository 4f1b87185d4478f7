// Lowering graph::Topology into the flattened xir IR, plus the settle
// plan (writers-first unit order and stop readers), the plane-key layout
// and the repeat index shared by both engines.

#include <algorithm>
#include <functional>

#include "liplib/support/check.hpp"
#include "liplib/xir/xir.hpp"

namespace liplib::xir {

namespace {
constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
}  // namespace

KeyLayout::KeyLayout(const Program& p)
    : n_pend(p.shell_br_seg.size()),
      n_src(p.src_br_seg.size()),
      n_st(p.num_stations()),
      num_planes(n_pend + n_src + 5 * n_st),
      num_words((num_planes + 63) / 64) {}

std::uint64_t RepeatIndex::hash(std::string_view key, std::uint64_t phase) {
  return std::hash<std::string_view>{}(key) ^ (phase * 0x9e3779b97f4a7c15ull);
}

void RepeatIndex::grow() {
  std::vector<Slot> old(2 * slots_.size());
  old.swap(slots_);
  size_ = 0;
  // From a free slot, each probe run is walked from its start in order.
  std::size_t i = 0;
  while (old[i].cycle != kFree) ++i;
  for (std::size_t n = 0; n < old.size(); ++n, i = (i + 1) % old.size()) {
    if (old[i].cycle != kFree) {
      find_or_insert(old[i].hash, old[i].cycle, [](auto) { return false; });
    }
  }
}

std::size_t repeat_stride(const Program& p) {
  return std::max<std::size_t>(
      1, (KeyLayout(p).key_bytes() + 8 * p.num_shells()) / 32);
}

SettlePlan settle_plan(const Program& p,
                       const std::vector<std::uint8_t>& station_unit) {
  LIPLIB_EXPECT(station_unit.size() == p.num_stations(),
                "station-unit flags do not match the program");
  constexpr std::uint32_t kNone = SettlePlan::kNoReader;
  const std::size_t n_st = p.num_stations();
  // The units in id order, and the one reading each segment's stop.
  std::vector<std::uint32_t> ids;
  std::vector<std::uint32_t> reader(p.num_segments, kNone);
  for (std::uint32_t s = 0; s < n_st; ++s) {
    if (!station_unit[s]) continue;
    reader[p.st_out[s]] = static_cast<std::uint32_t>(ids.size());
    ids.push_back(s);
  }
  for (std::size_t k = 0; k < p.num_shells(); ++k) {
    for (std::uint32_t b = p.shell_br_begin[k]; b < p.shell_br_begin[k + 1];
         ++b) {
      reader[p.shell_br_seg[b]] = static_cast<std::uint32_t>(ids.size());
    }
    ids.push_back(static_cast<std::uint32_t>(n_st + k));
  }
  std::vector<std::pair<std::size_t, std::size_t>> edges;  // writer -> reader
  auto wire = [&](std::size_t writer, std::uint32_t seg) {
    if (reader[seg] != kNone) edges.emplace_back(writer, reader[seg]);
  };
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < n_st) {
      wire(i, p.st_in[ids[i]]);
      continue;
    }
    const std::size_t k = ids[i] - n_st;
    for (std::uint32_t j = p.shell_in_begin[k]; j < p.shell_in_begin[k + 1];
         ++j) {
      wire(i, p.shell_in_seg[j]);
    }
  }
  const auto order = graph::writers_first(graph::EdgeIndex(
      ids.size(), edges.size(), [&](std::size_t e) { return edges[e]; },
      [](std::size_t) { return true; }));
  // Readers are renumbered by their place in that order.
  SettlePlan plan;
  std::vector<std::uint32_t> place(order.size());
  for (std::uint32_t k = 0; k < order.size(); ++k) {
    plan.units.push_back(ids[order[k]]);
    place[order[k]] = k;
  }
  for (auto& r : reader) {
    if (r != kNone) r = place[r];
  }
  plan.reader = std::move(reader);
  return plan;
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
  for (std::size_t k = 0; k < p.num_shells(); ++k) {
    for (const auto& port : shell_br[k]) {
      p.shell_br_seg.insert(p.shell_br_seg.end(), port.begin(), port.end());
    }
    p.shell_br_begin.push_back(
        static_cast<std::uint32_t>(p.shell_br_seg.size()));
  }
  p.src_br_begin.assign(1, 0);
  for (std::size_t s = 0; s < p.num_sources(); ++s) {
    p.src_br_seg.insert(p.src_br_seg.end(), src_br[s].begin(),
                        src_br[s].end());
    p.src_br_begin.push_back(static_cast<std::uint32_t>(p.src_br_seg.size()));
  }

  p.settle = settle_plan(p, p.st_half);
  return prog;
}

}  // namespace liplib::xir
