// video_pipeline — a block-based media pipeline as a latency-insensitive
// design: the full workflow on a realistic SoC dataflow.
//
//   camera ─▶ split ─▶ transform ─▶ quantize ─▶ rle ─┐
//                 │                                   ├─▶ blend ─▶ display
//                 └────────(short preview route)──────┘
//
// The two routes to the blender have very different physical lengths, so
// wire planning inserts different relay-station counts; the run shows
// (1) the throughput penalty predicted by the paper's (m−i)/m formula,
// (2) recovery via path equalization, (3) exact agreement between the
// latency-insensitive execution and the ideal zero-latency system on the
// actual coded stream, and (4) per-channel utilization statistics.
//
//   $ ./video_pipeline

#include <iostream>

#include "liplib/graph/analysis.hpp"
#include "liplib/graph/wire_plan.hpp"
#include "liplib/lip/design.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/pearls/pearls.hpp"
#include "liplib/pearls/video.hpp"
#include "liplib/support/table.hpp"

using namespace liplib;

namespace {

struct Pipeline {
  graph::Topology topo;
  graph::NodeId camera, split, transform, quant, rle, blend, display;
  std::vector<double> wires;
};

Pipeline build() {
  Pipeline p;
  p.camera = p.topo.add_source("camera");
  p.split = p.topo.add_process("split", 1, 2);
  p.transform = p.topo.add_process("transform", 1, 1);
  p.quant = p.topo.add_process("quant", 1, 1);
  p.rle = p.topo.add_process("rle", 1, 1);
  p.blend = p.topo.add_process("blend", 2, 1);
  p.display = p.topo.add_sink("display");
  p.wires.resize(7);
  p.wires[p.topo.connect({p.camera, 0}, {p.split, 0})] = 0.8;
  p.wires[p.topo.connect({p.split, 0}, {p.transform, 0})] = 1.3;
  p.wires[p.topo.connect({p.transform, 0}, {p.quant, 0})] = 2.4;
  p.wires[p.topo.connect({p.quant, 0}, {p.rle, 0})] = 1.7;
  p.wires[p.topo.connect({p.rle, 0}, {p.blend, 0})] = 3.2;
  p.wires[p.topo.connect({p.split, 1}, {p.blend, 1})] = 1.2;
  p.wires[p.topo.connect({p.blend, 0}, {p.display, 0})] = 0.6;
  return p;
}

lip::Design bind(const Pipeline& p) {
  lip::Design d(p.topo);
  d.set_pearl(p.split, pearls::make_fork2());
  d.set_pearl(p.transform, pearls::make_block_transform8());
  d.set_pearl(p.quant, pearls::make_quantizer(4));
  d.set_pearl(p.rle, pearls::make_rle_marker());
  d.set_pearl(p.blend, pearls::make_blender(192));
  // A synthetic frame: a slow ramp with texture, so the quantizer
  // produces zero runs for the RLE stage.  The camera is always ready,
  // so its period is 1 (a hand-built behaviour is aperiodic unless it
  // says so, and an aperiodic environment has no exact steady state).
  d.set_source(p.camera, {[](std::uint64_t k) {
                            return (k / 7) % 32 + ((k % 5 == 0) ? 9u : 0u);
                          },
                          [](std::uint64_t) { return true; }, 1});
  return d;
}

}  // namespace

int main() {
  std::cout << "Block-based video pipeline as a latency-insensitive design\n\n";

  // --- wire planning without equalization: the raw penalty ------------
  Pipeline raw = build();
  graph::WirePlanOptions no_eq;
  no_eq.equalize = false;
  const auto plan = graph::plan_wire_pipelining(raw.topo, raw.wires, no_eq);
  std::cout << "wire planning inserted " << plan.stations_inserted
            << " relay stations (" << plan.full_count << " full, "
            << plan.half_count << " half; " << plan.registers()
            << " registers)\n";
  const auto pred = graph::predict_throughput(raw.topo);
  std::cout << "paper formula predicts T = " << pred.system().str() << "\n";

  auto d = bind(raw);
  auto sys = d.instantiate();
  const auto ss = lip::measure_steady_state(*sys);
  std::cout << "measured             T = " << ss.system_throughput().str()
            << " (transient " << ss.transient << ", period " << ss.period
            << ")\n";
  const auto equiv = lip::check_latency_equivalence(d, {}, 600);
  std::cout << "coded stream matches the zero-latency system: "
            << (equiv.ok ? "yes" : "NO") << " (" << equiv.tokens_checked
            << " tokens)\n\n";

  // --- with equalization ----------------------------------------------
  Pipeline eq = build();
  const auto plan_eq = graph::plan_wire_pipelining(eq.topo, eq.wires, {});
  auto d_eq = bind(eq);
  auto sys_eq = d_eq.instantiate();
  const auto ss_eq = lip::measure_steady_state(*sys_eq);
  std::cout << "with " << plan_eq.spare_inserted
            << " spare stations (path equalization): T = "
            << ss_eq.system_throughput().str() << "\n\n";

  // --- utilization under a throttled display ---------------------------
  Pipeline throttled = build();
  graph::plan_wire_pipelining(throttled.topo, throttled.wires, {});
  auto d_thr = bind(throttled);
  d_thr.set_sink(throttled.display, lip::SinkBehavior::periodic(2));
  auto sys_thr = d_thr.instantiate();
  sys_thr->record_segment_stats(true);
  sys_thr->run(2000);
  Table t({"channel", "hop", "utilization", "stops/cycle"});
  for (graph::ChannelId c = 0; c < d_thr.topology().channels().size(); ++c) {
    const auto& ch = d_thr.topology().channel(c);
    const auto stats = sys_thr->segment_stats(c);
    for (std::size_t h = 0; h < stats.size(); ++h) {
      char util[16], stop[16];
      std::snprintf(util, sizeof util, "%.2f", stats[h].utilization());
      std::snprintf(stop, sizeof stop, "%.2f",
                    static_cast<double>(stats[h].stop_cycles) /
                        static_cast<double>(stats[h].cycles));
      t.add_row({d_thr.topology().node(ch.from.node).name + "->" +
                     d_thr.topology().node(ch.to.node).name,
                 std::to_string(h), util, stop});
    }
  }
  std::cout << "utilization with the display consuming every 2nd cycle:\n";
  t.print(std::cout);

  // A glimpse of the coded output itself.
  std::cout << "\nfirst coded words at the display: ";
  const auto& stream = sys_thr->sink_stream(throttled.display);
  for (std::size_t i = 0; i < 6 && i < stream.size(); ++i) {
    std::cout << "0x" << std::hex << stream[i].data << std::dec << ' ';
  }
  std::cout << "\n";
  return 0;
}
