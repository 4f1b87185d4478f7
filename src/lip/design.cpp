#include "liplib/lip/design.hpp"

#include <algorithm>
#include <sstream>

namespace liplib::lip {

EquivalenceReport check_latency_equivalence(const Design& design,
                                            System::Options opts,
                                            std::uint64_t lid_cycles) {
  auto lid = design.instantiate(opts);
  lid->run(lid_cycles);

  // The reference produces one datum per sink per cycle, so it runs for as
  // many cycles as the longest LID sink stream has tokens.
  const auto& topo = design.topology();
  std::uint64_t longest = 0;
  for (graph::NodeId v = 0; v < topo.nodes().size(); ++v) {
    if (topo.node(v).kind != graph::NodeKind::kSink) continue;
    longest = std::max<std::uint64_t>(longest, lid->sink_stream(v).size());
  }
  auto ref = design.instantiate_reference();
  ref->run(longest);

  EquivalenceReport report;
  report.ok = true;
  for (graph::NodeId v = 0; v < topo.nodes().size(); ++v) {
    if (topo.node(v).kind != graph::NodeKind::kSink) continue;
    const auto& lid_stream = lid->sink_stream(v);
    const auto& ref_stream = ref->sink_stream(v);
    LIPLIB_ENSURE(lid_stream.size() <= ref_stream.size(),
                  "LID produced more tokens than the reference");
    for (std::size_t i = 0; i < lid_stream.size(); ++i) {
      ++report.tokens_checked;
      if (lid_stream[i].data != ref_stream[i]) {
        std::ostringstream os;
        os << "sink " << topo.node(v).name << " token " << i << ": LID="
           << lid_stream[i].data << " reference=" << ref_stream[i];
        report.ok = false;
        report.detail = os.str();
        return report;
      }
    }
  }
  return report;
}

}  // namespace liplib::lip
