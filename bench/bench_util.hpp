// Shared helpers for the benchmark/reproduction harnesses.

#pragma once

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "liplib/graph/generators.hpp"
#include "liplib/lip/design.hpp"
#include "liplib/pearls/design_io.hpp"
#include "liplib/pearls/pearls.hpp"
#include "liplib/support/json.hpp"

namespace liplib::benchutil {

/// Default pearl for a node arity: the netlist default, what an
/// unannotated process gets (pearls::pearl_from_spec with no spec).
inline std::unique_ptr<lip::Pearl> default_pearl(std::size_t num_in,
                                                 std::size_t num_out) {
  return pearls::pearl_from_spec("", num_in, num_out);
}

/// Repetitions behind each side of a gated speedup.
constexpr int kGateReps = 5;

/// The fastest of `reps` timed calls of each of `runs`, in seconds.  The
/// runs take turns, one call each per round, so a burst of load on a
/// shared host lands on every side of a ratio alike instead of on all
/// the repetitions of one side; both sides of a gated speedup are timed
/// this way.
inline std::vector<double> best_seconds(
    int reps, const std::vector<std::function<void()>>& runs) {
  std::vector<double> best(runs.size(),
                           std::numeric_limits<double>::infinity());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      runs[i]();
      best[i] = std::min(best[i], std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() - t0)
                                      .count());
    }
  }
  return best;
}

inline lip::Design make_design(graph::Generated g) {
  lip::Design d(std::move(g.topo));
  for (graph::NodeId p : g.processes) {
    const auto& node = d.topology().node(p);
    d.set_pearl(p, default_pearl(node.num_inputs, node.num_outputs));
  }
  return d;
}

/// Section header in the harness output.
inline void heading(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

/// Writes a machine-readable benchmark result file `BENCH_<name>.json`
/// in the current directory: a schema tag, the bench name, and an array
/// of measurement records (each an object built by the caller).  This is
/// the repo's perf-trajectory format: byte-stable field order via
/// support/json.hpp, one file per bench binary.
///
/// `metadata`, when non-null, lands verbatim as a top-level "metadata"
/// object — benches that compare evaluators record the engine modes
/// there (e.g. {"engines": [...]}) so perf trajectories distinguish
/// which engine produced which record.
inline void write_bench_json(const std::string& name, Json records,
                             Json metadata = Json()) {
  const std::string path = "BENCH_" + name + ".json";
  Json doc = Json::object()
                 .set("schema", "liplib.bench/1")
                 .set("bench", name)
                 .set("records", std::move(records));
  if (!metadata.is_null()) doc.set("metadata", std::move(metadata));
  std::ofstream os(path);
  os << doc.dump(2) << "\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace liplib::benchutil
