// liplib/telemetry/bench_diff.hpp
//
// The perf-trajectory regression gate: compares two BENCH_*.json
// artifacts (bench/bench_util.hpp, schema "liplib.bench/1") field by
// field with a noise-aware percentage threshold.
//
// Records are matched by their string-valued fields (e.g. config names),
// numeric fields are classified by name into higher-is-better
// (throughput-like: *per_s*, *speedup*, *throughput*, *rate*),
// lower-is-better (cost-like: *seconds*, *overhead*) or informational
// (sizes, counts — never gated), and a delta beyond the threshold in the
// bad direction is a regression.  A ratio against a reference run
// (a field named *_vs_*, e.g. "speedup_vs_system") is gated only when
// both documents name the same reference in "metadata.reference": a
// bench whose reference changes on purpose names the new one, and its
// first comparison against the old baseline reports those ratios as
// informational (with a note) while every other field stays gated.
// `lidtool bench diff` exposes this with exit codes 0 (clean) /
// 1 (regression) / 2 (bad input), which is what the CI bench-smoke job
// runs against the previous run's artifacts.
//
// See docs/telemetry.md for the threshold model.

#pragma once

#include <string>
#include <vector>

#include "liplib/support/json.hpp"

namespace liplib::telemetry {

/// Gate direction of one numeric field.
enum class DeltaClass : std::uint8_t {
  kHigherBetter = 0,
  kLowerBetter = 1,
  kInfo = 2,  ///< reported, never gated
};

const char* delta_class_str(DeltaClass c);

/// Classifies a record field by name (see header comment).
DeltaClass classify_bench_field(std::string_view field);

/// One compared numeric field of one matched record.
struct BenchDelta {
  std::string record;  ///< record key ("config=counters", ...)
  std::string field;
  double old_value = 0;
  double new_value = 0;
  /// Signed percent change of new vs old ((new-old)/old * 100).
  double change_pct = 0;
  DeltaClass cls = DeltaClass::kInfo;
  bool regression = false;   ///< beyond threshold in the bad direction
  bool improvement = false;  ///< beyond threshold in the good direction
};

struct BenchDiffOptions {
  /// Percent change beyond which a gated field counts as a regression
  /// (or improvement).  Deltas inside the band are noise.
  double threshold_pct = 10.0;
};

/// The comparison result.
struct BenchDiff {
  std::string bench;
  double threshold_pct = 10.0;
  std::vector<BenchDelta> deltas;  ///< matched-record order, field order
  /// Structural asymmetries: records present on only one side,
  /// fields that changed type, zero baselines, a changed reference.
  /// Never gate.
  std::vector<std::string> notes;

  bool has_regression() const;
  std::size_t regressions() const;
  std::size_t improvements() const;
  /// 0 = clean, 1 = regression (bad input throws before a BenchDiff
  /// exists and maps to exit 2 in lidtool).
  int exit_code() const { return has_regression() ? 1 : 0; }

  /// Human-readable report, one line per gated or noteworthy delta.
  std::string to_text() const;
  /// Schema "liplib.benchdiff/1" (byte-stable).
  Json to_json() const;
};

/// Compares two parsed "liplib.bench/1" documents.  Throws ApiError on
/// schema or bench-name mismatch.
BenchDiff bench_diff(const Json& old_doc, const Json& new_doc,
                     BenchDiffOptions opts = {});

/// Reads, parses and compares two BENCH_*.json files.  Throws ApiError
/// on unreadable files or malformed JSON.
BenchDiff bench_diff_files(const std::string& old_path,
                           const std::string& new_path,
                           BenchDiffOptions opts = {});

}  // namespace liplib::telemetry
