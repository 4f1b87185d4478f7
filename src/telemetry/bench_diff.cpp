#include "liplib/telemetry/bench_diff.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "liplib/support/check.hpp"

namespace liplib::telemetry {

namespace {

constexpr std::string_view kBenchSchema = "liplib.bench/1";

bool contains(std::string_view hay, std::string_view needle) {
  return hay.find(needle) != std::string_view::npos;
}

/// Key of a record: its string-valued fields in field order
/// ("config=counters"), or "record[i]" when it has none.
std::string record_key(const Json& rec, std::size_t index) {
  std::string key;
  for (const auto& [name, value] : rec.members()) {
    if (!value.is_string()) continue;
    if (!key.empty()) key += ",";
    key += name + "=" + value.as_string();
  }
  if (key.empty()) key = "record[" + std::to_string(index) + "]";
  return key;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string fmt_pct(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%+.1f%%", v);
  return buf;
}

struct BenchDoc {
  std::string bench;
  const Json* records;
  std::string reference;  ///< metadata.reference, "" when absent
};

BenchDoc open_bench(const Json& doc, const char* which) {
  LIPLIB_EXPECT(doc.is_object(),
                std::string("bench ") + which + " file is not a JSON object");
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kBenchSchema) {
    throw ApiError(std::string("bench ") + which +
                   " file is not a liplib.bench/1 document");
  }
  const Json* bench = doc.find("bench");
  const Json* records = doc.find("records");
  if (bench == nullptr || !bench->is_string() || records == nullptr ||
      !records->is_array()) {
    throw ApiError(std::string("bench ") + which +
                   " file is missing \"bench\" or \"records\"");
  }
  std::string reference;
  if (const Json* meta = doc.find("metadata"); meta && meta->is_object()) {
    if (const Json* ref = meta->find("reference"); ref && ref->is_string()) {
      reference = ref->as_string();
    }
  }
  return {bench->as_string(), records, std::move(reference)};
}

std::string quoted_or_none(const std::string& s) {
  return s.empty() ? "none" : "\"" + s + "\"";
}

}  // namespace

const char* delta_class_str(DeltaClass c) {
  switch (c) {
    case DeltaClass::kHigherBetter: return "higher_better";
    case DeltaClass::kLowerBetter: return "lower_better";
    case DeltaClass::kInfo: return "info";
  }
  return "?";
}

DeltaClass classify_bench_field(std::string_view field) {
  // Rate-like names win over cost-like ones so "jobs_per_second" is not
  // misread via its "second" substring.
  if (contains(field, "per_s") || contains(field, "speedup") ||
      contains(field, "throughput") || contains(field, "rate")) {
    return DeltaClass::kHigherBetter;
  }
  if (contains(field, "seconds") || contains(field, "overhead")) {
    return DeltaClass::kLowerBetter;
  }
  return DeltaClass::kInfo;
}

bool BenchDiff::has_regression() const { return regressions() > 0; }

std::size_t BenchDiff::regressions() const {
  std::size_t n = 0;
  for (const auto& d : deltas) n += d.regression ? 1 : 0;
  return n;
}

std::size_t BenchDiff::improvements() const {
  std::size_t n = 0;
  for (const auto& d : deltas) n += d.improvement ? 1 : 0;
  return n;
}

std::string BenchDiff::to_text() const {
  std::ostringstream os;
  os << "bench diff: " << bench << " (threshold " << fmt(threshold_pct)
     << "%)\n";
  for (const auto& d : deltas) {
    if (d.cls == DeltaClass::kInfo) continue;
    os << "  [" << d.record << "] " << d.field << ": " << fmt(d.old_value)
       << " -> " << fmt(d.new_value) << " (" << fmt_pct(d.change_pct) << ")";
    if (d.regression) os << "  REGRESSION";
    if (d.improvement) os << "  improvement";
    os << "\n";
  }
  for (const auto& n : notes) os << "  note: " << n << "\n";
  os << "  " << regressions() << " regression(s), " << improvements()
     << " improvement(s), " << deltas.size() << " field(s) compared\n";
  return os.str();
}

Json BenchDiff::to_json() const {
  Json j = Json::object();
  j.set("schema", "liplib.benchdiff/1");
  j.set("bench", bench);
  j.set("threshold_pct", threshold_pct);
  Json ds = Json::array();
  for (const auto& d : deltas) {
    ds.push(Json::object()
                .set("record", d.record)
                .set("field", d.field)
                .set("old", d.old_value)
                .set("new", d.new_value)
                .set("change_pct", d.change_pct)
                .set("class", delta_class_str(d.cls))
                .set("regression", d.regression)
                .set("improvement", d.improvement));
  }
  j.set("deltas", std::move(ds));
  Json ns = Json::array();
  for (const auto& n : notes) ns.push(Json(n));
  j.set("notes", std::move(ns));
  j.set("regressions", static_cast<std::uint64_t>(regressions()));
  j.set("improvements", static_cast<std::uint64_t>(improvements()));
  return j;
}

BenchDiff bench_diff(const Json& old_doc, const Json& new_doc,
                     BenchDiffOptions opts) {
  LIPLIB_EXPECT(opts.threshold_pct >= 0, "bench diff threshold must be >= 0");
  const BenchDoc oldb = open_bench(old_doc, "baseline");
  const BenchDoc newb = open_bench(new_doc, "candidate");
  if (oldb.bench != newb.bench) {
    throw ApiError("bench diff: comparing different benches (\"" + oldb.bench +
                   "\" vs \"" + newb.bench + "\")");
  }

  BenchDiff diff;
  diff.bench = newb.bench;
  diff.threshold_pct = opts.threshold_pct;
  // A ratio against a reference run ("speedup_vs_system") only compares
  // with a baseline measured against the same reference.
  const bool re_anchored = oldb.reference != newb.reference;
  if (re_anchored) {
    diff.notes.push_back("reference changed from " +
                         quoted_or_none(oldb.reference) + " to " +
                         quoted_or_none(newb.reference) +
                         "; *_vs_* ratios not gated");
  }

  // Old records by key; duplicate keys keep the first occurrence and a
  // note (bench records are config rows — duplicates mean a bad file).
  std::map<std::string, const Json*> old_by_key;
  for (std::size_t i = 0; i < oldb.records->size(); ++i) {
    const Json& rec = oldb.records->at(i);
    const std::string key = record_key(rec, i);
    if (!old_by_key.emplace(key, &rec).second) {
      diff.notes.push_back("baseline has duplicate record key \"" + key +
                           "\"; keeping the first");
    }
  }

  std::size_t matched = 0;
  for (std::size_t i = 0; i < newb.records->size(); ++i) {
    const Json& rec = newb.records->at(i);
    const std::string key = record_key(rec, i);
    auto it = old_by_key.find(key);
    if (it == old_by_key.end()) {
      diff.notes.push_back("record \"" + key +
                           "\" only in candidate (not gated)");
      continue;
    }
    const Json& old_rec = *it->second;
    old_by_key.erase(it);
    ++matched;
    for (const auto& [field, value] : rec.members()) {
      if (!value.is_number()) continue;
      const Json* old_val = old_rec.find(field);
      if (old_val == nullptr || !old_val->is_number()) {
        diff.notes.push_back("field \"" + field + "\" of \"" + key +
                             "\" missing or non-numeric in baseline");
        continue;
      }
      BenchDelta d;
      d.record = key;
      d.field = field;
      d.old_value = old_val->as_double();
      d.new_value = value.as_double();
      d.cls = re_anchored && contains(field, "_vs_")
                  ? DeltaClass::kInfo
                  : classify_bench_field(field);
      if (d.old_value == 0.0) {
        if (d.cls != DeltaClass::kInfo && d.new_value != 0.0) {
          diff.notes.push_back("field \"" + field + "\" of \"" + key +
                               "\" has zero baseline (not gated)");
        }
        d.cls = DeltaClass::kInfo;
        d.change_pct = 0;
      } else {
        d.change_pct = (d.new_value - d.old_value) / d.old_value * 100.0;
      }
      if (d.cls == DeltaClass::kHigherBetter) {
        d.regression = d.change_pct < -opts.threshold_pct;
        d.improvement = d.change_pct > opts.threshold_pct;
      } else if (d.cls == DeltaClass::kLowerBetter) {
        d.regression = d.change_pct > opts.threshold_pct;
        d.improvement = d.change_pct < -opts.threshold_pct;
      }
      diff.deltas.push_back(std::move(d));
    }
  }
  for (const auto& [key, rec] : old_by_key) {
    (void)rec;
    diff.notes.push_back("record \"" + key +
                         "\" only in baseline (not gated)");
  }
  if (matched == 0 && (oldb.records->size() > 0 || newb.records->size() > 0)) {
    diff.notes.push_back("no records matched between the two files");
  }
  return diff;
}

BenchDiff bench_diff_files(const std::string& old_path,
                           const std::string& new_path,
                           BenchDiffOptions opts) {
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw ApiError("cannot open bench file: " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  Json old_doc;
  Json new_doc;
  try {
    old_doc = Json::parse(slurp(old_path));
  } catch (const ApiError& e) {
    throw ApiError(old_path + ": " + e.what());
  }
  try {
    new_doc = Json::parse(slurp(new_path));
  } catch (const ApiError& e) {
    throw ApiError(new_path + ": " + e.what());
  }
  return bench_diff(old_doc, new_doc, opts);
}

}  // namespace liplib::telemetry
