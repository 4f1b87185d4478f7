// perfbench_harness --workload <serve-hit|serve-miss|campaign-dist>
//                   --seed <n> --seconds <n> --trace <0|1>
//
// Runs one workload of the repository benchmark through liplib's public
// API, checks every answer, and prints a summary followed by one JSON
// result line: the end-to-end metrics with --trace 0, the per-layer
// metrics of a separate traced phase with --trace 1.  Exits 1 without a
// result line when the harness itself cannot run.

#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace {

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(text, &used, 0);
  if (used != text.size()) throw std::invalid_argument("bad value for " + flag);
  return v;
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      a.seconds = parse_uint(flag, value);
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint(flag, value);
      if (t > 1) throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = t == 1;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.seconds == 0) throw std::invalid_argument("--seconds must be >= 1");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = parse_args(argc, argv);
    perfbench::Report report(args.trace);
    if (args.workload == "serve-hit") {
      perfbench::serve_hit(args, report);
    } else if (args.workload == "serve-miss") {
      perfbench::serve_miss(args, report);
    } else if (args.workload == "campaign-dist") {
      perfbench::campaign_dist(args, report);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    report.print(args.workload);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
