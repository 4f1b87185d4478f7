#include "common.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <unordered_set>

#include "liplib/graph/generators.hpp"
#include "liplib/graph/netlist_io.hpp"
#include "liplib/serve/protocol.hpp"
#include "liplib/support/rng.hpp"

namespace perfbench {

using namespace liplib;

namespace {

double clock_ms(clockid_t id) {
  timespec ts{};
  if (::clock_gettime(id, &ts) != 0) {
    throw std::runtime_error(std::string("clock_gettime: ") +
                             std::strerror(errno));
  }
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

struct CatalogueEntry {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics of BENCHMARK.json (run.py checks it).
constexpr CatalogueEntry kEndToEnd[] = {
    {"setup_s", "s"},       {"peak_rss_mb", "MiB"}, {"cpu_ms_per_op", "ms"},
    {"lat_ms_p50", "ms"},   {"cpu_ms_p99", "ms"},   {"ops_per_s", "1/s"},
};

constexpr CatalogueEntry kPerLayer[] = {
    {"serve.rtt_self_us", "us"},
    {"serve.root_self_us", "us"},
    {"serve.cache_lookup_us", "us"},
    {"serve.parse_request_us", "us"},
    {"serve.hash_us", "us"},
    {"serve.envelope_us", "us"},
    {"serve.request_bytes", "B"},
    {"serve.response_bytes", "B"},
    {"serve.cache_insert_us", "us"},
    {"serve.result_bytes", "B"},
    {"serve.deadlock_verdicts", "count"},
    {"serve.execute_ms.lint.p50", "ms"},
    {"serve.execute_ms.lint.p90", "ms"},
    {"serve.execute_ms.screen.p50", "ms"},
    {"serve.execute_ms.screen.p90", "ms"},
    {"serve.execute_ms.prove.p50", "ms"},
    {"serve.execute_ms.prove.p90", "ms"},
    {"serve.execute_ms.profile.p50", "ms"},
    {"serve.execute_ms.profile.p90", "ms"},
    {"json.parse_us", "us"},
    {"json.decode_response_us", "us"},
    {"graph.netlist_parse_us", "us"},
    {"graph.netlist_write_us", "us"},
    {"trace.spans_per_op", "count"},
    {"trace.bytes_per_op", "B"},
    {"lint.run_ms", "ms"},
    {"telemetry.guard_ms", "ms"},
    {"skeleton.analyze_ms", "ms"},
    {"telemetry.guard_cycles", "count"},
    {"skeleton.steady_cycles", "count"},
    {"screen.useful_cycle_frac", "ratio"},
    {"prove.ms", "ms"},
    {"prove.states", "count"},
    {"prove.transitions", "count"},
    {"lip.profile_ms", "ms"},
    {"lip.cycles", "count"},
    {"campaign.jobs_build_ms", "ms"},
    {"campaign.job_us_p50", "us"},
    {"campaign.job_us_p99", "us"},
    {"campaign.chunk_ms_p50", "ms"},
    {"campaign.steals", "count"},
    {"campaign.imbalance", "ratio"},
    {"campaign.sim_cycles", "count"},
    {"campaign.aggregate_ms", "ms"},
    {"campaign.to_json_ms", "ms"},
    {"campaign.outcomes.live", "count"},
    {"campaign.outcomes.deadlock", "count"},
    {"campaign.outcomes.starvation", "count"},
    {"campaign.outcomes.budget_exhausted", "count"},
    {"campaign.outcomes.mismatch", "count"},
    {"campaign.outcomes.error", "count"},
    {"dist.lease_self_ms", "ms"},
    {"dist.worker_self_ms", "ms"},
    {"dist.chunk_cover_ms", "ms"},
    {"dist.merge_ms", "ms"},
    {"dist.partial_bytes", "B"},
    {"dist.leases", "count"},
    {"dist.redispatches", "count"},
    {"dist.duplicates", "count"},
    {"trace.untraced_lat_ms_p50", "ms"},
    {"trace.traced_lat_ms_p50", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.attributed_ms", "ms"},
    {"trace.unattributed_ms", "ms"},
    {"samples.lat_ms_p50", "count"},
    {"samples.cpu_ms_p99", "count"},
};

template <std::size_t N>
const CatalogueEntry* find_entry(const CatalogueEntry (&cat)[N],
                                 const std::string& name) {
  for (const auto& e : cat) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_ms() { return clock_ms(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_ms() { return clock_ms(CLOCK_THREAD_CPUTIME_ID); }

double thread_cpu_ms(pid_t tid) {
  // The kernel's per-thread CPU clock id (what pthread_getcpuclockid
  // returns): CPUCLOCK_SCHED | CPUCLOCK_PERTHREAD_MASK over ~tid.
  const clockid_t id =
      static_cast<clockid_t>((~static_cast<unsigned>(tid)) << 3) | 6;
  return clock_ms(id);
}

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> out;
  DIR* dir = ::opendir("/proc/self/task");
  if (!dir) throw std::runtime_error("cannot list /proc/self/task");
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
      out.push_back(static_cast<pid_t>(std::stol(e->d_name)));
    }
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::string> make_designs(std::uint64_t seed, std::size_t n,
                                      std::size_t group) {
  Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(n);
  std::unordered_set<std::string> seen;
  while (out.size() < n) {
    // Segment counts cycle through 2..6 instead of being drawn, so every
    // seed's corpus has the same size mix and seeds differ in structure.
    const std::size_t g = out.size() / group;
    const std::size_t segments = 2 + g % 5;
    const bool half_in_loops = g % 4 == 3;
    const auto gen = graph::make_random_composite(
        rng, segments, /*allow_half=*/true, half_in_loops);
    // The daemon keys lint by content alone, so a repeated design
    // would turn a miss into a hit.
    std::string text = graph::write_netlist(gen.topo);
    if (seen.insert(text).second) out.push_back(std::move(text));
  }
  return out;
}

std::string make_request(int k, const std::string& netlist) {
  Json req = Json::object()
                 .set("rpc", serve::kRpcSchema)
                 .set("kind", kKinds[k])
                 .set("netlist", netlist);
  if (k == 1) req.set("budget", kScreenBudget);
  if (k == 2) req.set("worst_case", true).set("budget", kProveBudget);
  return req.dump();
}

Client::Client(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd_);
    throw std::runtime_error(std::string("connect failed: ") +
                             std::strerror(err));
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send(const std::string& payload) {
  serve::write_frame(fd_, payload);
}

void Client::receive(std::string& payload) {
  if (!serve::read_frame(fd_, payload)) {
    throw std::runtime_error("daemon closed the connection");
  }
}

std::string Client::call(const std::string& payload) {
  send(payload);
  std::string out;
  receive(out);
  return out;
}

std::uint64_t covered_us(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t total = 0;
  std::uint64_t end = 0;
  for (const auto& [ts, dur] : intervals) {
    const std::uint64_t lo = std::max(ts, end);
    const std::uint64_t hi = ts + dur;
    if (hi > lo) total += hi - lo;
    end = std::max(end, hi);
  }
  return total;
}

std::size_t span_bytes(const trace::Span& s) {
  auto str = [](const std::string& x) -> std::size_t {
    return x.capacity() > 15 ? x.capacity() + 1 : 0;  // beyond SSO
  };
  std::size_t b = sizeof(trace::Span) + str(s.name) + str(s.category) +
                  str(s.track);
  b += s.events.capacity() * sizeof(trace::SpanEvent);
  for (const auto& e : s.events) b += str(e.name);
  b += s.attrs.capacity() * sizeof(s.attrs[0]);
  for (const auto& [k, v] : s.attrs) b += str(k) + str(v);
  return b;
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  const CatalogueEntry* e = find_entry(kEndToEnd, name);
  if (!e || unit != e->unit) {
    throw std::logic_error("unknown end-to-end metric " + name + " " + unit);
  }
  e2e_[name] = {value, unit, samples};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit, std::size_t samples) {
  const CatalogueEntry* e = find_entry(kPerLayer, name);
  if (!e || unit != e->unit) {
    throw std::logic_error("unknown per-layer metric " + name + " " + unit);
  }
  layer_[name] = {value, unit, samples};
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::fail(const std::string& what, std::uint64_t ops) {
  if (failures_.size() < 20) failures_.push_back(what);
  failed_ += ops;
}

void Report::print(const std::string& workload) const {
  std::cout << "workload " << workload << "\n";
  for (const auto& n : notes_) std::cout << "  " << n << "\n";
  auto show = [](const std::string& name, const Value& v) {
    std::cout << "  " << name << " = " << number(v.value) << " " << v.unit;
    if (v.samples) std::cout << "  (n=" << v.samples << ")";
    std::cout << "\n";
  };
  std::cout << "end-to-end:\n";
  for (const auto& [name, v] : e2e_) show(name, v);
  if (!layer_.empty()) std::cout << "per-layer:\n";
  for (const auto& [name, v] : layer_) show(name, v);

  std::string metrics;
  std::vector<std::string> absent;
  auto emit = [&](const char* name, const char* unit, double value) {
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + name + "\": {\"value\": " + number(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (trace_) {
    for (const auto& e : kPerLayer) {
      const auto it = layer_.find(e.name);
      if (it == layer_.end()) absent.push_back(e.name);
      emit(e.name, e.unit, it == layer_.end() ? 0.0 : it->second.value);
    }
  } else {
    for (const auto& e : kEndToEnd) {
      const auto it = e2e_.find(e.name);
      if (it == e2e_.end()) {
        throw std::logic_error(std::string("end-to-end metric not set: ") +
                               e.name);
      }
      emit(e.name, e.unit, it->second.value);
    }
  }
  if (!absent.empty()) {
    std::cout << "  not exercised by " << workload << " (printed as 0):";
    for (const auto& a : absent) std::cout << " " << a;
    std::cout << "\n";
  }
  for (const auto& f : failures_) std::cout << "  CHECK FAILED: " << f << "\n";
  std::cout << "attempted " << attempted_ << ", failed " << failed_ << "\n";
  std::cout << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
}

}  // namespace perfbench
