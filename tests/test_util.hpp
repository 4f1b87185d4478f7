// Shared helpers for the liplib test suite.

#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>

#include "liplib/graph/generators.hpp"
#include "liplib/lip/design.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/pearls/design_io.hpp"
#include "liplib/pearls/pearls.hpp"
#include "liplib/serve/protocol.hpp"

namespace liplib::testutil {

/// Default pearl for a node arity: identity (1→1), adder (2→1),
/// fork (1→2), butterfly (2→2), generator (0→1) — the netlist default,
/// pearls::pearl_from_spec with no spec.
inline std::unique_ptr<lip::Pearl> default_pearl(std::size_t num_in,
                                                 std::size_t num_out) {
  return pearls::pearl_from_spec("", num_in, num_out);
}

/// Wraps a topology into a Design with default pearls bound to every
/// process node (counter sources and greedy sinks, the defaults).
inline lip::Design make_design(graph::Topology topo) {
  lip::Design d(std::move(topo));
  const auto& t = d.topology();
  for (graph::NodeId v = 0; v < t.nodes().size(); ++v) {
    const auto& node = t.node(v);
    if (node.kind != graph::NodeKind::kProcess) continue;
    d.set_pearl(v, default_pearl(node.num_inputs, node.num_outputs));
  }
  return d;
}

inline lip::Design make_design(graph::Generated g) {
  return make_design(std::move(g.topo));
}

/// A TCP connection to 127.0.0.1:<port> whose reads give up after
/// `read_timeout_s` seconds (recv then fails and read_frame throws), so a
/// daemon that never answers fails a test instead of hanging it.
/// Returns -1 when the connect fails.
inline int connect_loopback(std::uint16_t port, long read_timeout_s = 10) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval timeout{read_timeout_s, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Closes a socket when the test leaves its scope, however it leaves.
struct Socket {
  explicit Socket(int fd) : fd(fd) {}
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() {
    if (fd >= 0) ::close(fd);
  }
  int fd;
};

/// This process's virtual memory size (VmSize of /proc/self/status), in
/// KiB: every mapped thread stack counts, resident or not.
inline std::int64_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  return 0;
}

/// How much this process's VmSize grows, in KiB, from the 200th to the
/// 1,000th of 1,000 sequential connections to a daemon on
/// 127.0.0.1:<port>, each sending `request` as one frame and reading one
/// answer; nullopt when an answer is missing.  Each client waits for the
/// daemon to close its end before the next one connects, so two
/// connection threads never overlap: overlapping threads may take a
/// second stack and malloc arena, a one-time step that is not growth
/// with the connection count.
inline std::optional<std::int64_t> vm_growth_over_connections_kib(
    std::uint16_t port, const std::string& request) {
  std::int64_t at_200 = 0;
  for (int i = 1; i <= 1000; ++i) {
    const Socket conn(connect_loopback(port));
    std::string answer;
    serve::write_frame(conn.fd, request);
    if (!serve::read_frame(conn.fd, answer)) return std::nullopt;
    ::shutdown(conn.fd, SHUT_WR);
    char byte = 0;
    if (::recv(conn.fd, &byte, 1, 0) != 0) return std::nullopt;
    if (i == 200) at_200 = vm_size_kib();
  }
  return vm_size_kib() - at_200;
}

}  // namespace liplib::testutil

namespace liplib::lip {

/// gtest's printer for whole-result comparisons of steady states.
inline void PrintTo(const SteadyState& s, std::ostream* os) {
  *os << "{found " << s.found << ", transient " << s.transient
      << ", period " << s.period << ", cycles " << s.cycles << ", T";
  for (std::size_t i = 0; i < s.shell_throughput.size(); ++i) {
    *os << (i ? " " : " [") << s.shell_ids[i] << ":"
        << s.shell_throughput[i].str();
  }
  *os << (s.shell_throughput.empty() ? "" : "]") << ", deadlocked "
      << s.deadlocked << ", starved " << s.has_starved_shell << "}";
}

}  // namespace liplib::lip
