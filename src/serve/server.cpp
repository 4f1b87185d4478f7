#include "liplib/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#include "liplib/support/check.hpp"

namespace liplib::serve {

// ---- Listener -----------------------------------------------------------

Listener::Listener(Handler handler, unsigned max_connections,
                   FrameLimits limits, std::function<void()> on_violation)
    : handler_(std::move(handler)),
      max_connections_(max_connections),
      limits_(limits),
      on_violation_(std::move(on_violation)) {}

Listener::~Listener() {
  drain();
  join();
}

void Listener::start(std::uint16_t port) {
  LIPLIB_EXPECT(listen_fd_ < 0, "Listener::start called twice");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw ApiError(std::string("socket failed: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Loopback only: both daemons are local backends that trust their
  // peers, not internet listeners; remote fleets front them with their
  // own transport.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw ApiError("cannot bind 127.0.0.1:" + std::to_string(port) + ": " +
                   std::strerror(err));
  }
  if (::listen(fd, 128) < 0) {
    const int err = errno;
    ::close(fd);
    throw ApiError(std::string("listen failed: ") + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  listen_fd_ = fd;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Listener::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (drain) or fatal error
    }
    std::unique_lock<std::mutex> lock(mu_);
    slot_freed_.wait(lock, [this] {
      return open_ < max_connections_ || stopping_.load();
    });
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    // Join finished connections before the next one starts, so a thread
    // that is fully gone hands its stack and malloc arena on instead of
    // the new thread mapping fresh ones.  Joining under the lock is safe:
    // a closed connection's thread is past its last use of it.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->fd >= 0) {
        ++it;
        continue;
      }
      it->thread.join();
      it = connections_.erase(it);
    }
    Connection& conn = connections_.emplace_back();
    conn.fd = fd;
    try {
      conn.thread = std::thread([this, &conn] { serve(conn); });
      ++open_;
    } catch (const std::system_error&) {
      // Out of threads: hang this peer up rather than end the process.
      connections_.pop_back();
      ::close(fd);
    }
  }
}

void Listener::serve(Connection& conn) {
  const int fd = conn.fd;
  std::string payload;
  try {
    while (!stopping_.load() && read_frame(fd, payload, limits_)) {
      const Reply reply = handler_(payload);
      write_frame(fd, reply.payload);
      if (reply.drain) {
        drain();
        break;
      }
    }
  } catch (const std::exception& e) {
    // Protocol violation or I/O error: tell the peer why in one
    // best-effort send (the pipe may be gone), then drop the connection.
    const std::string frame = encode_frame(error_envelope(Json(), e.what()));
    ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    if (on_violation_) on_violation_();
  }
  {
    // Unregister before close so drain can never shut down a recycled
    // fd number.
    std::lock_guard<std::mutex> lock(mu_);
    conn.fd = -1;
    --open_;
  }
  ::close(fd);
  slot_freed_.notify_all();
}

void Listener::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    // shutdown() (not just close) reliably wakes a blocked accept().
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  for (const Connection& conn : connections_) {
    // Wake idle readers; in-flight computations finish and answer
    // first because the write side stays open.
    if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RD);
  }
  slot_freed_.notify_all();
}

void Listener::join() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop is gone, so nothing else adds or reaps connections.
  for (Connection& conn : connections_) conn.thread.join();
  connections_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

// ---- Server -------------------------------------------------------------

Server::Server(ServerOptions opts)
    : ctx_(opts),
      listener_(
          [this](const std::string& payload) {
            // A shutdown request drains the whole daemon once its own
            // response is on the wire.
            std::string response = handle_payload(payload, ctx_);
            return Listener::Reply{std::move(response),
                                   ctx_.draining.load()};
          },
          opts.max_connections, opts.limits, [this] {
            std::lock_guard<std::mutex> lock(ctx_.mu);
            ctx_.protocol_errors.add();
          }) {}

}  // namespace liplib::serve
