#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

namespace tipsy::net {
namespace {

std::string ErrnoMessage(const char* op) {
  std::string msg(op);
  msg += ": ";
  msg += std::strerror(errno);
  return msg;
}

util::Status SetTimeoutOption(int fd, int option, int milliseconds) {
  struct timeval tv;
  tv.tv_sec = milliseconds / 1000;
  tv.tv_usec = (milliseconds % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv)) != 0) {
    return util::Status::IoError(ErrnoMessage("setsockopt timeout"));
  }
  return util::Status::Ok();
}

}  // namespace

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket::~Socket() { Close(); }

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

util::Status Socket::SetReadDeadline(int milliseconds) {
  if (!valid()) return util::Status::InvalidArgument("socket is closed");
  return SetTimeoutOption(fd_, SO_RCVTIMEO, milliseconds);
}

util::Status Socket::SetWriteDeadline(int milliseconds) {
  if (!valid()) return util::Status::InvalidArgument("socket is closed");
  return SetTimeoutOption(fd_, SO_SNDTIMEO, milliseconds);
}

util::Status Socket::SendAll(std::string_view bytes) {
  if (!valid()) return util::Status::InvalidArgument("socket is closed");
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a peer that reset the connection must produce EPIPE,
    // not kill the daemon with SIGPIPE.
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return util::Status::Unavailable("send deadline expired");
    }
    return util::Status::IoError(ErrnoMessage("send"));
  }
  return util::Status::Ok();
}

util::Status Socket::RecvExact(std::size_t n, std::string& out) {
  if (!valid()) return util::Status::InvalidArgument("socket is closed");
  out.clear();
  out.resize(n);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, out.data() + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      out.resize(got);
      if (got == 0) {
        return util::Status::NoData("connection closed");
      }
      return util::Status::Truncated(
          "connection closed after " + std::to_string(got) + " of " +
          std::to_string(n) + " bytes");
    }
    if (errno == EINTR) continue;
    out.resize(got);
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return util::Status::Unavailable("read deadline expired");
    }
    return util::Status::IoError(ErrnoMessage("recv"));
  }
  return util::Status::Ok();
}

util::StatusOr<std::string> Socket::RecvSome(std::size_t max) {
  if (!valid()) return util::Status::InvalidArgument("socket is closed");
  std::string out;
  out.resize(max);
  while (true) {
    const ssize_t r = ::recv(fd_, out.data(), max, 0);
    if (r > 0) {
      out.resize(static_cast<std::size_t>(r));
      return out;
    }
    if (r == 0) return util::Status::NoData("connection closed");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return util::Status::Unavailable("read deadline expired");
    }
    return util::Status::IoError(ErrnoMessage("recv"));
  }
}

bool Socket::PeerOpen() {
  if (!valid()) return false;
  char scratch[256];
  // Bounded, so a peer that keeps talking cannot hold the caller here.
  for (int reads = 0; reads < 16; ++reads) {
    const ssize_t r = ::recv(fd_, scratch, sizeof(scratch), MSG_DONTWAIT);
    if (r > 0) continue;
    if (r == 0) return false;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
  return true;
}

util::StatusOr<Listener> Listener::Open(std::uint16_t port,
                                        bool any_interface) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return util::Status::IoError(ErrnoMessage("socket"));
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr =
      any_interface ? htonl(INADDR_ANY) : htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const auto status = util::Status::IoError(ErrnoMessage("bind"));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) != 0) {
    const auto status = util::Status::IoError(ErrnoMessage("listen"));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const auto status = util::Status::IoError(ErrnoMessage("getsockname"));
    ::close(fd);
    return status;
  }
  Listener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

Listener::~Listener() { Close(); }

void Listener::Shutdown() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::StatusOr<Socket> Listener::Accept(int timeout_ms) {
  if (!valid()) return util::Status::IoError("listener is closed");
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc == 0) return util::Status::Unavailable("accept timed out");
  if (rc < 0) {
    if (errno == EINTR) return util::Status::Unavailable("accept interrupted");
    return util::Status::IoError(ErrnoMessage("poll"));
  }
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return util::Status::IoError(ErrnoMessage("accept"));
  return Socket(fd);
}

util::StatusOr<Socket> Connect(const std::string& host, std::uint16_t port,
                               int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return util::Status::IoError(ErrnoMessage("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::Status::InvalidArgument("not an IPv4 address: " + host);
  }
  // Non-blocking connect with a poll deadline: a dead or partitioned peer
  // must not hold a client thread for the kernel's multi-minute default.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    const bool refused = errno == ECONNREFUSED;
    const auto status =
        refused ? util::Status::Unavailable("connection refused")
                : util::Status::IoError(ErrnoMessage("connect"));
    ::close(fd);
    return status;
  }
  if (rc != 0) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) {
      ::close(fd);
      return util::Status::Unavailable("connect timed out");
    }
    int error = 0;
    socklen_t len = sizeof(error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) != 0 ||
        error != 0) {
      const auto status =
          error == ECONNREFUSED
              ? util::Status::Unavailable("connection refused")
              : util::Status::IoError(
                    std::string("connect: ") + std::strerror(error));
      ::close(fd);
      return status;
    }
  }
  (void)::fcntl(fd, F_SETFL, flags);  // back to blocking
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

int Backoff::NextDelayMs() {
  const double base = static_cast<double>(policy_.initial_ms) *
                      std::pow(policy_.multiplier, attempt_);
  double delay = std::min(base, static_cast<double>(policy_.max_ms));
  delay *= 1.0 + policy_.jitter * rng_.NextDouble();
  ++attempt_;
  return static_cast<int>(delay);
}

bool SleepInterruptible(int ms, const std::atomic<bool>* stop) {
  constexpr int kSliceMs = 5;
  int remaining = ms;
  while (remaining > 0) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return false;
    }
    const int slice = remaining < kSliceMs ? remaining : kSliceMs;
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    remaining -= slice;
  }
  return stop == nullptr || !stop->load(std::memory_order_relaxed);
}

}  // namespace tipsy::net
