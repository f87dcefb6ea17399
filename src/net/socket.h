// Minimal POSIX TCP layer for the networked serving plane (tipsyd).
//
// The HA plane built in src/ha is in-process; this file is the first rung
// of the process split: blocking sockets with *per-connection read/write
// deadlines* (a peer that stops draining or feeding must surface as a
// typed timeout, never a hung serving thread) and a bounded
// exponential-backoff-with-jitter schedule for the reconnecting clients
// (collector, journal shipping, heartbeats). Everything binds loopback by
// default — the test matrix and the daemon smoke job run whole
// primary/standby topologies inside one host.
//
// Error taxonomy (util::Status), chosen so callers can branch on retry
// semantics instead of errno archaeology:
//   kUnavailable — timeout or refused connection; retrying may succeed
//                  (the backoff loop's domain).
//   kTruncated   — the peer closed mid-message; whatever was being read
//                  is a torn frame (the wire analogue of a torn journal
//                  tail).
//   kNoData      — the peer closed cleanly at a message boundary.
//   kIoError     — the OS said no (socket create/bind/option failures).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/rng.h"
#include "util/status.h"

namespace tipsy::net {

// RAII wrapper for a connected stream socket.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket();

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  void Close();
  // Half-close both directions (wakes a peer blocked in recv).
  void Shutdown();

  // Per-connection deadlines: any single recv/send that makes no progress
  // for this long fails with kUnavailable. 0 disables (block forever).
  [[nodiscard]] util::Status SetReadDeadline(int milliseconds);
  [[nodiscard]] util::Status SetWriteDeadline(int milliseconds);

  // Writes all of `bytes` or fails. kUnavailable on a write deadline,
  // kIoError when the connection is gone (RST/EPIPE).
  [[nodiscard]] util::Status SendAll(std::string_view bytes);

  // Reads exactly `n` bytes into `out` (replacing its contents).
  //   kNoData      — peer closed before the first byte (clean boundary).
  //   kTruncated   — peer closed after some bytes (torn message).
  //   kUnavailable — read deadline expired.
  [[nodiscard]] util::Status RecvExact(std::size_t n, std::string& out);

  // Reads up to `max` bytes; returns the bytes (possibly fewer). Empty
  // string is never returned: a clean close is kNoData, a timeout
  // kUnavailable.
  [[nodiscard]] util::StatusOr<std::string> RecvSome(std::size_t max);

  // Non-blocking liveness probe for a connection whose peer has stopped
  // talking (a shipping standby after its handshake): discards whatever
  // bytes are pending and returns false once the peer has closed or the
  // connection failed.
  [[nodiscard]] bool PeerOpen();

 private:
  int fd_ = -1;
};

// Listening TCP socket. Binds loopback (127.0.0.1) unless `any_interface`
// is set; port 0 asks the kernel for an ephemeral port (read the actual
// one back with port()).
class Listener {
 public:
  [[nodiscard]] static util::StatusOr<Listener> Open(
      std::uint16_t port, bool any_interface = false);

  Listener() = default;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  // Waits up to `timeout_ms` for a connection; kUnavailable on timeout
  // (the accept loops poll this so Stop() is observed promptly), kIoError
  // once the listener is shut down or closed.
  [[nodiscard]] util::StatusOr<Socket> Accept(int timeout_ms);

  // Stops listening and wakes every thread blocked in Accept() (which then
  // fails with kIoError). Leaves the descriptor open and unchanged, so it
  // is safe while other threads are inside Accept(); Close() only once
  // they have returned, since closing would free the fd number for reuse
  // under them.
  void Shutdown();
  void Close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

// Connects to host:port, failing with kUnavailable after `timeout_ms`
// (refused connections are also kUnavailable: in a failover topology the
// peer may simply not be up *yet*).
[[nodiscard]] util::StatusOr<Socket> Connect(const std::string& host,
                                             std::uint16_t port,
                                             int timeout_ms);

// Bounded exponential backoff with deterministic jitter, shared by every
// reconnecting client. Delays are initial * multiplier^k, capped at
// `max_ms`, each stretched by up to `jitter` (uniform from `seed`) so a
// fleet of standbys does not reconnect in lockstep after a partition
// heals.
struct BackoffPolicy {
  int initial_ms = 50;
  int max_ms = 2000;
  double multiplier = 2.0;
  double jitter = 0.2;
};

class Backoff {
 public:
  explicit Backoff(BackoffPolicy policy = {}, std::uint64_t seed = 0xb0ff)
      : policy_(policy), rng_(seed) {}

  // Delay before the next attempt, advancing the schedule.
  [[nodiscard]] int NextDelayMs();
  // A success: the next failure starts the schedule over.
  void Reset() { attempt_ = 0; }
  [[nodiscard]] int attempt() const { return attempt_; }

 private:
  BackoffPolicy policy_;
  util::Rng rng_;
  int attempt_ = 0;
};

// Interruptible sleep used by the reconnect loops: sleeps `ms` in small
// slices, returning early (false) once `*stop` becomes true.
bool SleepInterruptible(int ms, const std::atomic<bool>* stop);

}  // namespace tipsy::net
