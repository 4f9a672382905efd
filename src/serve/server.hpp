// prcost serve: the warm multi-tenant daemon over one shared Engine.
//
// One Server owns a poll()-based event loop (Unix-domain and/or TCP
// listeners, newline-delimited JSON with exactly the JSONL batch wire
// contract) that runs to completion: each round it frames the lines it
// reads into an admission queue only the loop thread touches, answers up
// to dispatch_batch of them itself (fanned out through the process-wide
// parallel_for pool, a lone line inline), delivers the responses to their
// connections and flushes, then polls again. All expensive state
// - device catalog, interned fabric identities, plan cache, bitstream
// cache, worker pool, obs registry, warm-start snapshots - is paid once
// per process and amortized across every connection.
//
// Production behavior:
//   - Admission control: the queue is bounded (ServerOptions::max_queue);
//     a request arriving past the bound is shed immediately with the
//     stable "overloaded" error code. The event loop never blocks on the
//     queue.
//   - Backpressure: a connection with too many requests in flight or too
//     large an unflushed response buffer stops being read until it drains;
//     other connections are unaffected.
//   - Deadlines: a request's "deadline_ms" is anchored when the loop reads
//     its line (queue wait counts; bytes still in the kernel buffer do not)
//     and honored at engine phase boundaries -> stable "deadline" error
//     code.
//   - Isolation: a malformed JSONL line answers a per-request "parse"
//     error and the connection stays up; a client disconnecting
//     mid-request only discards its own responses.
//   - Graceful drain: stop() (or SIGTERM/SIGINT via
//     install_signal_handlers) closes the listeners, finishes every
//     queued and in-flight request, flushes the write buffers, and
//     returns from run() so the caller can flush cache snapshots and
//     exit 0. Connections that cannot drain within drain_grace_ms are
//     force-closed.
//
// Responses preserve per-connection input order (one response line per
// request line, like batch) even though a round's lines run in parallel.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "api/batch.hpp"
#include "api/engine.hpp"
#include "util/ints.hpp"

namespace prcost::serve {

struct ServerOptions {
  /// Unix-domain socket path (empty = no unix listener). A stale file at
  /// the path is unlinked before bind; the file is removed on shutdown.
  std::string unix_path;
  /// TCP listener (-1 = no TCP listener, 0 = bind an ephemeral port and
  /// report it via Server::tcp_port()).
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";
  /// Admission-queue bound: requests arriving while this many are queued
  /// are shed with the "overloaded" error code. 0 sheds everything (a
  /// deliberate brown-out / test mode).
  std::size_t max_queue = 1024;
  /// Per-connection in-flight bound: reading from a connection pauses
  /// while it has this many unanswered requests.
  std::size_t max_inflight_per_conn = 64;
  /// Per-connection unflushed-response bound (bytes): reading pauses until
  /// the peer consumes its backlog.
  std::size_t max_write_buffer = 4u << 20;
  /// A single line larger than this is a protocol error: the connection
  /// gets one "parse" error envelope and is closed.
  std::size_t max_line_bytes = 8u << 20;
  /// Queued lines the event loop answers per round (0 = auto). A round
  /// amortizes one pool fan-out over many requests.
  std::size_t dispatch_batch = 0;
  /// Workers for the dispatch fan-out (0 = engine/pool default).
  std::size_t workers = 0;
  /// Milliseconds to wait during drain for peers to consume their
  /// responses before force-closing them.
  int drain_grace_ms = 5000;
};

class Server {
 public:
  /// Monotonic totals since start (atomically maintained; readable from
  /// any thread). The obs registry mirrors these as serve.* metrics.
  struct Counters {
    u64 accepted = 0;       ///< connections accepted
    u64 disconnects = 0;    ///< connections torn down by peer error/EOF
    u64 requests = 0;       ///< request lines read off sockets
    u64 responses = 0;      ///< response lines queued to write buffers
    u64 shed = 0;           ///< requests rejected with "overloaded"
    u64 expired = 0;        ///< answered "deadline" without dispatch
    u64 protocol_errors = 0;  ///< oversized-line connection closures
  };

  Server(const api::Engine& engine, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind listeners. Throws IoError when a socket cannot be bound. After
  /// start() returns the endpoints accept connections (run() must be
  /// entered to answer them).
  void start();

  /// Event loop: blocks until a drain (stop()/signal) completes. Finishes
  /// queued work and flushes responses before returning.
  void run();

  /// Request a graceful drain (thread-safe, idempotent, callable from any
  /// thread; also what SIGTERM triggers).
  void stop();

  /// Route SIGTERM/SIGINT to stop() for this server (one server per
  /// process). Call after start().
  void install_signal_handlers();

  /// Actual TCP port after start() (ephemeral binds resolve here); -1 when
  /// no TCP listener was configured.
  int tcp_port() const noexcept { return actual_tcp_port_; }

  const ServerOptions& options() const noexcept { return options_; }

  Counters counters() const noexcept;

 private:
  struct Conn;
  struct Pending {
    u64 conn = 0;
    u64 seq = 0;
    std::string line;
    std::chrono::steady_clock::time_point arrival;
  };

  std::string handle(const Pending& pending) const;
  void dispatch_round();  ///< answer up to dispatch_batch queued lines

  void accept_ready(int listen_fd, bool is_unix);
  void read_conn(Conn& conn);
  void submit_line(Conn& conn, std::string line);
  void pump_ready(Conn& conn);
  bool flush_writes(Conn& conn);  ///< false when the conn died mid-write
  void service(u64 id);           ///< pump + flush, then close if done
  void destroy_conn(u64 id, bool disconnect);
  void update_gauges();

  const api::Engine* engine_;
  ServerOptions options_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int actual_tcp_port_ = -1;
  int wake_fd_[2] = {-1, -1};  ///< interrupts poll() for stop()/signals

  std::unordered_map<u64, std::unique_ptr<Conn>> conns_;
  u64 next_conn_id_ = 1;

  std::deque<Pending> queue_;  ///< admission queue (event-loop thread only)
  std::atomic<bool> draining_{false};
  bool started_ = false;

  std::atomic<u64> stat_accepted_{0};
  std::atomic<u64> stat_disconnects_{0};
  std::atomic<u64> stat_requests_{0};
  std::atomic<u64> stat_responses_{0};
  std::atomic<u64> stat_shed_{0};
  std::atomic<u64> stat_expired_{0};
  std::atomic<u64> stat_protocol_errors_{0};
};

}  // namespace prcost::serve
