#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <csignal>
#include <cstring>
#include <iterator>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/lines.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace prcost::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// One server per process may own the signal handlers.
std::atomic<Server*> g_signal_server{nullptr};

extern "C" void serve_signal_handler(int) {
  // Async-signal-safe: stop() is one atomic store plus one write() to the
  // wake pipe, which exists only to interrupt the loop's poll().
  if (Server* server = g_signal_server.load(std::memory_order_acquire)) {
    server->stop();
  }
}

std::string static_error_envelope(ErrorCode code, const std::string& message) {
  Json error = Json::object();
  error.set("code", std::string{error_code_name(code)}).set("message", message);
  Json envelope = Json::object();
  envelope.set("error", std::move(error));
  return envelope.dump();
}

const std::string& overloaded_envelope() {
  static const std::string envelope = static_error_envelope(
      ErrorCode::kOverloaded,
      "server overloaded: admission queue full, request shed");
  return envelope;
}

const std::string& oversized_envelope() {
  static const std::string envelope = static_error_envelope(
      ErrorCode::kParse, "line exceeds the maximum request size");
  return envelope;
}

void close_fd(int& fd) noexcept {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// True when `line` carries a valid "deadline_ms" whose budget, anchored
/// at `arrival`, is already spent at `now`. The substring probe keeps
/// deadline-free traffic from paying a JSON parse here; malformed or
/// invalid lines return false and take the normal dispatch path (which
/// reports the parse/usage error).
bool deadline_already_expired(const std::string& line,
                              Clock::time_point arrival,
                              Clock::time_point now) {
  if (line.find("\"deadline_ms\"") == std::string::npos) return false;
  try {
    const Json request = Json::parse(line);
    if (!request.is_object()) return false;
    const Json* dl = request.find("deadline_ms");
    if (dl == nullptr || !dl->is_number() || dl->as_double() < 0) {
      return false;
    }
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>{now - arrival}.count();
    return elapsed_ms >= dl->as_double();
  } catch (const std::exception&) {
    return false;
  }
}

/// Deadline answer for the no-dispatch fast paths, echoing op/id like
/// dispatch_line_at would. Only called on lines deadline_already_expired
/// accepted, so the parse cannot throw.
std::string expired_envelope(const std::string& line) {
  const Json request = Json::parse(line);
  Json envelope = Json::object();
  if (const Json* op = request.find("op")) {
    if (op->is_string()) envelope.set("op", *op);
  }
  if (const Json* id = request.find("id")) envelope.set("id", *id);
  Json error = Json::object();
  error.set("code", std::string{error_code_name(ErrorCode::kDeadline)})
      .set("message",
           "deadline exceeded at phase 'admission' (expired while queued)");
  envelope.set("error", std::move(error));
  return envelope.dump();
}

}  // namespace

/// Per-connection state; owned exclusively by the event-loop thread.
struct Server::Conn {
  int fd = -1;
  u64 id = 0;
  LineSplitter in;              ///< socket bytes -> request lines
  std::string out;              ///< serialized responses awaiting send
  std::size_t out_pos = 0;
  u64 next_seq = 0;             ///< next request sequence to assign
  u64 next_emit = 0;            ///< next sequence to append to `out`
  std::map<u64, std::string> ready;  ///< out-of-order completed responses
  std::size_t inflight = 0;     ///< requests submitted but not yet emitted
  bool eof = false;             ///< peer closed its write side
  bool fatal = false;           ///< protocol error: close once flushed

  bool drained() const noexcept {
    return inflight == 0 && ready.empty() && out_pos == out.size();
  }
  bool wants_read(const ServerOptions& options, bool draining) const noexcept {
    return !eof && !fatal && !draining &&
           inflight < options.max_inflight_per_conn &&
           out.size() - out_pos < options.max_write_buffer;
  }
};

Server::Server(const api::Engine& engine, ServerOptions options)
    : engine_(&engine), options_(std::move(options)) {
  if (options_.dispatch_batch == 0) options_.dispatch_batch = 64;
  if (options_.drain_grace_ms < 0) options_.drain_grace_ms = 0;
}

Server::~Server() {
  Server* expected = this;
  g_signal_server.compare_exchange_strong(expected, nullptr);
  for (auto& [id, conn] : conns_) close_fd(conn->fd);
  conns_.clear();
  close_fd(unix_fd_);
  close_fd(tcp_fd_);
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  close_fd(wake_fd_[0]);
  close_fd(wake_fd_[1]);
}

void Server::start() {
  if (started_) throw ContractError{"Server::start() called twice"};
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    throw UsageError{"serve needs a unix socket path or a TCP port"};
  }
  if (::pipe2(wake_fd_, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw IoError{"cannot create wake pipe: " +
                  std::string{std::strerror(errno)}};
  }

  if (!options_.unix_path.empty()) {
    if (options_.unix_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw UsageError{"unix socket path too long: " + options_.unix_path};
    }
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (unix_fd_ < 0) {
      throw IoError{"cannot create unix socket: " +
                    std::string{std::strerror(errno)}};
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof addr.sun_path - 1);
    ::unlink(options_.unix_path.c_str());  // stale socket from a dead server
    if (::bind(unix_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(unix_fd_, SOMAXCONN) != 0) {
      throw IoError{"cannot bind unix socket '" + options_.unix_path +
                    "': " + std::string{std::strerror(errno)}};
    }
  }

  if (options_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (tcp_fd_ < 0) {
      throw IoError{"cannot create TCP socket: " +
                    std::string{std::strerror(errno)}};
    }
    int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::inet_pton(AF_INET, options_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      throw UsageError{"bad TCP host '" + options_.tcp_host + "'"};
    }
    if (::bind(tcp_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(tcp_fd_, SOMAXCONN) != 0) {
      throw IoError{"cannot bind TCP " + options_.tcp_host + ":" +
                    std::to_string(options_.tcp_port) + ": " +
                    std::string{std::strerror(errno)}};
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      actual_tcp_port_ = ntohs(bound.sin_port);
    }
  }

  // The daemon is the observability story: a live registry makes the
  // "metrics" op scrape meaningful without any extra flag.
  obs::set_metrics_enabled(true);
  started_ = true;
}

void Server::install_signal_handlers() {
  g_signal_server.store(this, std::memory_order_release);
  struct sigaction action {};
  action.sa_handler = serve_signal_handler;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

void Server::stop() {
  draining_.store(true, std::memory_order_release);
  const char byte = 'w';
  // Full pipe means a wakeup is already pending; any failure is benign.
  [[maybe_unused]] const auto n = ::write(wake_fd_[1], &byte, 1);
}

Server::Counters Server::counters() const noexcept {
  Counters totals;
  totals.accepted = stat_accepted_.load(std::memory_order_relaxed);
  totals.disconnects = stat_disconnects_.load(std::memory_order_relaxed);
  totals.requests = stat_requests_.load(std::memory_order_relaxed);
  totals.responses = stat_responses_.load(std::memory_order_relaxed);
  totals.shed = stat_shed_.load(std::memory_order_relaxed);
  totals.expired = stat_expired_.load(std::memory_order_relaxed);
  totals.protocol_errors =
      stat_protocol_errors_.load(std::memory_order_relaxed);
  return totals;
}

std::string Server::handle(const Pending& pending) const {
  const auto begin = Clock::now();
  const Json envelope =
      api::dispatch_line_at(*engine_, pending.line, pending.arrival);
  const double ms =
      std::chrono::duration<double, std::milli>{Clock::now() - begin}.count();
  PRCOST_HIST("serve.request_ms", ms, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
              300.0, 1000.0, 3000.0, 10000.0);
  if (envelope.find("error") != nullptr) {
    PRCOST_COUNT("serve.request_errors");
  }
  return envelope.dump();
}

void Server::dispatch_round() {
  const std::size_t take = std::min(queue_.size(), options_.dispatch_batch);
  if (take == 0) return;
  const auto end = queue_.begin() + static_cast<std::ptrdiff_t>(take);
  std::vector<Pending> batch(std::make_move_iterator(queue_.begin()),
                             std::make_move_iterator(end));
  queue_.erase(queue_.begin(), end);

  // Requests whose deadline expired while they sat in the admission queue
  // are answered with the stable "deadline" code instead of occupying pool
  // workers on work nobody is waiting for; neither are lines whose client
  // has already gone.
  std::vector<std::string> results(batch.size());
  std::vector<std::size_t> live;
  live.reserve(batch.size());
  const auto now = Clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!conns_.contains(batch[i].conn)) continue;
    if (deadline_already_expired(batch[i].line, batch[i].arrival, now)) {
      stat_expired_.fetch_add(1, std::memory_order_relaxed);
      PRCOST_COUNT("serve.deadline_expired");
      results[i] = expired_envelope(batch[i].line);
    } else {
      live.push_back(i);
    }
  }

  // One pool fan-out per round; a lone request runs inline on this thread.
  if (live.size() == 1) {
    results[live[0]] = handle(batch[live[0]]);
  } else if (!live.empty()) {
    const std::size_t workers =
        options_.workers != 0 ? options_.workers : engine_->options().workers;
    parallel_for(
        live.size(),
        [&](std::size_t i) { results[live[i]] = handle(batch[live[i]]); },
        workers);
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto it = conns_.find(batch[i].conn);
    if (it != conns_.end()) {
      it->second->ready.emplace(batch[i].seq, std::move(results[i]));
    }
  }
  for (const Pending& pending : batch) service(pending.conn);
}

void Server::accept_ready(int listen_fd, bool is_unix) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or a transient accept error: poll will retry
    }
    if (!is_unix) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conns_.emplace(conn->id, std::move(conn));
    stat_accepted_.fetch_add(1, std::memory_order_relaxed);
    PRCOST_COUNT("serve.accepted");
  }
}

void Server::submit_line(Conn& conn, std::string line) {
  const u64 seq = conn.next_seq++;
  ++conn.inflight;
  stat_requests_.fetch_add(1, std::memory_order_relaxed);
  PRCOST_COUNT("serve.requests");
  if (queue_.size() >= options_.max_queue) {
    // A request that is already past its own deadline is a deadline miss,
    // not an overload artifact: answer the stable "deadline" code so
    // clients can tell the two apart. Everything else is shed without
    // parsing; the event loop never blocks on a full queue.
    const auto now = Clock::now();
    if (deadline_already_expired(line, now, now)) {
      stat_expired_.fetch_add(1, std::memory_order_relaxed);
      PRCOST_COUNT("serve.deadline_expired");
      conn.ready.emplace(seq, expired_envelope(line));
      return;
    }
    stat_shed_.fetch_add(1, std::memory_order_relaxed);
    PRCOST_COUNT("serve.shed");
    conn.ready.emplace(seq, overloaded_envelope());
    return;
  }
  queue_.push_back(Pending{conn.id, seq, std::move(line), Clock::now()});
}

void Server::read_conn(Conn& conn) {
  // One chunk per poll round keeps one chatty client from starving the
  // rest; poll is level-triggered, so leftover bytes re-arm immediately.
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.in.append(std::string_view{buf, static_cast<std::size_t>(n)});
      while (auto line = conn.in.next_line()) {
        submit_line(conn, std::move(*line));
      }
      if (conn.in.buffered() > options_.max_line_bytes) {
        // Unframeable: a single line larger than the cap. Answer once,
        // then close after the response flushes.
        stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        PRCOST_COUNT("serve.protocol_errors");
        ++conn.inflight;
        conn.ready.emplace(conn.next_seq++, oversized_envelope());
        conn.in.take_tail();
        conn.eof = true;
        conn.fatal = true;
      }
      return;
    }
    if (n == 0) {
      conn.eof = true;
      // getline semantics shared with batch: an unterminated final chunk
      // is still one last request line.
      std::string tail = conn.in.take_tail();
      if (!tail.empty()) submit_line(conn, std::move(tail));
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    destroy_conn(conn.id, /*disconnect=*/true);
    return;
  }
}

void Server::pump_ready(Conn& conn) {
  // Emit completed responses in request order; out-of-order completions
  // wait in `ready` until their turn.
  for (auto it = conn.ready.find(conn.next_emit); it != conn.ready.end();
       it = conn.ready.find(conn.next_emit)) {
    conn.out += it->second;
    conn.out += '\n';
    conn.ready.erase(it);
    ++conn.next_emit;
    --conn.inflight;
    stat_responses_.fetch_add(1, std::memory_order_relaxed);
    PRCOST_COUNT("serve.responses");
  }
}

bool Server::flush_writes(Conn& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_pos,
               conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    destroy_conn(conn.id, /*disconnect=*/true);
    return false;
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
  }
  return true;
}

void Server::destroy_conn(u64 id, bool disconnect) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  close_fd(it->second->fd);
  conns_.erase(it);
  if (disconnect) {
    // Its queued lines are skipped when their round comes.
    stat_disconnects_.fetch_add(1, std::memory_order_relaxed);
    PRCOST_COUNT("serve.disconnects");
  }
}

void Server::service(u64 id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  pump_ready(conn);
  if (!flush_writes(conn)) return;  // destroyed mid-write
  // A half-closed connection whose final response lands here registers no
  // further poll events (no POLLIN after EOF, no POLLOUT once flushed), so
  // close-when-done must run on every delivery path.
  if (conn.eof && conn.drained()) destroy_conn(id, /*disconnect=*/!conn.fatal);
}

void Server::update_gauges() {
  PRCOST_GAUGE_SET("serve.connections", conns_.size());
  PRCOST_GAUGE_SET("serve.queue_depth", queue_.size());
  std::size_t inflight = 0;
  for (const auto& [id, conn] : conns_) inflight += conn->inflight;
  PRCOST_GAUGE_SET("serve.inflight", inflight);
}

void Server::run() {
  if (!started_) throw ContractError{"Server::run() before start()"};
  std::vector<pollfd> fds;
  std::vector<u64> fd_conn;  // conn id per pollfd slot (0 = not a conn)
  std::optional<Clock::time_point> drain_deadline;
  bool listeners_open = true;

  for (;;) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && listeners_open) {
      // Drain step 1: stop accepting. Existing connections finish their
      // queued + in-flight requests and are closed once flushed.
      listeners_open = false;
      close_fd(unix_fd_);
      close_fd(tcp_fd_);
      if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
      drain_deadline = Clock::now() + std::chrono::milliseconds{
                                          options_.drain_grace_ms};
      log_info("serve: draining (", conns_.size(), " connection(s), ",
               queue_.size(), " queued)");
    }
    if (draining) {
      std::vector<u64> finished;
      for (const auto& [id, conn] : conns_) {
        if (conn->drained()) finished.push_back(id);
      }
      for (const u64 id : finished) destroy_conn(id, /*disconnect=*/false);
      if (conns_.empty()) break;
      if (drain_deadline && Clock::now() >= *drain_deadline) {
        log_warn("serve: drain grace expired, closing ", conns_.size(),
                 " connection(s)");
        std::vector<u64> remaining;
        remaining.reserve(conns_.size());
        for (const auto& [id, conn] : conns_) remaining.push_back(id);
        for (const u64 id : remaining) destroy_conn(id, /*disconnect=*/true);
        break;
      }
    }

    fds.clear();
    fd_conn.clear();
    fds.push_back(pollfd{wake_fd_[0], POLLIN, 0});
    fd_conn.push_back(0);
    if (listeners_open && unix_fd_ >= 0) {
      fds.push_back(pollfd{unix_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    if (listeners_open && tcp_fd_ >= 0) {
      fds.push_back(pollfd{tcp_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (const auto& [id, conn] : conns_) {
      short events = 0;
      if (conn->wants_read(options_, draining)) events |= POLLIN;
      if (conn->out_pos < conn->out.size()) events |= POLLOUT;
      fds.push_back(pollfd{conn->fd, events, 0});
      fd_conn.push_back(id);
    }

    // Only look for new events while lines are still queued; otherwise
    // block indefinitely when idle, and tick while draining so the grace
    // deadline and close conditions re-check even if no fd fires.
    const int timeout_ms = !queue_.empty() ? 0 : draining ? 50 : -1;
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      log_error("serve: poll failed: ", std::strerror(errno));
      break;
    }

    if (fds[0].revents & POLLIN) {
      char sink[256];
      while (::read(wake_fd_[0], sink, sizeof sink) > 0) {
      }
    }

    for (std::size_t i = 1; i < fds.size(); ++i) {
      const short revents = fds[i].revents;
      if (revents == 0) continue;
      if (fd_conn[i] == 0) {
        if (revents & POLLIN) {
          accept_ready(fds[i].fd, fds[i].fd == unix_fd_);
        }
        continue;
      }
      const u64 id = fd_conn[i];
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // destroyed earlier this round
      if (revents & (POLLERR | POLLNVAL)) {
        destroy_conn(id, /*disconnect=*/true);
        continue;
      }
      if ((revents & (POLLIN | POLLHUP)) && !it->second->eof) {
        read_conn(*it->second);
      }
      service(id);
    }
    // Run to completion: answer this round's lines on this thread (and
    // the pool), then deliver and flush before polling again.
    dispatch_round();
    update_gauges();
  }

  // Drain step 2: every connection is gone, so whatever is still queued
  // has nobody to answer; hand control back so the caller can flush
  // snapshots and exit cleanly.
  queue_.clear();
  update_gauges();
  log_info("serve: drained, ",
           stat_responses_.load(std::memory_order_relaxed),
           " response(s) served");
}

}  // namespace prcost::serve
