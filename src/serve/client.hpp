// Minimal blocking JSONL client for a prcost serve daemon.
//
// One Client owns one connected socket (Unix-domain or TCP) and speaks the
// newline-delimited JSON wire contract: send_line() writes one request
// line, recv_line() reads one response line, request() does both. Used by
// the `prcost client` subcommand, the serve tests, and the
// perf_serve_scaling bench's closed-loop workers; it is deliberately
// synchronous - concurrency comes from running many clients.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace prcost::serve {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to a Unix-domain socket path. Throws IoError on failure.
  static Client connect_unix(const std::string& path);

  /// Connect to host:port over TCP (TCP_NODELAY set). Throws IoError.
  static Client connect_tcp(const std::string& host, int port);

  bool connected() const noexcept { return fd_ >= 0; }

  /// Write one request line (a '\n' is appended). Several lines joined by
  /// '\n' go out as one pipelined write. Throws IoError when the peer is
  /// gone.
  void send_line(std::string_view line);

  /// Read one response line (terminator stripped). Returns nullopt on
  /// orderly EOF with no buffered partial line.
  std::optional<std::string> recv_line();

  /// send_line + recv_line. Throws IoError when the server closes the
  /// connection before answering.
  std::string request(std::string_view line);

  /// Close the write side (the server sees EOF and finishes outstanding
  /// responses); recv_line() keeps working until the server closes.
  void shutdown_write() noexcept;

  void close() noexcept;

 private:
  explicit Client(int fd) noexcept : fd_(fd) {}

  int fd_ = -1;
  std::string buf_;        ///< bytes received but not yet returned
  std::size_t pos_ = 0;    ///< consumed prefix of buf_
  bool eof_ = false;
};

}  // namespace prcost::serve
