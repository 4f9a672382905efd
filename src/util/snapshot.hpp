// Versioned, checksummed binary snapshot container for persistent caches.
//
// A snapshot file is a fixed header, a length-prefixed payload, and a
// CRC-32C trailer:
//
//   offset  size  field
//   0       4     magic "PRCS"
//   4       4     format version (caller-chosen, checked exactly on load)
//   8       4     endianness marker 0x01020304 in native byte order
//   12      8     payload size in bytes
//   20      N     payload (sequence of the put_* primitives below)
//   20+N    4     CRC-32C of the payload
//
// Scalar fields inside the payload are stored in native byte order; the
// endianness marker rejects snapshots written on a foreign-endian host
// instead of silently mis-decoding them. Every validation failure - bad
// magic, unknown version, foreign endianness, truncation, checksum
// mismatch, or reading past the payload - throws ParseError so callers
// can fall back to a clean cold start. Writes go to "<path>.tmp" first
// and rename into place, so a crash mid-save never leaves a torn file at
// the published path.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/ints.hpp"

namespace prcost {

/// CRC-32C (Castagnoli; reflected, init and final xor 0xFFFFFFFF) over a
/// byte range - the checksum the container stores.
u32 snapshot_checksum(const void* data, std::size_t size) noexcept;

/// Accumulates a payload, then writes the framed file atomically.
class SnapshotWriter {
 public:
  void put_u32(u32 value);
  void put_u64(u64 value);
  void put_f64(double value);
  /// u64 length followed by the raw bytes.
  void put_string(std::string_view value);
  /// Raw bytes, no length prefix (caller stores the count separately).
  void put_bytes(const void* data, std::size_t size);

  std::size_t payload_size() const noexcept { return payload_.size(); }

  /// Frame the payload with `version` and publish it at `path` via a
  /// write-to-temp-then-rename. Throws IoError when the file cannot be
  /// written or renamed.
  void write(const std::string& path, u32 version) const;

 private:
  std::vector<unsigned char> payload_;
};

/// Loads and validates a framed file, then decodes the payload in order.
class SnapshotReader {
 public:
  /// Reads the whole file and validates every frame field. Throws IoError
  /// when the file cannot be opened and ParseError on any malformation.
  SnapshotReader(const std::string& path, u32 expected_version);

  u32 get_u32();
  u64 get_u64();
  double get_f64();
  std::string get_string();
  void get_bytes(void* out, std::size_t size);

  /// Payload bytes not yet consumed.
  std::size_t remaining() const noexcept { return payload_.size() - pos_; }

  /// Throw ParseError naming this snapshot's path and `why` - for payload
  /// checks the caller's decoder makes.
  [[noreturn]] void fail(const std::string& why) const;

 private:
  void need(std::size_t bytes) const;

  std::string path_;
  std::vector<unsigned char> payload_;
  std::size_t pos_ = 0;
};

}  // namespace prcost
