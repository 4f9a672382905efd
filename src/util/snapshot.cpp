#include "util/snapshot.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/error.hpp"

namespace prcost {
namespace {

constexpr std::array<char, 4> kMagic{'P', 'R', 'C', 'S'};
constexpr u32 kEndianMarker = 0x01020304u;
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8;

/// Reflected CRC-32C byte table (poly 0x82F63B78), built once.
struct Crc32cTable {
  std::array<u32, 256> entry{};
  Crc32cTable() {
    for (u32 byte = 0; byte < 256; ++byte) {
      u32 value = byte;
      for (int bit = 0; bit < 8; ++bit) {
        value = (value >> 1) ^ ((value & 1u) ? 0x82F63B78u : 0u);
      }
      entry[byte] = value;
    }
  }
};

const Crc32cTable& crc_table() {
  static const Crc32cTable table;
  return table;
}

}  // namespace

u32 snapshot_checksum(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& table = crc_table();
  u32 state = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    state = (state >> 8) ^ table.entry[(state ^ bytes[i]) & 0xFFu];
  }
  return state ^ 0xFFFFFFFFu;
}

void SnapshotWriter::put_u32(u32 value) { put_bytes(&value, sizeof value); }

void SnapshotWriter::put_u64(u64 value) { put_bytes(&value, sizeof value); }

void SnapshotWriter::put_f64(double value) { put_bytes(&value, sizeof value); }

void SnapshotWriter::put_string(std::string_view value) {
  put_u64(value.size());
  put_bytes(value.data(), value.size());
}

void SnapshotWriter::put_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  payload_.insert(payload_.end(), bytes, bytes + size);
}

void SnapshotWriter::write(const std::string& path, u32 version) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) throw IoError{"snapshot: cannot write '" + tmp + "'"};
    out.write(kMagic.data(), kMagic.size());
    const auto put = [&out](const void* data, std::size_t size) {
      out.write(static_cast<const char*>(data),
                static_cast<std::streamsize>(size));
    };
    put(&version, sizeof version);
    put(&kEndianMarker, sizeof kEndianMarker);
    const u64 payload_bytes = payload_.size();
    put(&payload_bytes, sizeof payload_bytes);
    put(payload_.data(), payload_.size());
    const u32 crc = snapshot_checksum(payload_.data(), payload_.size());
    put(&crc, sizeof crc);
    out.flush();
    if (!out) throw IoError{"snapshot: short write to '" + tmp + "'"};
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError{"snapshot: cannot publish '" + path + "'"};
  }
}

SnapshotReader::SnapshotReader(const std::string& path, u32 expected_version)
    : path_(path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw IoError{"snapshot: cannot open '" + path + "'"};
  std::vector<unsigned char> file{std::istreambuf_iterator<char>{in},
                                  std::istreambuf_iterator<char>{}};
  if (file.size() < kHeaderBytes + sizeof(u32)) {
    fail("truncated header");
  }
  if (std::memcmp(file.data(), kMagic.data(), kMagic.size()) != 0) {
    fail("bad magic");
  }
  u32 version = 0;
  u32 endian = 0;
  u64 payload_bytes = 0;
  std::memcpy(&version, file.data() + 4, sizeof version);
  std::memcpy(&endian, file.data() + 8, sizeof endian);
  std::memcpy(&payload_bytes, file.data() + 12, sizeof payload_bytes);
  if (endian != kEndianMarker) {
    fail("foreign endianness");
  }
  if (version != expected_version) {
    fail("unsupported version " + std::to_string(version) + " (want " +
         std::to_string(expected_version) + ")");
  }
  if (file.size() != kHeaderBytes + payload_bytes + sizeof(u32)) {
    fail("truncated payload");
  }
  u32 stored_crc = 0;
  std::memcpy(&stored_crc, file.data() + kHeaderBytes + payload_bytes,
              sizeof stored_crc);
  const u32 computed =
      snapshot_checksum(file.data() + kHeaderBytes, payload_bytes);
  if (stored_crc != computed) {
    fail("checksum mismatch");
  }
  payload_.assign(file.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes),
                  file.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes +
                                                             payload_bytes));
}

void SnapshotReader::need(std::size_t bytes) const {
  if (remaining() < bytes) fail("payload underrun");
}

void SnapshotReader::fail(const std::string& why) const {
  throw ParseError{"snapshot '" + path_ + "': " + why};
}

u32 SnapshotReader::get_u32() {
  u32 value = 0;
  get_bytes(&value, sizeof value);
  return value;
}

u64 SnapshotReader::get_u64() {
  u64 value = 0;
  get_bytes(&value, sizeof value);
  return value;
}

double SnapshotReader::get_f64() {
  double value = 0;
  get_bytes(&value, sizeof value);
  return value;
}

std::string SnapshotReader::get_string() {
  const u64 size = get_u64();
  need(size);
  std::string value{reinterpret_cast<const char*>(payload_.data() + pos_),
                    static_cast<std::size_t>(size)};
  pos_ += size;
  return value;
}

void SnapshotReader::get_bytes(void* out, std::size_t size) {
  need(size);
  std::memcpy(out, payload_.data() + pos_, size);
  pos_ += size;
}

}  // namespace prcost
