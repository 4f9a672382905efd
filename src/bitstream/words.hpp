// Configuration-word vocabulary for Virtex-style partial bitstreams
// (UG191 chapter 6 / UG360 / UG470): sync words, type-1/type-2 packet
// headers, configuration registers and commands.
#pragma once

#include "util/ints.hpp"

namespace prcost {

/// Special configuration words.
namespace cfg {
inline constexpr u32 kDummy = 0xFFFFFFFF;
inline constexpr u32 kBusWidthSync = 0x000000BB;
inline constexpr u32 kBusWidthDetect = 0x11220044;
inline constexpr u32 kSync = 0xAA995566;
inline constexpr u32 kNoop = 0x20000000;
}  // namespace cfg

/// Configuration registers (packet-header address field).
enum class ConfigReg : u32 {
  kCrc = 0x00,
  kFar = 0x01,
  kFdri = 0x02,
  kFdro = 0x03,
  kCmd = 0x04,
  kCtl0 = 0x05,
  kMask = 0x06,
  kStat = 0x07,
  kLout = 0x08,
  kCout = 0x09,
  kMfwr = 0x0A,
  kCbc = 0x0B,
  kIdcode = 0x0C,
  kAxss = 0x0D,
};

/// CMD register command codes.
enum class ConfigCmd : u32 {
  kNull = 0x0,
  kWcfg = 0x1,
  kMfw = 0x2,
  kLfrm = 0x3,
  kRcfg = 0x4,
  kStart = 0x5,
  kRcap = 0x6,
  kRcrc = 0x7,
  kAghigh = 0x8,
  kSwitch = 0x9,
  kGrestore = 0xA,
  kShutdown = 0xB,
  kGcapture = 0xC,
  kDesync = 0xD,
};

/// Packet opcodes.
enum class PacketOp : u32 { kNop = 0, kRead = 1, kWrite = 2 };

/// Build a type-1 packet header: op on `reg`, `count` payload words.
constexpr u32 type1(PacketOp op, ConfigReg reg, u32 count) {
  return (1u << 29) | (static_cast<u32>(op) << 27) |
         ((static_cast<u32>(reg) & 0x3FFFu) << 13) | (count & 0x7FFu);
}

/// Build a type-2 packet header (big payload, register from previous
/// type-1): `count` payload words (27 bits).
constexpr u32 type2(PacketOp op, u32 count) {
  return (2u << 29) | (static_cast<u32>(op) << 27) | (count & 0x7FFFFFFu);
}

/// Decode helpers.
constexpr u32 packet_type(u32 word) { return word >> 29; }
constexpr PacketOp packet_op(u32 word) {
  return static_cast<PacketOp>((word >> 27) & 0x3u);
}
constexpr ConfigReg packet_reg(u32 word) {
  return static_cast<ConfigReg>((word >> 13) & 0x3FFFu);
}
constexpr u32 type1_count(u32 word) { return word & 0x7FFu; }
constexpr u32 type2_count(u32 word) { return word & 0x7FFFFFFu; }

}  // namespace prcost
