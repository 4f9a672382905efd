#include "tests/support/lint.hpp"

#include "bitstream/words.hpp"

namespace prcost {

std::vector<LintIssue> lint_bitstream(std::span<const u32> words,
                                      Family family) {
  const FamilyTraits& t = traits(family);
  std::vector<LintIssue> issues;
  const auto report = [&](const char* rule, u64 offset,
                          const std::string& message) {
    issues.push_back(LintIssue{rule, offset, message});
  };

  bool synced = false;
  bool rcrc_seen = false;
  bool wcfg_seen = false;
  bool far_since_fdri = false;
  bool crc_written = false;
  bool desynced = false;
  u64 fdri_after_crc = 0;
  u64 sync_count = 0;

  std::size_t pos = 0;
  while (pos < words.size()) {
    const u64 offset = pos;
    const u32 word = words[pos++];

    if (!synced) {
      if (word == cfg::kSync) {
        synced = true;
        ++sync_count;
        continue;
      }
      if (word != cfg::kDummy && word != cfg::kBusWidthSync &&
          word != cfg::kBusWidthDetect) {
        report("R1", offset, "non-preamble word before SYNC");
      }
      continue;
    }
    if (word == cfg::kSync) {
      ++sync_count;
      report("R2", offset, "duplicate SYNC word");
      continue;
    }
    if (word == cfg::kNoop || word == cfg::kDummy) {
      continue;
    }
    if (desynced) {
      report("R8", offset, "packet after DESYNC");
      continue;
    }
    if (packet_type(word) != 1) {
      report("R8", offset, "stray non-type-1 packet at top level");
      continue;
    }
    const ConfigReg reg = packet_reg(word);
    const PacketOp op = packet_op(word);
    u32 count = type1_count(word);
    if (op == PacketOp::kNop) continue;

    if (reg == ConfigReg::kFdri) {
      if (count == 0) {
        if (pos >= words.size() || packet_type(words[pos]) != 2) {
          report("R6", offset, "FDRI type-1 with no type-2 payload");
          continue;
        }
        count = type2_count(words[pos++]);
      }
      if (!wcfg_seen) report("R4", offset, "FDRI before WCFG");
      if (!far_since_fdri) report("R5", offset, "FDRI without preceding FAR");
      if (count == 0 || count % t.frame_size != 0) {
        report("R6", offset, "FDRI payload not frame-aligned");
      }
      if (crc_written) ++fdri_after_crc;
      far_since_fdri = false;
      pos += count;  // skip frame data
      continue;
    }

    for (u32 i = 0; i < count && pos < words.size(); ++i) {
      const u32 value = words[pos++];
      switch (reg) {
        case ConfigReg::kCmd: {
          const auto cmd = static_cast<ConfigCmd>(value);
          if (cmd == ConfigCmd::kRcrc) rcrc_seen = true;
          if (cmd == ConfigCmd::kWcfg) wcfg_seen = true;
          if (cmd == ConfigCmd::kDesync) desynced = true;
          break;
        }
        case ConfigReg::kFar:
          far_since_fdri = true;
          break;
        case ConfigReg::kCrc:
          if (crc_written) {
            report("R7", offset, "CRC register written more than once");
          }
          if (!rcrc_seen) report("R3", offset, "CRC check without RCRC");
          crc_written = true;
          break;
        case ConfigReg::kIdcode:
          if (!rcrc_seen) {
            report("R3", offset, "register write before RCRC");
          }
          break;
        default:
          break;
      }
    }
  }

  if (sync_count == 0) report("R2", 0, "no SYNC word");
  if (!crc_written) report("R7", words.size(), "CRC register never written");
  if (fdri_after_crc > 0) {
    report("R7", words.size(), "FDRI data after the CRC check");
  }
  if (!desynced) report("R8", words.size(), "stream never desyncs");
  return issues;
}

}  // namespace prcost
