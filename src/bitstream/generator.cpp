#include "bitstream/generator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <mutex>
#include <span>

#include "bitstream/crc.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace prcost {
namespace {

void append_cmd(std::vector<u32>& out, ConfigCmd cmd) {
  out.push_back(type1(PacketOp::kWrite, ConfigReg::kCmd, 1));
  out.push_back(static_cast<u32>(cmd));
}

void append_reg(std::vector<u32>& out, ConfigReg reg, u32 value) {
  out.push_back(type1(PacketOp::kWrite, reg, 1));
  out.push_back(value);
}

/// Append the header and return the CRC mirror of its post-RCRC register
/// writes, in stream order, so the parser's recomputation lands on the
/// same check value.
ConfigCrc begin_stream(std::vector<u32>& out, Family family, u32 idcode) {
  append_header_words(out, family, idcode);
  ConfigCrc crc;
  crc.update(ConfigReg::kIdcode, idcode);
  crc.update(ConfigReg::kCmd, static_cast<u32>(ConfigCmd::kWcfg));
  crc.update(ConfigReg::kMask, 0);
  if (family == Family::kVirtex6 || family == Family::kSeries7) {
    crc.update(ConfigReg::kCtl0, 0);
  }
  return crc;
}

/// The LFRM command is written before the CRC register, so it is part of
/// the checked prefix; then the trailer carries the final value.
void end_stream(std::vector<u32>& out, Family family, ConfigCrc& crc) {
  crc.update(ConfigReg::kCmd, static_cast<u32>(ConfigCmd::kLfrm));
  append_trailer_words(out, family, crc.value());
}

/// Fill one FDRI payload span in bulk. Consumes the payload RNG in exactly
/// the order the original per-word generator did (chance() then the value
/// draw under kSparse), so streams stay byte-identical.
void fill_payload(std::span<u32> dst, Rng& payload,
                  const GeneratorOptions& options) {
  switch (options.payload) {
    case PayloadKind::kRandom:
      for (u32& word : dst) word = static_cast<u32>(payload());
      return;
    case PayloadKind::kZeros:
      return;  // the resize() that produced `dst` already zero-filled it
    case PayloadKind::kSparse:
      for (u32& word : dst) {
        word = payload.chance(options.sparse_density)
                   ? static_cast<u32>(payload())
                   : 0u;
      }
      return;
  }
}

/// Option sets whose payload sequence is memoized; streams of further
/// option sets draw their own words.
constexpr std::size_t kMaxPayloadTapes = 8;

/// A drawn prefix of one option set's payload sequence, immutable once
/// published: the words and their FDRI CRC checkpoints, grown together.
struct TapeWords {
  std::vector<u32> words;
  CrcCheckpoints crc;
};

/// The payload word sequence of one option set, drawn so far.
struct PayloadTape {
  PayloadKind kind;
  u64 seed;
  u64 density_bits;  ///< sparse_density's bits under kSparse, else 0
  Rng rng;           ///< state after the last word of `drawn->words`
  std::shared_ptr<const TapeWords> drawn;
};

/// A snapshot of at least `words` payload words for `options`, or null
/// when every tape slot holds another option set.
///
/// Every stream draws its FDRI words from a fresh Rng{payload_seed} in
/// stream order, so the payload of every stream with the same options is
/// a prefix of one fixed sequence. The tape memoizes that sequence and its
/// CRC checkpoints. It grows only when a stream needs more words than it
/// holds, to exactly that length, continuing from the saved Rng state and
/// the last checkpoint; a grown tape is a new immutable snapshot, so
/// readers slice it without the lock.
std::shared_ptr<const TapeWords> payload_tape(const GeneratorOptions& options,
                                              std::size_t words) {
  static std::mutex mu;
  static std::vector<PayloadTape> tapes;
  const u64 density_bits = options.payload == PayloadKind::kSparse
                               ? std::bit_cast<u64>(options.sparse_density)
                               : 0;
  const std::lock_guard lock{mu};
  auto tape = std::find_if(tapes.begin(), tapes.end(), [&](const auto& t) {
    return t.kind == options.payload && t.seed == options.payload_seed &&
           t.density_bits == density_bits;
  });
  if (tape == tapes.end()) {
    if (tapes.size() == kMaxPayloadTapes) return nullptr;
    tape = tapes.insert(
        tapes.end(),
        PayloadTape{options.payload, options.payload_seed, density_bits,
                    Rng{options.payload_seed},
                    std::make_shared<const TapeWords>()});
  }
  const TapeWords& held = *tape->drawn;
  if (held.words.size() < words) {
    auto grown = std::make_shared<TapeWords>(
        TapeWords{std::vector<u32>(words), held.crc});
    std::copy(held.words.begin(), held.words.end(), grown->words.begin());
    fill_payload(std::span<u32>{grown->words}.subspan(held.words.size()),
                 tape->rng, options);
    grown->crc.extend(grown->words);
    tape->drawn = std::move(grown);
  }
  return tape->drawn;
}

/// The FDRI words of one stream, in order: slices of its option set's
/// payload tape, or - for kZeros, and when no tape slot is free - drawn
/// in place as the tape would have drawn them.
class PayloadSource {
 public:
  PayloadSource(const GeneratorOptions& options, u64 payload_words)
      : options_{options}, rng_{options.payload_seed} {
    if (options.payload != PayloadKind::kZeros) {
      tape_ = payload_tape(options, static_cast<std::size_t>(payload_words));
    }
  }

  /// Append the next `count` payload words to `out` and absorb them into
  /// `crc` as FDRI writes. A tape slice [a, b) is absorbed from the
  /// tape's prefix states P_a (the previous slice's P_b) and P_b; drawn
  /// words go through the span kernel.
  void append(std::vector<u32>& out, ConfigCrc& crc, std::size_t count) {
    if (tape_) {
      const std::vector<u32>& words = tape_->words;
      if (count > words.size() - next_) {
        throw ContractError{"generate_bitstream: payload past its tape"};
      }
      const auto first = words.begin() + static_cast<std::ptrdiff_t>(next_);
      out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(count));
      next_ += count;
      const u32 prefix_end = tape_->crc.prefix(words, next_);
      crc.absorb_slice(prefix_, prefix_end, shift(count));
      prefix_ = prefix_end;
      return;
    }
    const std::size_t at = out.size();
    out.resize(at + count);
    fill_payload(std::span<u32>{out}.subspan(at), rng_, options_);
    crc.update_span(ConfigReg::kFdri, std::span<const u32>{out}.subspan(at));
  }

 private:
  /// The shift for a slice of `count` words. A row has at most two burst
  /// lengths (configuration and BRAM), so two slots hold every length of
  /// a rectangular stream and of each band of a shaped one.
  const CrcShift& shift(std::size_t count) {
    for (const CrcShift& s : shifts_) {
      if (s.writes() == count) return s;
    }
    CrcShift& slot = shifts_[next_slot_];
    next_slot_ = (next_slot_ + 1) % shifts_.size();
    slot = CrcShift{count};
    return slot;
  }

  const GeneratorOptions& options_;
  Rng rng_;
  std::shared_ptr<const TapeWords> tape_;
  std::size_t next_ = 0;
  u32 prefix_ = 0;  ///< P_next_ of the tape
  std::array<CrcShift, 2> shifts_{};
  std::size_t next_slot_ = 0;
};

void emit_burst(std::vector<u32>& out, ConfigCrc& crc, PayloadSource& payload,
                FrameBlock block, u32 row, u32 first_col, u64 word_count) {
  // FAR_FDRI = 5 words: NOOP, FAR write (2), FDRI type-1 header with
  // zero count, type-2 header carrying the real count.
  out.push_back(cfg::kNoop);
  const u32 far = encode_far(FrameAddress{block, row, first_col, 0});
  append_reg(out, ConfigReg::kFar, far);
  crc.update(ConfigReg::kFar, far);
  out.push_back(type1(PacketOp::kWrite, ConfigReg::kFdri, 0));
  out.push_back(type2(PacketOp::kWrite, narrow<u32>(word_count)));
  payload.append(out, crc, static_cast<std::size_t>(word_count));
}

/// Payload words of one fabric row's bursts.
struct RowWords {
  u64 cfg = 0;   ///< configuration frames, flush frame included
  u64 bram = 0;  ///< BRAM initialization frames; 0 without BRAM columns
  u64 total() const { return cfg + bram; }
};

RowWords row_words(const StreamBand& band, const FamilyTraits& t) {
  return RowWords{checked_mul(band.config_frames, t.frame_size),
                  checked_mul(band.bram_frames, t.frame_size)};
}

/// One fabric row: the configuration burst, then the BRAM burst if any.
void emit_row(std::vector<u32>& out, ConfigCrc& crc, PayloadSource& payload,
              const RowWords& words, u32 row, u32 first_col) {
  emit_burst(out, crc, payload, FrameBlock::kInterconnect, row, first_col,
             words.cfg);
  if (words.bram > 0) {
    emit_burst(out, crc, payload, FrameBlock::kBramContent, row, first_col,
               words.bram);
  }
}

}  // namespace

u32 default_idcode(Family family) {
  switch (family) {
    case Family::kVirtex4: return 0x0167C093;  // XC4VLX60-like
    case Family::kVirtex5: return 0x02AD6093;  // XC5VLX110T-like
    case Family::kVirtex6: return 0x04244093;  // XC6VLX75T-like
    case Family::kSeries7: return 0x03651093;  // XC7K325T-like
    case Family::kSpartan6: return 0x04004093;  // XC6SLX45-like
  }
  throw ContractError{"default_idcode: unknown family"};
}

void append_header_words(std::vector<u32>& out, Family family, u32 idcode) {
  if (family == Family::kSeries7) {
    out.push_back(cfg::kDummy);
    out.push_back(cfg::kDummy);
  }
  out.insert(out.end(), 4, cfg::kDummy);
  out.push_back(cfg::kBusWidthSync);
  out.push_back(cfg::kBusWidthDetect);
  out.insert(out.end(), 2, cfg::kDummy);
  out.push_back(cfg::kSync);
  out.push_back(cfg::kNoop);
  append_cmd(out, ConfigCmd::kRcrc);
  out.push_back(cfg::kNoop);
  const bool short_format =
      family == Family::kVirtex4 || family == Family::kSpartan6;
  if (!short_format) out.push_back(cfg::kNoop);
  append_reg(out, ConfigReg::kIdcode, idcode);
  append_cmd(out, ConfigCmd::kWcfg);
  out.push_back(cfg::kNoop);
  append_reg(out, ConfigReg::kMask, 0);
  if (family == Family::kVirtex6 || family == Family::kSeries7) {
    append_reg(out, ConfigReg::kCtl0, 0);
    out.push_back(cfg::kNoop);
  }
}

std::vector<u32> header_words(Family family, u32 idcode) {
  std::vector<u32> out;
  out.reserve(traits(family).iw);
  append_header_words(out, family, idcode);
  return out;
}

void append_trailer_words(std::vector<u32>& out, Family family,
                          u32 crc_value) {
  append_cmd(out, ConfigCmd::kLfrm);
  const bool short_format =
      family == Family::kVirtex4 || family == Family::kSpartan6;
  out.insert(out.end(), short_format ? 2 : 3, cfg::kNoop);
  out.push_back(type1(PacketOp::kWrite, ConfigReg::kCrc, 1));
  out.push_back(crc_value);
  append_cmd(out, ConfigCmd::kDesync);
  const u32 pad_noops =
      (family == Family::kVirtex6 || family == Family::kSeries7) ? 5 : 4;
  out.insert(out.end(), pad_noops, cfg::kNoop);
  out.push_back(cfg::kDummy);
  out.push_back(cfg::kDummy);
}

std::vector<u32> trailer_words(Family family, u32 crc_value) {
  std::vector<u32> out;
  out.reserve(traits(family).fw);
  append_trailer_words(out, family, crc_value);
  return out;
}

void generate_stream_into(std::vector<u32>& out,
                          std::span<const StreamBand> bands, Family family,
                          const GeneratorOptions& options) {
  const FamilyTraits& t = traits(family);
  // The bands give the exact word count, so the output is sized once up
  // front and never reallocates.
  u64 payload_words = 0;
  u64 total_words = t.iw + t.fw;
  for (const StreamBand& band : bands) {
    const RowWords words = row_words(band, t);
    const u64 bursts = words.bram > 0 ? 2 : 1;
    payload_words = checked_add(payload_words,
                                checked_mul(band.rows, words.total()));
    total_words = checked_add(
        total_words,
        checked_mul(band.rows, bursts * t.far_fdri + words.total()));
  }
  out.clear();
  out.reserve(static_cast<std::size_t>(total_words));

  const u32 idcode =
      options.idcode != 0 ? options.idcode : default_idcode(family);
  ConfigCrc crc = begin_stream(out, family, idcode);
  if (out.size() != t.iw) {
    throw ContractError{"generate_bitstream: header/IW mismatch"};
  }
  PayloadSource payload{options, payload_words};
  for (const StreamBand& band : bands) {
    const RowWords words = row_words(band, t);
    for (u32 row = 0; row < band.rows; ++row) {
      emit_row(out, crc, payload, words, band.first_row + row,
               band.first_col);
    }
  }
  end_stream(out, family, crc);
  PRCOST_COUNT("bitstream.generated");
  PRCOST_COUNT_N("bitstream.words_emitted", out.size());
}

void generate_bitstream_into(std::vector<u32>& out, const PrrPlan& plan,
                             Family family, const GeneratorOptions& options) {
  PRCOST_TRACE_SPAN("bitstream_gen");
  const FamilyTraits& t = traits(family);
  const PrrOrganization& org = plan.organization;
  if (org.h == 0 || org.width() == 0) {
    throw ContractError{"generate_bitstream: empty PRR plan"};
  }
  // A row's configuration burst is (NCF_CLB + NCF_DSP + NCF_BRAM + 1)
  // frames - Eq. (19)'s data component; its BRAM burst, when the window
  // holds BRAM columns, is DF_BRAM frames per column plus one.
  const ColumnDemand& columns = org.columns;
  const StreamBand band{
      plan.first_row, org.h, plan.window.first_col,
      checked_mul(columns.clb_cols, t.cf_clb) +
          checked_mul(columns.dsp_cols, t.cf_dsp) +
          checked_mul(columns.bram_cols, t.cf_bram) + 1,
      columns.bram_cols > 0 ? checked_mul(columns.bram_cols, t.df_bram) + 1
                            : 0};
  generate_stream_into(out, std::span{&band, 1}, family, options);
  // Eq. (18) predicts the exact word count.
  if (out.size() != estimate_bitstream(org, t).total_words) {
    throw ContractError{"generate_bitstream: Eq. (18) size mismatch"};
  }
}

std::vector<u32> generate_bitstream(const PrrPlan& plan, Family family,
                                    const GeneratorOptions& options) {
  std::vector<u32> out;
  generate_bitstream_into(out, plan, family, options);
  return out;
}

std::vector<std::uint8_t> to_bytes(const std::vector<u32>& words,
                                   Family family) {
  const FamilyTraits& t = traits(family);
  std::vector<std::uint8_t> bytes;
  bytes.reserve(words.size() * t.bytes_word);
  for (const u32 word : words) {
    for (u32 b = 0; b < t.bytes_word; ++b) {
      const u32 shift = 8 * (t.bytes_word - 1 - b);
      bytes.push_back(static_cast<std::uint8_t>((word >> shift) & 0xFFu));
    }
  }
  return bytes;
}

}  // namespace prcost
