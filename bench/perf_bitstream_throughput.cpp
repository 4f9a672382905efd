// Bitstream pipeline throughput bench: words/sec with the sliced CRC +
// preallocated generator vs the pre-PR bit-serial path, plus the cached
// hit path.
//
// Builds a --prms-sized workload of distinct built-in PRMs, plans each on
// --device, and generates every plan's partial bitstream three ways:
//
//   bit_serial  - a local replica of the pre-slicing generator (word-at-a-
//                 time push_back + BitSerialConfigCrc), the baseline. It
//                 draws its payload from its own Rng, so it also checks
//                 the generator's memoized payload tape independently;
//   sliced      - generate_bitstream_into with a reused scratch buffer
//                 (one exact reserve, payload bursts copied from the
//                 payload tape, which the verification pass has already
//                 grown, so this row reads a warm tape and draws no
//                 payload words; each burst's CRC is combined from the
//                 tape's checkpoints, the few remaining words go through
//                 the dispatched span kernel);
//   cached      - generate_bitstream_cached steady-state hits.
//
// A fourth section ("hw") times the raw config-CRC kernel itself over a
// large FDRI payload for every available implementation - bit-serial,
// sliced tables, SSE4.2 CRC32 - reporting GB/s and the speedup of the
// hardware path over the sliced baseline.
//
// Timing discipline: every section runs one untimed warmup pass (faults
// in code paths, caches, and the branch predictor) and then reports the
// MINIMUM over --repeats individually-timed passes, which is the standard
// noise-robust estimator for deterministic kernels (the mean smears
// scheduler preemptions into the result).
//
// Built-in verification: all generation paths produce byte-identical
// words per plan, and every CRC implementation agrees with the
// bit-serial oracle on a randomized stream; the process exits 1 when any
// check fails. Reports JSON on stdout and writes it to --out (default
// BENCH_bitstream.json, "-" disables the file) to seed the perf
// trajectory.
//
//   perf_bitstream_throughput [--device xc5vlx110t] [--prms 7]
//                             [--repeats 5] [--out BENCH_bitstream.json]
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bitstream/bitstream_cache.hpp"
#include "bitstream/crc.hpp"
#include "bitstream/generator.hpp"
#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "netlist/generators.hpp"
#include "synth/synthesizer.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace prcost;

/// Replica of the pre-slicing generator: word-at-a-time output growth and
/// the bit-serial CRC fed per payload word. This is the baseline the
/// acceptance criterion measures speedup against.
std::vector<u32> bit_serial_generate(const PrrPlan& plan, Family family,
                                     const GeneratorOptions& options = {}) {
  const FamilyTraits& t = traits(family);
  const PrrOrganization& org = plan.organization;
  const u32 idcode =
      options.idcode != 0 ? options.idcode : default_idcode(family);
  std::vector<u32> out = header_words(family, idcode);

  BitSerialConfigCrc crc;
  crc.update(ConfigReg::kIdcode, idcode);
  crc.update(ConfigReg::kCmd, static_cast<u32>(ConfigCmd::kWcfg));
  crc.update(ConfigReg::kMask, 0);
  if (family == Family::kVirtex6 || family == Family::kSeries7) {
    crc.update(ConfigReg::kCtl0, 0);
  }

  Rng payload{options.payload_seed};
  const auto next_payload_word = [&]() -> u32 {
    switch (options.payload) {
      case PayloadKind::kRandom: return static_cast<u32>(payload());
      case PayloadKind::kZeros: return 0;
      case PayloadKind::kSparse:
        return payload.chance(options.sparse_density)
                   ? static_cast<u32>(payload())
                   : 0u;
    }
    return 0;
  };

  const u64 cfg_frames = checked_mul(org.columns.clb_cols, t.cf_clb) +
                         checked_mul(org.columns.dsp_cols, t.cf_dsp) +
                         checked_mul(org.columns.bram_cols, t.cf_bram) + 1;
  const u64 cfg_words = checked_mul(cfg_frames, t.frame_size);
  const u64 bram_frames =
      org.columns.bram_cols > 0
          ? checked_mul(org.columns.bram_cols, t.df_bram) + 1
          : 0;
  const u64 bram_words = checked_mul(bram_frames, t.frame_size);

  const auto emit_burst = [&](FrameBlock block, u32 row, u64 word_count) {
    out.push_back(cfg::kNoop);
    const FrameAddress far{block, row, plan.window.first_col, 0};
    const u32 far_word = encode_far(far);
    out.push_back(type1(PacketOp::kWrite, ConfigReg::kFar, 1));
    out.push_back(far_word);
    crc.update(ConfigReg::kFar, far_word);
    out.push_back(type1(PacketOp::kWrite, ConfigReg::kFdri, 0));
    out.push_back(type2(PacketOp::kWrite, narrow<u32>(word_count)));
    for (u64 w = 0; w < word_count; ++w) {
      const u32 word = next_payload_word();
      out.push_back(word);
      crc.update(ConfigReg::kFdri, word);
    }
  };
  for (u32 row = 0; row < org.h; ++row) {
    emit_burst(FrameBlock::kInterconnect, plan.first_row + row, cfg_words);
    if (org.columns.bram_cols > 0) {
      emit_burst(FrameBlock::kBramContent, plan.first_row + row, bram_words);
    }
  }

  crc.update(ConfigReg::kCmd, static_cast<u32>(ConfigCmd::kLfrm));
  const std::vector<u32> trailer = trailer_words(family, crc.value());
  out.insert(out.end(), trailer.begin(), trailer.end());
  return out;
}

/// Sliced CRC vs bit-serial oracle on a randomized word/register stream.
bool crc_matches_oracle() {
  Rng rng{0xC4C1u};
  ConfigCrc sliced;
  BitSerialConfigCrc oracle;
  for (int i = 0; i < 5000; ++i) {
    const u32 data = static_cast<u32>(rng());
    const auto reg = static_cast<ConfigReg>(rng() % 32);
    sliced.update(reg, data);
    oracle.update(reg, data);
    if (sliced.value() != oracle.value()) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string device_name = "xc5vlx110t";
  std::size_t prm_count = 7;
  int repeats = 5;
  std::string out_path = "BENCH_bitstream.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--device") {
      device_name = value;
    } else if (flag == "--prms") {
      prm_count = std::stoul(value);
    } else if (flag == "--repeats") {
      repeats = std::stoi(value);
    } else if (flag == "--out") {
      out_path = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }

  const Device& device = DeviceDb::instance().get(device_name);
  const Family family = device.fabric.family();

  // The 7-PRM workload of the acceptance criterion: distinct built-in
  // PRMs, each planned on the device (distinct plans => distinct cache
  // keys).
  const std::vector<Netlist> designs = {
      make_fir(),   make_mips5(), make_sdram_ctrl(), make_aes_round(),
      make_crc32(), make_uart(),  make_matmul(),     make_sobel(),
      make_fft_stage()};
  std::vector<PrrPlan> plans;
  for (std::size_t i = 0; i < designs.size() && plans.size() < prm_count;
       ++i) {
    const SynthesisResult result =
        synthesize(designs[i], SynthOptions{family});
    const auto plan =
        find_prr(PrmRequirements::from_report(result.report), device.fabric);
    if (!plan) continue;  // PRM does not fit this device; skip
    plans.push_back(*plan);
  }
  if (plans.empty()) {
    std::cerr << "error: no PRM fits " << device.name << "\n";
    return 1;
  }

  // ---- built-in verification: all paths byte-identical ------------------
  bool identical = crc_matches_oracle();
  u64 words_per_pass = 0;
  bitstream_cache_clear();
  for (const PrrPlan& plan : plans) {
    const std::vector<u32> baseline = bit_serial_generate(plan, family);
    const std::vector<u32> sliced = generate_bitstream(plan, family);
    const auto cached = generate_bitstream_cached(plan, family);
    identical = identical && baseline == sliced && baseline == *cached;
    words_per_pass += baseline.size();
  }
  const u64 bytes_per_pass =
      words_per_pass * device.fabric.traits().bytes_word;

  // ---- timings ----------------------------------------------------------
  // One untimed warmup pass, then the minimum of `repeats` timed passes.
  const auto per_pass_seconds = [&](const auto& one_pass) {
    one_pass();  // warmup
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats; ++r) {
      Stopwatch watch;
      one_pass();
      best = std::min(best, watch.seconds());
    }
    return best;
  };

  const double bit_serial_s = per_pass_seconds([&] {
    for (const PrrPlan& plan : plans) {
      const std::vector<u32> words = bit_serial_generate(plan, family);
      if (words.empty()) std::abort();  // keep the work observable
    }
  });

  std::vector<u32> scratch;
  const double sliced_s = per_pass_seconds([&] {
    for (const PrrPlan& plan : plans) {
      generate_bitstream_into(scratch, plan, family);
      if (scratch.empty()) std::abort();
    }
  });

  // Cached steady state: the verification pass above already populated the
  // cache, so every lookup here hits.
  const BitstreamCacheStats before = bitstream_cache_stats();
  const double cached_s = per_pass_seconds([&] {
    for (const PrrPlan& plan : plans) {
      if (generate_bitstream_cached(plan, family)->empty()) std::abort();
    }
  });
  const BitstreamCacheStats after = bitstream_cache_stats();
  const u64 hits = after.hits - before.hits;
  const u64 misses = after.misses - before.misses;
  const double hit_rate =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);

  // ---- raw config-CRC kernel throughput (per implementation) ------------
  // A flat 4 MiB FDRI payload fed through config_crc_advance: the pure
  // CRC cost, isolated from packet emission. State is threaded between
  // passes so the compiler cannot hoist the work.
  const std::size_t crc_words = 1u << 20;
  std::vector<u32> crc_payload(crc_words);
  Rng crc_payload_rng{0x37C3u};
  for (u32& word : crc_payload) word = static_cast<u32>(crc_payload_rng());
  const std::span<const u32> crc_span{crc_payload};
  const double crc_gb =
      static_cast<double>(crc_words * sizeof(u32)) / 1e9;

  struct CrcTiming {
    CrcImpl impl;
    const char* key;
    double seconds = 0;
    u32 crc = 0;
  };
  std::vector<CrcTiming> crc_timings;
  for (const auto& [impl, key] :
       {std::pair{CrcImpl::kBitSerial, "bit_serial"},
        std::pair{CrcImpl::kSliced, "sliced"},
        std::pair{CrcImpl::kHwCrc32, "hw_crc32"}}) {
    if (!crc_impl_available(impl)) continue;
    CrcTiming timing{impl, key};
    timing.crc = config_crc_advance(impl, 0, ConfigReg::kFdri, crc_span);
    u32 state = timing.crc;  // thread state so passes stay observable
    timing.seconds = per_pass_seconds([&] {
      state = config_crc_advance(impl, state, ConfigReg::kFdri, crc_span);
    });
    if (state == 0xA5A5A5A5u) std::abort();  // keep `state` live
    crc_timings.push_back(timing);
  }
  double crc_sliced_s = 0;
  for (const CrcTiming& timing : crc_timings) {
    if (timing.impl == CrcImpl::kSliced) crc_sliced_s = timing.seconds;
    identical = identical && timing.crc == crc_timings.front().crc;
  }

  const double words = static_cast<double>(words_per_pass);
  const double mb = static_cast<double>(bytes_per_pass) / 1e6;
  std::ostringstream json;
  json.precision(6);
  json << "{\n"
       << "  \"device\": \"" << device.name << "\",\n"
       << "  \"prms\": " << plans.size() << ",\n"
       << "  \"repeats\": " << repeats << ",\n"
       << "  \"words_per_pass\": " << words_per_pass << ",\n"
       << "  \"bytes_per_pass\": " << bytes_per_pass << ",\n"
       << "  \"bit_serial\": {\"seconds_per_pass\": " << bit_serial_s
       << ", \"words_per_sec\": " << words / bit_serial_s
       << ", \"mb_per_sec\": " << mb / bit_serial_s << "},\n"
       << "  \"sliced\": {\"seconds_per_pass\": " << sliced_s
       << ", \"words_per_sec\": " << words / sliced_s
       << ", \"mb_per_sec\": " << mb / sliced_s
       << ", \"speedup_vs_bit_serial\": " << bit_serial_s / sliced_s
       << "},\n"
       << "  \"cached\": {\"seconds_per_pass\": " << cached_s
       << ", \"words_per_sec\": " << words / cached_s
       << ", \"mb_per_sec\": " << mb / cached_s
       << ", \"hit_rate\": " << hit_rate
       << ", \"speedup_vs_bit_serial\": " << bit_serial_s / cached_s
       << "},\n"
       << "  \"hw\": {\n"
       << "    \"crc_bytes\": " << crc_words * sizeof(u32) << ",\n"
       << "    \"active\": \"" << crc_impl_name(active_crc_impl()) << "\"";
  for (const CrcTiming& timing : crc_timings) {
    json << ",\n    \"" << timing.key
         << "\": {\"seconds_per_pass\": " << timing.seconds
         << ", \"gb_per_sec\": " << crc_gb / timing.seconds;
    if (timing.impl != CrcImpl::kSliced && crc_sliced_s > 0) {
      json << ", \"speedup_vs_sliced\": " << crc_sliced_s / timing.seconds;
    }
    json << "}";
  }
  json << "\n  },\n"
       << "  \"identical\": " << (identical ? "true" : "false") << "\n"
       << "}\n";

  std::cout << json.str();
  if (out_path != "-") {
    std::ofstream out{out_path};
    if (!out) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 1;
    }
    out << json.str();
  }
  if (!identical) {
    std::cerr << "error: generation paths diverged (byte-identity check)\n";
    return 1;
  }
  return 0;
}
