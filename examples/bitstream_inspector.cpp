// Generate a partial bitstream for a PRM, optionally write it to disk, and
// disassemble it - showing the Fig. 2 structure (sync header, per-row
// FAR/FDRI bursts, BRAM initialization, CRC/desync trailer) and verifying
// the Eq. (18) size prediction byte-for-byte.
//
// Run: ./bitstream_inspector [prm] [device] [out.bit]
//   prm    : fir | mips | sdram | aes | crc32 | uart (default fir)
//   device : catalog name (default xc5vlx110t)
#include <fstream>
#include <iostream>

#include "bitstream/generator.hpp"
#include "bitstream/parser.hpp"
#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "netlist/generators.hpp"
#include "synth/synthesizer.hpp"
#include "util/strings.hpp"

namespace {

prcost::Netlist make_prm(const std::string& name) {
  using namespace prcost;
  if (name == "fir") return make_fir();
  if (name == "mips") return make_mips5();
  if (name == "sdram") return make_sdram_ctrl();
  if (name == "aes") return make_aes_round();
  if (name == "crc32") return make_crc32();
  if (name == "uart") return make_uart();
  throw ContractError{"unknown PRM '" + name + "'"};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prcost;
  const std::string prm = argc > 1 ? argv[1] : "fir";
  const std::string device_name = argc > 2 ? argv[2] : "xc5vlx110t";
  const Device& device = DeviceDb::instance().get(device_name);
  const Family family = device.fabric.family();

  const SynthesisResult synth =
      synthesize(make_prm(prm), SynthOptions{family});
  const auto plan =
      find_prr(PrmRequirements::from_report(synth.report), device.fabric);
  if (!plan) {
    std::cerr << "no feasible PRR for " << prm << " on " << device.name
              << '\n';
    return 1;
  }

  const auto words = generate_bitstream(*plan, family);
  const auto bytes = to_bytes(words, family);
  std::cout << prm << " on " << device.name << ": model predicts "
            << plan->bitstream.total_bytes << " bytes, generator produced "
            << bytes.size() << " bytes ("
            << (bytes.size() == plan->bitstream.total_bytes ? "exact match"
                                                            : "MISMATCH")
            << ")\n\n";
  std::cout << disassemble(words, family);

  if (argc > 3) {
    std::ofstream out{argv[3], std::ios::binary};
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.flush()) {
      std::cerr << "cannot write " << argv[3] << '\n';
      return 1;
    }
    std::cout << "\nwrote " << bytes.size() << " bytes to " << argv[3]
              << '\n';
  }
  return 0;
}
