// Hardware task relocation end-to-end: configure a PRM into one PRR,
// relocate its live frames to a compatible PRR through the configuration
// memory, and compare the time against reloading from storage (the HTR
// use case of the authors' prior work).
#include <iostream>

#include "bitstream/config_memory.hpp"
#include "bitstream/generator.hpp"
#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "htr/relocation.hpp"
#include "netlist/generators.hpp"
#include "reconfig/controllers.hpp"
#include "synth/synthesizer.hpp"
#include "util/strings.hpp"

int main() {
  using namespace prcost;
  const Device& device = DeviceDb::instance().get("xc5vlx110t");
  const Family family = device.fabric.family();

  // Size a PRR for the SDRAM controller and load it.
  const SynthesisResult synth =
      synthesize(make_sdram_ctrl(), SynthOptions{family});
  const auto plan =
      find_prr(PrmRequirements::from_report(synth.report), device.fabric);
  if (!plan) return 1;
  ConfigMemory cm{device.fabric};
  cm.apply_bitstream(generate_bitstream(*plan, family));
  std::cout << "loaded " << synth.report.module_name << " into PRR at column "
            << plan->window.first_col << ", rows " << plan->first_row << ".."
            << plan->first_row + plan->organization.h - 1 << " ("
            << cm.frames_written() << " frames)\n";

  // Find a compatible, disjoint destination PRR.
  ColumnWindow dst{};
  bool found = false;
  const auto windows = device.fabric.exact_windows(plan->organization.columns);
  for (const ColumnWindow& w : *windows) {
    if (w.first_col >= plan->window.first_col + plan->window.width &&
        windows_compatible(device.fabric, plan->window, w)) {
      dst = w;
      found = true;
      break;
    }
  }
  if (!found) {
    std::cout << "no compatible destination PRR on this device\n";
    return 1;
  }

  const RelocationResult moved =
      relocate_region(cm, plan->window, plan->first_row, dst, plan->first_row,
                      plan->organization.h);
  std::cout << "relocated to column " << dst.first_col << ": "
            << moved.frames_copied << " frames ("
            << format_bytes(static_cast<double>(moved.words_copied) * 4)
            << ")\n";

  const IcapModel icap = default_icap(family);
  const RelocationTime time =
      relocation_time(plan->organization, device.fabric.traits(), icap);
  const DmaIcapController dma{icap};
  std::cout << "relocation time      : " << format_fixed(time.total_s * 1e6, 1)
            << " us (capture " << format_fixed(time.capture_s * 1e9, 0)
            << " ns, readback " << format_fixed(time.readback_s * 1e6, 1)
            << " us, rewrite " << format_fixed(time.rewrite_s * 1e6, 1)
            << " us)\n";
  for (const StorageMedia media :
       {StorageMedia::kCompactFlash, StorageMedia::kDdrSdram}) {
    std::cout << "reload from " << media_model(media).name << " : "
              << format_fixed(
                     dma.estimate(plan->bitstream.total_bytes, media).total_s *
                         1e6,
                     1)
              << " us\n";
  }
  return 0;
}
