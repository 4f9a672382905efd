#include "reconfig/icap.hpp"

#include "util/error.hpp"

namespace prcost {

IcapModel default_icap(Family family) {
  switch (family) {
    case Family::kVirtex4: return IcapModel{4, 100.0e6};
    case Family::kVirtex5: return IcapModel{4, 100.0e6};
    case Family::kVirtex6: return IcapModel{4, 100.0e6};
    case Family::kSeries7: return IcapModel{4, 100.0e6};
    case Family::kSpartan6: return IcapModel{2, 100.0e6};  // 16-bit ICAP
  }
  throw ContractError{"default_icap: unknown family"};
}

double icap_write_seconds(const IcapModel& icap, u64 bytes,
                          double busy_factor) {
  if (busy_factor < 0.0 || busy_factor >= 1.0) {
    throw ContractError{"icap_write_seconds: busy factor must be in [0,1)"};
  }
  const double effective = icap.peak_bytes_per_s() * (1.0 - busy_factor);
  return static_cast<double>(bytes) / effective;
}

}  // namespace prcost
