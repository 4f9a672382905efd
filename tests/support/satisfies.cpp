#include "tests/support/satisfies.hpp"

namespace prcost {

bool satisfies(const PrrOrganization& org, const PrmRequirements& req,
               const FamilyTraits& t) {
  const PrrAvailability a = availability(org, t);
  return a.clbs >= clb_req(req, t) && a.ffs >= req.ffs && a.dsps >= req.dsps &&
         a.brams >= req.brams;
}

}  // namespace prcost
