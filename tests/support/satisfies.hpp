// Resource-coverage oracle for PRR searches: whatever organization a
// search returns must offer at least the PRM's demand of every resource
// (Eqs. 1 and 8-12), the property the search, floorplanner and explorer
// tests hold each plan to.
#pragma once

#include "cost/prr_model.hpp"

namespace prcost {

/// Does `org` provide at least `req` of every resource?
bool satisfies(const PrrOrganization& org, const PrmRequirements& req,
               const FamilyTraits& t);

}  // namespace prcost
