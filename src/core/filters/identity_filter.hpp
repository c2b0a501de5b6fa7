// Pass-through filter: raw samples go straight to Vivaldi ("No Filter" in
// the paper's comparisons). A standalone owner of one row over
// IdentityKernel (core/filter.hpp).
#pragma once

#include "core/filter.hpp"

namespace nc {

class IdentityFilter final : public LatencyFilter {
 public:
  IdentityFilter() : LatencyFilter(FilterConfig::none()) {}
};

}  // namespace nc
