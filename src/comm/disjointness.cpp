#include "comm/disjointness.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace csd::comm {

bool DisjointnessInstance::intersects() const {
  return !intersection().empty();
}

std::vector<std::uint64_t> DisjointnessInstance::intersection() const {
  std::vector<std::uint64_t> out;
  std::set_intersection(x.begin(), x.end(), y.begin(), y.end(),
                        std::back_inserter(out));
  return out;
}

DisjointnessInstance random_disjointness(std::uint64_t universe,
                                         double density,
                                         bool force_intersecting, Rng& rng) {
  CSD_CHECK(universe > 0);
  DisjointnessInstance inst;
  inst.universe = universe;
  for (std::uint64_t e = 0; e < universe; ++e) {
    if (rng.uniform() < density) inst.x.push_back(e);
    if (rng.uniform() < density) inst.y.push_back(e);
  }
  if (force_intersecting) {
    const std::uint64_t common = rng.below(universe);
    if (!std::binary_search(inst.x.begin(), inst.x.end(), common)) {
      inst.x.push_back(common);
      std::sort(inst.x.begin(), inst.x.end());
    }
    if (!std::binary_search(inst.y.begin(), inst.y.end(), common)) {
      inst.y.push_back(common);
      std::sort(inst.y.begin(), inst.y.end());
    }
  } else {
    // Strip the intersection out of Y so the instance is disjoint.
    const auto common = inst.intersection();
    std::vector<std::uint64_t> kept;
    std::set_difference(inst.y.begin(), inst.y.end(), common.begin(),
                        common.end(), std::back_inserter(kept));
    inst.y = std::move(kept);
  }
  CSD_CHECK(inst.intersects() == force_intersecting);
  return inst;
}

}  // namespace csd::comm
