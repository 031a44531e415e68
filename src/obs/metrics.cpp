#include "obs/metrics.hpp"

namespace csd::obs {

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  for (auto& [key, value] : entries_) {
    if (key == name) {
      value += delta;
      return;
    }
  }
  entries_.emplace_back(std::string(name), delta);
}

std::uint64_t MetricsRegistry::value(std::string_view name) const noexcept {
  for (const auto& [key, value] : entries_)
    if (key == name) return value;
  return 0;
}

std::string worker_counter_name(std::string_view base, std::uint32_t worker) {
  std::string name(base);
  name += "_w";
  name += std::to_string(worker);
  return name;
}

}  // namespace csd::obs
