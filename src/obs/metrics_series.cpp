#include "obs/metrics_series.hpp"

#include <istream>

#include "obs/json.hpp"
#include "support/check.hpp"

namespace csd::obs {

std::uint64_t MetricsSample::counter(const std::string& name) const {
  for (const auto& [key, value] : counters)
    if (key == name) return value;
  return 0;
}

std::uint64_t MetricsSeries::span_ms() const {
  if (samples.size() < 2) return 0;
  return samples.back().epoch_ms - samples.front().epoch_ms;
}

MetricsSeries parse_metrics_series(std::istream& is) {
  MetricsSeries series;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const Json doc = Json::parse(line);
    CSD_CHECK_MSG(doc.at("schema").as_string() == "csd-metrics-v2",
                  "metric series line " << line_no << ": unexpected schema '"
                                        << doc.at("schema").as_string()
                                        << "'");
    MetricsSample sample;
    sample.sample = doc.at("sample").as_uint();
    sample.epoch_ms = doc.at("epoch_ms").as_uint();
    sample.events_recorded = doc.at("events_recorded").as_uint();
    for (const auto& [name, value] : doc.at("counters").members())
      sample.counters.emplace_back(name, value.as_uint());
    for (const auto& [name, value] : doc.at("gauges").members())
      sample.gauges.emplace_back(
          name, std::make_pair(value.at("value").as_uint(),
                               value.at("high_water").as_uint()));
    for (const auto& [name, value] : doc.at("histograms").members()) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
      for (const Json& pair : value.items()) {
        CSD_CHECK_MSG(pair.items().size() == 2,
                      "metric series line " << line_no
                                            << ": malformed histogram pair");
        buckets.emplace_back(pair.items()[0].as_uint(),
                             pair.items()[1].as_uint());
      }
      sample.histograms.emplace_back(name, std::move(buckets));
    }
    series.samples.push_back(std::move(sample));
  }
  return series;
}

}  // namespace csd::obs
