#include "obs/metrics_series.hpp"

#include <istream>
#include <string>

#include "obs/codec.hpp"
#include "support/check.hpp"

namespace csd::obs {

MetricsSeries parse_metrics_series(std::istream& is) {
  MetricsSeries series;
  std::string text;
  for (std::uint64_t line_no = 1; std::getline(is, text); ++line_no) {
    if (text.empty()) continue;
    try {
      series.push_back(
          decode<MetricsSample>(Json::parse(text), metrics_sample_fields));
      CSD_CHECK_MSG(series.back().sample == series.size() - 1,
                    "key 'sample' is " << series.back().sample
                                       << ", expected " << series.size() - 1);
    } catch (const CheckFailure& failure) {
      throw CheckFailure("metric series line " + std::to_string(line_no) +
                         ": " + failure.what());
    }
  }
  return series;
}

}  // namespace csd::obs
