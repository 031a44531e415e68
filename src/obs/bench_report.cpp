#include "obs/bench_report.hpp"

#include <sys/resource.h>

#include <filesystem>
#include <fstream>
#include <utility>

#include "support/check.hpp"

namespace csd::obs {

namespace {

/// The process's peak resident set so far, in MiB (Linux reports
/// ru_maxrss in KiB).
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {
  CSD_CHECK_MSG(!name_.empty(), "bench report needs a name");
}

BenchReport& BenchReport::param(const std::string& key, Json value) {
  params_.set(key, std::move(value));
  return *this;
}

BenchReport& BenchReport::seed(std::uint64_t seed) {
  seeds_.push_back(seed);
  return *this;
}

BenchReport::Measurement& BenchReport::measurement(const std::string& name) {
  for (Measurement& m : measurements_)
    if (m.name_ == name) return m;
  measurements_.push_back(Measurement(name));
  return measurements_.back();
}

BenchReport& BenchReport::env(const std::string& key, Json value) {
  env_.set(key, std::move(value));
  return *this;
}

Json BenchReport::to_json() const {
  Json doc = Json::object();
  doc.set("schema", kBenchSchema);
  doc.set("name", name_);
  doc.set("smoke", smoke_);
  doc.set("params", params_);
  Json seeds = Json::array();
  for (const std::uint64_t s : seeds_) seeds.push(s);
  doc.set("seeds", std::move(seeds));
  Json measurements = Json::array();
  for (const Measurement& m : measurements_) {
    Json entry = Json::object();
    entry.set("name", m.name_);
    entry.set("values", m.values_);
    measurements.push(std::move(entry));
  }
  doc.set("measurements", std::move(measurements));
  Json env = env_;
  env.set("git_sha", git_sha());
  if (wall_clock_ms_ >= 0.0) env.set("wall_clock_ms", wall_clock_ms_);
  env.set("peak_rss_mib", peak_rss_mib());
  doc.set("env", std::move(env));
  return doc;
}

std::string BenchReport::to_json_text() const { return to_json().dump(2); }

std::string BenchReport::write_into(const std::string& dir) const {
  std::filesystem::create_directories(dir);
  const std::string path =
      (std::filesystem::path(dir) / ("BENCH_" + name_ + ".json")).string();
  write(path);
  return path;
}

void BenchReport::write(const std::string& path) const {
  std::ofstream out(path);
  CSD_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  out << to_json_text() << '\n';
  CSD_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

const char* BenchReport::git_sha() {
#ifdef CSD_GIT_SHA
  return CSD_GIT_SHA;
#else
  return "unknown";
#endif
}

}  // namespace csd::obs
