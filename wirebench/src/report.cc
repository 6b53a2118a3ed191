#include "report.h"

#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/strings.h"

namespace wirebench {

using harmony::str_format;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Scrape parse_prometheus(const std::string& text) {
  Scrape scrape;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    double value = 0;
    if (!harmony::parse_double(line.substr(space + 1), &value)) continue;
    const std::string key = line.substr(0, space);
    const size_t brace = key.find("_bucket{le=\"");
    if (brace == std::string::npos) {
      scrape.samples[key] = value;
      continue;
    }
    const std::string name = key.substr(0, brace);
    const size_t start = brace + 12;
    const std::string le = key.substr(start, key.find('"', start) - start);
    double bound = 0;
    if (le == "+Inf") {
      bound = INFINITY;
    } else if (!harmony::parse_double(le, &bound)) {
      continue;
    }
    scrape.buckets[name].emplace_back(bound, value);
  }
  return scrape;
}

double sample_delta(const Scrape& before, const Scrape& after,
                    const std::string& name) {
  auto b = before.samples.find(name);
  auto a = after.samples.find(name);
  const double bv = b == before.samples.end() ? 0 : b->second;
  const double av = a == after.samples.end() ? 0 : a->second;
  return av - bv;
}

HistogramDelta histogram_delta(const Scrape& before, const Scrape& after,
                               bool (*match)(const std::string& name)) {
  HistogramDelta delta;
  // Per-bucket (non-cumulative) counts by upper bound, merged.
  std::map<double, double> merged;
  for (const auto& [name, buckets] : after.buckets) {
    if (!match(name)) continue;
    std::map<double, double> prior;
    auto it = before.buckets.find(name);
    if (it != before.buckets.end()) {
      for (const auto& [bound, cumulative] : it->second) {
        prior[bound] = cumulative;
      }
    }
    double last_after = 0;
    double last_before = 0;
    for (const auto& [bound, cumulative] : buckets) {
      // Buckets absent before the first scrape held nothing yet; empty
      // buckets are skipped by the exposition, so carry the cumulative
      // count forward.
      auto p = prior.upper_bound(bound);
      const double before_cum =
          p == prior.begin() ? 0 : std::prev(p)->second;
      const double in_bucket =
          (cumulative - last_after) - (before_cum - last_before);
      if (in_bucket > 0) merged[bound] += in_bucket;
      last_after = cumulative;
      last_before = before_cum;
    }
    delta.count += sample_delta(before, after, name + "_count");
    delta.sum += sample_delta(before, after, name + "_sum");
  }
  double total = 0;
  for (const auto& [bound, count] : merged) total += count;
  auto quantile = [&](double q) {
    double seen = 0;
    const double target = std::ceil(q * total);
    for (const auto& [bound, count] : merged) {
      seen += count;
      if (seen >= target) return std::isinf(bound) ? 0.0 : bound;
    }
    return 0.0;
  };
  if (total > 0) delta.p99 = quantile(0.99);
  return delta;
}

std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = str_format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    out += str_format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                      metrics[i].unit.c_str());
  }
  out += "}}";
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(harmony::trim(line.substr(colon + 1)));
      }
    }
  }
  return "unknown";
}

std::string filesystem_type(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    case 0x65735546: return "fuse";
    case 0x6969: return "nfs";
    default: return str_format("0x%lx", static_cast<unsigned long>(fs.f_type));
  }
}

}  // namespace wirebench
