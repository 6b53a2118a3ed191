// Small helpers shared by the generator and the result printer:
// percentiles, Prometheus-text scrape parsing, and metric tables.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace wirebench {

// Nearest-rank percentile of an unsorted sample (q in [0, 1]); 0 when
// empty.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

// One {METRICS prom} scrape: plain samples (counters, gauges, histogram
// _sum/_count) and cumulative histogram buckets, keyed by exposed name.
struct Scrape {
  std::map<std::string, double> samples;
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;
};
Scrape parse_prometheus(const std::string& text);

// Histogram delta between two scrapes, merged over every histogram whose
// exposed name satisfies `match`. Percentiles resolve to the bucket's
// upper bound (the program's histograms are log2-bucketed).
struct HistogramDelta {
  double count = 0;
  double sum = 0;
  double p99 = 0;
  double mean() const { return count > 0 ? sum / count : 0; }
};
HistogramDelta histogram_delta(const Scrape& before, const Scrape& after,
                               bool (*match)(const std::string& name));
double sample_delta(const Scrape& before, const Scrape& after,
                    const std::string& name);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// The benchmark's result line: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}.
std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics);

// Facts about the machine and checkout a result depends on.
std::string cpu_model();
std::string filesystem_type(const std::string& path);

}  // namespace wirebench
