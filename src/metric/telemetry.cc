#include "metric/telemetry.h"

#include <chrono>
#include <cstdlib>

#include "common/strings.h"

namespace harmony::metric {

namespace detail {
std::atomic<bool> g_telemetry_enabled{true};
std::atomic<uint32_t> g_next_thread_slot{0};
}  // namespace detail

void set_telemetry_enabled(bool on) {
  detail::g_telemetry_enabled.store(on, std::memory_order_relaxed);
}

uint64_t telemetry_now_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                            start)
          .count());
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

uint64_t Histogram::percentile(double q) const {
  uint64_t counts[kBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank >= total) rank = total - 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen > rank) return bucket_upper_bound(i);
  }
  return bucket_upper_bound(kBuckets - 1);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

TraceBuffer& TraceBuffer::instance() {
  static TraceBuffer* buffer = new TraceBuffer();  // intentionally leaked
  return *buffer;
}

void TraceBuffer::record(const char* name, uint64_t ts_us, uint64_t dur_us) {
  TraceSpan span{name, ts_us, dur_us, detail::thread_slot()};
  std::lock_guard<std::mutex> lock(mutex_);
  ++total_recorded_;
  if (ring_.size() < kCapacity) {
    ring_.push_back(span);
  } else {
    ring_[next_] = span;
    next_ = (next_ + 1) % kCapacity;
  }
}

std::vector<TraceSpan> TraceBuffer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceSpan> out;
  out.reserve(ring_.size());
  // Oldest-first: [next_, end) then [0, next_).
  for (size_t i = next_; i < ring_.size(); ++i) out.push_back(ring_[i]);
  for (size_t i = 0; i < next_; ++i) out.push_back(ring_[i]);
  return out;
}

std::string TraceBuffer::render_chrome_json() const {
  std::vector<TraceSpan> spans = snapshot();
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out += ',';
    out += str_format(
        "{\"name\":\"%s\",\"cat\":\"harmony\",\"ph\":\"X\",\"ts\":%llu,"
        "\"dur\":%llu,\"pid\":1,\"tid\":%u}",
        spans[i].name, static_cast<unsigned long long>(spans[i].ts_us),
        static_cast<unsigned long long>(spans[i].dur_us), spans[i].tid);
  }
  out += "]}";
  return out;
}

uint64_t TraceBuffer::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_recorded_;
}

void TraceBuffer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  total_recorded_ = 0;
}

Telemetry& Telemetry::instance() {
  static Telemetry* telemetry = new Telemetry();  // intentionally leaked
  return *telemetry;
}

Telemetry::Telemetry() {
  // Ops overrides: HARMONY_TELEMETRY=0 disables all instruments,
  // HARMONY_TRACE=1 turns the span ring on from startup.
  if (const char* env = std::getenv("HARMONY_TELEMETRY")) {
    if (std::string_view(env) == "0") set_telemetry_enabled(false);
  }
  if (const char* env = std::getenv("HARMONY_TRACE")) {
    if (std::string_view(env) == "1") TraceBuffer::instance().set_enabled(true);
  }
}

template <typename T>
T& Telemetry::acquire(Registry<T>& registry, const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry<T>& entry = registry[name];
  if (entry.instrument == nullptr) entry.instrument = std::make_unique<T>();
  ++entry.refs;
  return *entry.instrument;
}

template <typename T>
void Telemetry::release(Registry<T>& registry, const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = registry.find(name);
  if (it != registry.end() && --it->second.refs == 0) registry.erase(it);
}

Counter& Telemetry::counter(const std::string& name) {
  return acquire(counters_, name);
}

Gauge& Telemetry::gauge(const std::string& name) {
  return acquire(gauges_, name);
}

Histogram& Telemetry::histogram(const std::string& name) {
  return acquire(histograms_, name);
}

void Telemetry::release_counter(const std::string& name) {
  release(counters_, name);
}

void Telemetry::release_histogram(const std::string& name) {
  release(histograms_, name);
}

namespace {

std::string prometheus_name(const std::string& dotted) {
  std::string out = "harmony_";
  for (char c : dotted) out += (c == '.' || c == '-') ? '_' : c;
  return out;
}

}  // namespace

std::string Telemetry::render_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    std::string prom = prometheus_name(name);
    out += str_format("# TYPE %s counter\n%s %llu\n", prom.c_str(),
                      prom.c_str(),
                      static_cast<unsigned long long>(
                          counter.instrument->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    std::string prom = prometheus_name(name);
    out += str_format("# TYPE %s gauge\n%s %lld\n", prom.c_str(), prom.c_str(),
                      static_cast<long long>(gauge.instrument->value()));
  }
  for (const auto& [name, entry] : histograms_) {
    const Histogram* histogram = entry.instrument.get();
    std::string prom = prometheus_name(name);
    out += str_format("# TYPE %s histogram\n", prom.c_str());
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      uint64_t in_bucket = histogram->bucket_count(i);
      cumulative += in_bucket;
      if (in_bucket == 0 && i + 1 < Histogram::kBuckets) continue;
      if (i + 1 < Histogram::kBuckets) {
        out += str_format(
            "%s_bucket{le=\"%llu\"} %llu\n", prom.c_str(),
            static_cast<unsigned long long>(Histogram::bucket_upper_bound(i)),
            static_cast<unsigned long long>(cumulative));
      }
    }
    out += str_format("%s_bucket{le=\"+Inf\"} %llu\n%s_sum %llu\n%s_count "
                      "%llu\n",
                      prom.c_str(), static_cast<unsigned long long>(cumulative),
                      prom.c_str(),
                      static_cast<unsigned long long>(histogram->sum()),
                      prom.c_str(),
                      static_cast<unsigned long long>(cumulative));
  }
  return out;
}

std::string Telemetry::render_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ',';
    first = false;
    out += str_format("\"%s\":%llu", name.c_str(),
                      static_cast<unsigned long long>(
                          counter.instrument->value()));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += str_format("\"%s\":%lld", name.c_str(),
                      static_cast<long long>(gauge.instrument->value()));
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, entry] : histograms_) {
    const Histogram* histogram = entry.instrument.get();
    if (!first) out += ',';
    first = false;
    out += str_format(
        "\"%s\":{\"count\":%llu,\"sum\":%llu,\"p50\":%llu,\"p99\":%llu}",
        name.c_str(), static_cast<unsigned long long>(histogram->count()),
        static_cast<unsigned long long>(histogram->sum()),
        static_cast<unsigned long long>(histogram->percentile(0.50)),
        static_cast<unsigned long long>(histogram->percentile(0.99)));
  }
  out += "}}";
  return out;
}

void Telemetry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter.instrument->reset();
  for (auto& [name, gauge] : gauges_) gauge.instrument->reset();
  for (auto& [name, histogram] : histograms_) histogram.instrument->reset();
}

}  // namespace harmony::metric
