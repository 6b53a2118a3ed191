// Thread-safe process-wide telemetry: counters, gauges, log-scale
// latency histograms, and an opt-in trace-span ring. This is the
// production-side complement to MetricRegistry (which stores
// simulation-time series and is single-threaded by design): I/O shard
// threads, the persistence sync thread, and client threads all record
// here, and any thread may scrape without coordinating with the
// controller.
//
// Hot-path cost model: recording is one relaxed atomic add into a
// cache-line-padded per-thread cell (counters) or a relaxed add into a
// log2 bucket (histograms). Aggregation across cells happens at scrape
// time only. A process-global enable flag (relaxed load + predictable
// branch) lets benches measure telemetry-on vs telemetry-off; see the
// <2% overhead gates in bench/abl_optimizer and bench/abl_server.
//
// Scrapes are intentionally lock-free with respect to writers: a
// snapshot taken while counters advance is approximate (each value is
// individually atomic, the set is not), which is the standard
// Prometheus contract.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace harmony::metric {

namespace detail {
extern std::atomic<bool> g_telemetry_enabled;
extern std::atomic<uint32_t> g_next_thread_slot;
// Stable small id per thread; picks the counter cell and trace tid.
inline uint32_t thread_slot() {
  thread_local uint32_t slot =
      g_next_thread_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}
}  // namespace detail

inline bool telemetry_enabled() {
  return detail::g_telemetry_enabled.load(std::memory_order_relaxed);
}
void set_telemetry_enabled(bool on);

// Microseconds since process start (steady clock).
uint64_t telemetry_now_us();

// Monotonic counter. Writers add into a per-thread padded cell so
// concurrent shards never contend on one cache line; value() sums the
// cells at scrape time.
class Counter {
 public:
  void add(uint64_t n) {
    if (!telemetry_enabled()) return;
    cells_[detail::thread_slot() % kCells].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  void increment() { add(1); }

  uint64_t value() const {
    uint64_t total = 0;
    for (const Cell& c : cells_) total += c.value.load(std::memory_order_relaxed);
    return total;
  }

  void reset() {
    for (Cell& c : cells_) c.value.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kCells = 16;
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  Cell cells_[kCells];
};

// Point-in-time value (connection count, mailbox depth). record_max
// keeps a high-water mark.
class Gauge {
 public:
  void set(int64_t v) {
    if (!telemetry_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(int64_t delta) {
    if (!telemetry_enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void record_max(int64_t v) {
    if (!telemetry_enabled()) return;
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-boundary log-scale histogram for latencies in microseconds.
// Bucket i >= 1 holds values v with bit_width(v) == i, i.e. the
// half-open range [2^(i-1), 2^i); bucket 0 holds zero. The last bucket
// absorbs overflow. Recording is two relaxed adds; no allocation, no
// locks, no floating point.
class Histogram {
 public:
  static constexpr size_t kBuckets = 40;  // covers up to ~2^39 us (~6 days)

  static size_t bucket_index(uint64_t v) {
    if (v == 0) return 0;
    return std::min<size_t>(kBuckets - 1, std::bit_width(v));
  }
  // Inclusive upper bound of bucket i (2^i - 1); last bucket is +Inf.
  static uint64_t bucket_upper_bound(size_t i) {
    return i == 0 ? 0 : (uint64_t{1} << i) - 1;
  }

  void record(uint64_t v) {
    if (!telemetry_enabled()) return;
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t count() const;
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  // Nearest-rank percentile resolved to the bucket's upper bound;
  // q in [0, 1]. Returns 0 when empty.
  uint64_t percentile(double q) const;
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

// One completed span for the Chrome trace_event ("chrome://tracing" /
// Perfetto) dump: a complete event, ph "X".
struct TraceSpan {
  const char* name = "";  // must point at a string literal
  uint64_t ts_us = 0;     // start, microseconds since process start
  uint64_t dur_us = 0;
  uint32_t tid = 0;
};

// Bounded ring of recent spans. Opt-in: recording is a relaxed bool
// load when disabled (the default), so epoch tracing costs nothing in
// steady state. Enable via set_enabled(true) or HARMONY_TRACE=1.
class TraceBuffer {
 public:
  static TraceBuffer& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // `name` must be a string literal (stored by pointer).
  void record(const char* name, uint64_t ts_us, uint64_t dur_us);

  std::vector<TraceSpan> snapshot() const;
  // {"traceEvents":[...]} — loadable by chrome://tracing and Perfetto.
  std::string render_chrome_json() const;
  uint64_t total_recorded() const;
  void clear();

 private:
  static constexpr size_t kCapacity = 16384;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<TraceSpan> ring_;
  size_t next_ = 0;             // ring write cursor once full
  uint64_t total_recorded_ = 0;
};

// RAII span: samples the clock only when tracing is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (TraceBuffer::instance().enabled()) {
      name_ = name;
      start_us_ = telemetry_now_us();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) {
      TraceBuffer::instance().record(name_, start_us_,
                                     telemetry_now_us() - start_us_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t start_us_ = 0;
};

// Process-global instrument registry. Instruments are created on first
// lookup and keep a stable address until released, so hot paths
// resolve their instruments once and keep the pointer.
class Telemetry {
 public:
  static Telemetry& instance();

  // Each lookup takes one reference to the named instrument.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Drops one reference taken by counter() / histogram(); the last one
  // destroys the instrument, which then leaves every scrape. For
  // series whose subject dies (an optimization domain); an instrument
  // nobody releases lives for the process. Precondition: the releasing
  // owner no longer uses its reference and no thread still records
  // through it.
  void release_counter(const std::string& name);
  void release_histogram(const std::string& name);

  // Prometheus text exposition format. Dotted names are mapped to
  // underscores and prefixed "harmony_".
  std::string render_prometheus() const;
  // JSON variant keyed by the dotted names.
  std::string render_json() const;

  // Zeroes every instrument (benches and tests; callers quiesce first).
  void reset();

 private:
  Telemetry();

  template <typename T>
  struct Entry {
    std::unique_ptr<T> instrument;
    uint64_t refs = 0;  // lookups not yet released
  };
  template <typename T>
  using Registry = std::map<std::string, Entry<T>>;
  template <typename T>
  T& acquire(Registry<T>& registry, const std::string& name);
  template <typename T>
  void release(Registry<T>& registry, const std::string& name);

  mutable std::mutex mutex_;
  Registry<Counter> counters_;
  Registry<Gauge> gauges_;
  Registry<Histogram> histograms_;
};

// Shorthand for one-off lookups; hot paths should cache the reference.
inline Counter& telemetry_counter(const std::string& name) {
  return Telemetry::instance().counter(name);
}
inline Gauge& telemetry_gauge(const std::string& name) {
  return Telemetry::instance().gauge(name);
}
inline Histogram& telemetry_histogram(const std::string& name) {
  return Telemetry::instance().histogram(name);
}

}  // namespace harmony::metric
