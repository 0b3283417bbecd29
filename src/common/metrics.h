// Process-wide engine metrics: named counters, gauges and histograms that
// storage, index and execution layers increment as they work. Instruments
// are cheap enough for hot paths (one relaxed atomic op), registration is
// mutex-guarded and returns stable pointers, so callers look an instrument
// up once and cache the pointer.
//
// The registry is observational only — nothing in the engine reads its own
// metrics back — so tests may ResetForTest() freely between scenarios.

#ifndef COLORFUL_XML_COMMON_METRICS_H_
#define COLORFUL_XML_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace mct {

/// Cache-line size for padding hot atomics. Hardcoded rather than
/// std::hardware_destructive_interference_size, which libstdc++ warns is
/// ABI-fragile; 64 is correct for every target this builds on.
inline constexpr size_t kCacheLineBytes = 64;

/// Monotonically increasing event count. Counters are allocated
/// individually and hammered from morsel-parallel tasks, so each one is
/// padded to a cache line: two hot counters that happen to be neighbors in
/// the heap must not false-share.
class alignas(kCacheLineBytes) Counter {
 public:
  void Inc(uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-written level (queue depths, fan-out widths). Padded like Counter.
class alignas(kCacheLineBytes) Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if it is below (high-watermark gauges like
  /// mct.governor.peak_bytes); concurrent SetMax calls keep the maximum.
  void SetMax(int64_t v) {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v && !v_.compare_exchange_weak(cur, v,
                                                std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Power-of-two bucketed histogram of non-negative integer samples
/// (microseconds, row counts). Bucket b counts samples whose bit width is
/// b: bucket 0 holds 0, bucket b holds [2^(b-1), 2^b).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Observe(uint64_t sample);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(int b) const {
    return buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }
  double Mean() const;
  /// Upper edge of the bucket holding the p-quantile (p in [0,1]), clamped
  /// to max(); an order-of-magnitude percentile, exact enough for tail
  /// diagnosis.
  uint64_t ApproxPercentile(double p) const;
  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Name -> instrument registry. Lookup creates on first use; pointers stay
/// valid for the process lifetime. Names are dot-separated, prefixed
/// "mct.<subsystem>." (see DESIGN.md "Observability" for the inventory).
class MetricsRegistry {
 public:
  /// The process-wide registry (intentionally leaked: instruments cached in
  /// long-lived objects must stay valid through static destruction).
  static MetricsRegistry& Global();

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Zeroes every registered instrument (registrations and cached pointers
  /// survive). Test isolation only.
  void ResetForTest();

  /// "name value" lines, histograms as count/sum/mean/p50/p99/max.
  std::string ToText() const;
  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, mean, p50, p99, max}}}.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  // std::map: stable iteration order for deterministic dumps.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace mct

#endif  // COLORFUL_XML_COMMON_METRICS_H_
