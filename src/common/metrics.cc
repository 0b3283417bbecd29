#include "common/metrics.h"

#include <algorithm>
#include <bit>

#include "common/strings.h"

namespace mct {

namespace {

// Index of the bucket holding `sample`: its bit width.
int BucketOf(uint64_t sample) {
  return sample == 0 ? 0 : 64 - std::countl_zero(sample);
}

// Upper edge of bucket b (inclusive): largest sample it can hold.
uint64_t BucketUpper(int b) {
  if (b == 0) return 0;
  if (b >= 64) return ~uint64_t{0};
  return (uint64_t{1} << b) - 1;
}

}  // namespace

void Histogram::Observe(uint64_t sample) {
  buckets_[static_cast<size_t>(BucketOf(sample))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < sample &&
         !max_.compare_exchange_weak(prev, sample,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::Mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

uint64_t Histogram::ApproxPercentile(double p) const {
  uint64_t n = count();
  if (n == 0) return 0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(n - 1)) + 1;
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += BucketCount(b);
    if (seen >= rank) return std::min(BucketUpper(b), max());
  }
  return max();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* g = new MetricsRegistry();
  return *g;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [_, c] : counters_) c->Reset();
  for (auto& [_, g] : gauges_) g->Reset();
  for (auto& [_, h] : histograms_) h->Reset();
}

std::string MetricsRegistry::ToText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += StrFormat("%s %llu\n", name.c_str(),
                     static_cast<unsigned long long>(c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    out += StrFormat("%s %lld\n", name.c_str(),
                     static_cast<long long>(g->value()));
  }
  for (const auto& [name, h] : histograms_) {
    out += StrFormat(
        "%s count=%llu sum=%llu mean=%.1f p50<=%llu p99<=%llu max=%llu\n",
        name.c_str(), static_cast<unsigned long long>(h->count()),
        static_cast<unsigned long long>(h->sum()), h->Mean(),
        static_cast<unsigned long long>(h->ApproxPercentile(0.5)),
        static_cast<unsigned long long>(h->ApproxPercentile(0.99)),
        static_cast<unsigned long long>(h->max()));
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += StrFormat("%s\"%s\": %llu", first ? "" : ", ", name.c_str(),
                     static_cast<unsigned long long>(c->value()));
    first = false;
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += StrFormat("%s\"%s\": %lld", first ? "" : ", ", name.c_str(),
                     static_cast<long long>(g->value()));
    first = false;
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += StrFormat(
        "%s\"%s\": {\"count\": %llu, \"sum\": %llu, \"mean\": %.3f, "
        "\"p50\": %llu, \"p99\": %llu, \"max\": %llu}",
        first ? "" : ", ", name.c_str(),
        static_cast<unsigned long long>(h->count()),
        static_cast<unsigned long long>(h->sum()), h->Mean(),
        static_cast<unsigned long long>(h->ApproxPercentile(0.5)),
        static_cast<unsigned long long>(h->ApproxPercentile(0.99)),
        static_cast<unsigned long long>(h->max()));
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace mct
